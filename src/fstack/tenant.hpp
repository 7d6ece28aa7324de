// Per-tenant resource accounting (API v9; ROADMAP item 5 — Scenario 3).
//
// N mutually-untrusting app compartments share ONE stack compartment. The
// capability model already guarantees a tenant cannot *read or write*
// another tenant's memory; this layer extends the same bounded-delegation
// argument to the stack's SHARED resources — the mbuf pool, the per-
// iteration SQE drain budget, and the deferred-completion machinery — so a
// hostile or buggy tenant cannot exhaust what its neighbours depend on.
//
// Charging model: every resource a tenant pins is charged against its
// quota at the moment it is pinned and credited back the moment it is
// released. Over-budget requests fail SOFTLY and to the OFFENDER ONLY
// (-ENOBUFS / -EAGAIN / -EMFILE on the offending call; neighbours never
// see an error they did not earn), and every rejection lands in a
// per-cause counter so the census can prove where the pressure came from.
//
// ---------------------------------------------------------------------------
// Quota-knob reference
// ---------------------------------------------------------------------------
// TenantQuota field         resource bounded              over-budget verdict
// ----------------------    --------------------------    -------------------
// max_pool_mbufs            mbuf data rooms pinned by     -ENOBUFS
//                           this tenant across ALL causes
//                           (RX loans + zc TX reservations
//                           + ARP-parked frames)
// max_loans                 outstanding zc RX loans       -ENOBUFS
//                           (tokens not yet recycled)
// max_zc_reservations       outstanding zc TX tokens      -ENOBUFS
//                           (allocated, not yet sent or
//                           aborted)
// max_sockets               live fds owned by the tenant  -EMFILE
// sq_drain_weight           relative share of the per-    SQEs stay queued
//                           iteration 64-SQE drain        (-EAGAIN shape:
//                           budget (DRR-style; default 1) completions defer)
// max_cq_stall_rounds       drain passes a ring may sit   multishot accept /
//                           with a FULL, unreaped CQ      readiness arms are
//                           while work is pending before  evicted (the one
//                           its re-derivable subscription re-derivable
//                           state is evicted              deferred-CQE state)
//
// Every knob is 0 = unlimited, which is also the accounting applied to
// untenanted callers (tenant id 0): existing single-tenant setups see no
// behaviour change at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cherinet::fstack {

/// Resource bounds for one tenant. 0 = unlimited (see the knob reference
/// above for what each field bounds and the error the offender receives).
struct TenantQuota {
  std::uint32_t max_pool_mbufs = 0;
  std::uint32_t max_loans = 0;
  std::uint32_t max_zc_reservations = 0;
  std::uint32_t max_sockets = 0;
  std::uint32_t sq_drain_weight = 1;
  std::uint32_t max_cq_stall_rounds = 0;
};

/// One tenant's live gauges + cumulative per-cause rejection counters. The
/// gauges prove eviction reclaims everything (all must read 0 afterwards);
/// the counters prove an adversary's failures were ACCOUNTED, not absorbed
/// by its neighbours.
struct TenantStats {
  // ---- gauges (current holdings) ----
  std::uint32_t pool_charged = 0;      // mbuf rooms pinned, all causes
  std::uint32_t loans_outstanding = 0; // zc RX tokens not yet recycled
  std::uint32_t zc_reservations = 0;   // zc TX tokens not yet consumed
  std::uint32_t sockets = 0;           // live fds
  std::uint32_t arp_parked = 0;        // frames parked on unresolved hops
  // ---- cumulative per-cause quota verdicts ----
  std::uint64_t pool_budget_rejects = 0;  // max_pool_mbufs hit
  std::uint64_t loan_cap_rejects = 0;     // max_loans hit
  std::uint64_t zc_cap_rejects = 0;       // max_zc_reservations hit
  std::uint64_t socket_cap_rejects = 0;   // max_sockets hit
  std::uint64_t sq_drain_throttled = 0;   // drain passes cut short by weight
  std::uint64_t cq_deferrals = 0;         // full-CQ rounds with work pending
  std::uint64_t cq_deferral_evictions = 0;  // arms dropped (stall cap hit)
  std::uint64_t sqe_errors = 0;  // per-entry verdicts on this tenant's rings
  std::uint64_t doorbells = 0;   // doorbell crossings from this tenant
  std::uint64_t evictions = 0;   // hard evictions of this tenant

  bool operator==(const TenantStats&) const = default;
};

/// The registry: tenant ids are small positive integers handed out at
/// registration; id 0 is the reserved "no tenant" (unlimited, uncounted)
/// context every pre-v9 caller implicitly uses. Rows are never erased —
/// an evicted tenant keeps its stats row so the census survives eviction.
class TenantTable {
 public:
  static constexpr int kNoTenant = 0;

  /// Register a tenant under `quota`; returns its id (>= 1).
  int register_tenant(std::string name, const TenantQuota& quota) {
    rows_.push_back(Row{std::move(name), quota, TenantStats{}});
    return static_cast<int>(rows_.size());
  }

  [[nodiscard]] bool valid(int tid) const noexcept {
    return tid >= 1 && static_cast<std::size_t>(tid) <= rows_.size();
  }
  [[nodiscard]] std::size_t count() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::string& name(int tid) const {
    return rows_[static_cast<std::size_t>(tid - 1)].name;
  }
  [[nodiscard]] const TenantQuota& quota(int tid) const {
    return rows_[static_cast<std::size_t>(tid - 1)].quota;
  }
  [[nodiscard]] const TenantStats& stats(int tid) const {
    return rows_[static_cast<std::size_t>(tid - 1)].stats;
  }
  [[nodiscard]] TenantStats& mutable_stats(int tid) {
    return rows_[static_cast<std::size_t>(tid - 1)].stats;
  }
  /// The DRR weight a ring bound to `tid` drains under (untenanted: 1).
  [[nodiscard]] std::uint32_t drain_weight(int tid) const {
    if (!valid(tid)) return 1;
    const std::uint32_t w = quota(tid).sq_drain_weight;
    return w == 0 ? 1 : w;
  }

  // ---- charge/credit: false bumps the per-cause reject counter ----
  // Loans, zc reservations and parked frames each pin one mbuf data room,
  // so each charge checks its own cap AND the shared pool budget.

  bool charge_loan(int tid) {
    if (!valid(tid)) return true;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (r.quota.max_loans != 0 &&
        r.stats.loans_outstanding >= r.quota.max_loans) {
      r.stats.loan_cap_rejects++;
      return false;
    }
    if (!pool_ok(r)) return false;
    r.stats.loans_outstanding++;
    r.stats.pool_charged++;
    return true;
  }
  void credit_loan(int tid) {
    if (!valid(tid)) return;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (r.stats.loans_outstanding > 0) r.stats.loans_outstanding--;
    if (r.stats.pool_charged > 0) r.stats.pool_charged--;
  }

  bool charge_zc_reservation(int tid) {
    if (!valid(tid)) return true;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (r.quota.max_zc_reservations != 0 &&
        r.stats.zc_reservations >= r.quota.max_zc_reservations) {
      r.stats.zc_cap_rejects++;
      return false;
    }
    if (!pool_ok(r)) return false;
    r.stats.zc_reservations++;
    r.stats.pool_charged++;
    return true;
  }
  void credit_zc_reservation(int tid) {
    if (!valid(tid)) return;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (r.stats.zc_reservations > 0) r.stats.zc_reservations--;
    if (r.stats.pool_charged > 0) r.stats.pool_charged--;
  }

  bool charge_parked(int tid) {
    if (!valid(tid)) return true;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (!pool_ok(r)) return false;
    r.stats.arp_parked++;
    r.stats.pool_charged++;
    return true;
  }
  void credit_parked(int tid) {
    if (!valid(tid)) return;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (r.stats.arp_parked > 0) r.stats.arp_parked--;
    if (r.stats.pool_charged > 0) r.stats.pool_charged--;
  }

  bool charge_socket(int tid) {
    if (!valid(tid)) return true;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (r.quota.max_sockets != 0 && r.stats.sockets >= r.quota.max_sockets) {
      r.stats.socket_cap_rejects++;
      return false;
    }
    r.stats.sockets++;
    return true;
  }
  void credit_socket(int tid) {
    if (!valid(tid)) return;
    Row& r = rows_[static_cast<std::size_t>(tid - 1)];
    if (r.stats.sockets > 0) r.stats.sockets--;
  }

 private:
  struct Row {
    std::string name;
    TenantQuota quota;
    TenantStats stats;
  };

  /// The shared pool budget every room-pinning charge checks.
  static bool pool_ok(Row& r) {
    if (r.quota.max_pool_mbufs != 0 &&
        r.stats.pool_charged >= r.quota.max_pool_mbufs) {
      r.stats.pool_budget_rejects++;
      return false;
    }
    return true;
  }

  std::vector<Row> rows_;
};

}  // namespace cherinet::fstack
