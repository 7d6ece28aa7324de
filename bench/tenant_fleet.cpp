// Tenant-fleet robustness census (ISSUE 10, Scenario 3's gates in
// deterministic virtual time).
//
// A fleet of three victim tenants streams TCP through one shared stack
// while ONE hostile tenant runs each seeded abuse profile in turn (hoard,
// no-reap, flood, storm, forge, crash — scenarios/adversary.hpp). Gates:
//
//   1. SLO: under every profile, every victim retains >= 90% of the
//      goodput it achieved in the adversary-free control run.
//   2. Accounting: each profile's failures land in its OWN per-cause
//      TenantStats counters (zc_cap_rejects for the hoarder, cq_deferrals
//      + cq_deferral_evictions for the non-reaper, sq_drain_throttled for
//      the flooder, doorbells for the stormer, sqe_errors for the forger,
//      pinned-then-reclaimed reservations for the crasher).
//   3. Reclamation: tenant_evict returns EVERY gauge to zero, and the
//      stack itself returns to exact baselines (PCBs, pool buffers).
//
// Results persist as $CHERINET_BENCH_JSON_DIR/BENCH_tenants.json — the
// artifact scripts/check.sh reads; retention or accounting drift fails CI.
//
//   CHERINET_TENANT_ITERS   loop turns per run          (default 4000)
//   CHERINET_TENANT_CHUNK   victim write chunk, bytes   (default 2048)
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "apps/ff_ops.hpp"
#include "bench_common.hpp"
#include "fstack/api.hpp"
#include "fstack/uring.hpp"
#include "scenarios/adversary.hpp"
#include "scenarios/two_stacks.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::bench::env_u64;
using cherinet::bench::Fields;
using cherinet::bench::print_header;
using cherinet::bench::Report;
using cherinet::scen::HostileProfile;
using cherinet::scen::HostileTenant;

namespace {

constexpr int kVictims = 3;
constexpr std::uint16_t kSinkPortBase = 6001;
constexpr std::uint16_t kHostilePort = 7800;
constexpr std::uint32_t kEvilSq = 256;  // > doorbell + loop drain budgets:
constexpr std::uint32_t kEvilCq = 64;   // the flooder CAN out-queue its slice

struct RunResult {
  std::array<std::uint64_t, kVictims> victim_bytes{};
  TenantStats evil_pre{};   // snapshot BEFORE eviction (the pinned state)
  TenantStats evil_post{};  // snapshot AFTER eviction (must be all-zero)
  HostileTenant::Census abuse{};
  std::size_t pcbs_end = 0;
  std::size_t wheel_end = 0;
  std::uint32_t pool0 = 0;
  std::uint32_t pool_end = 0;
  bool baselines_exact = false;
};

/// One fleet run: three victim streams for `iters` loop turns, optionally
/// sharing the stack with one hostile profile; then full quiesce, eviction,
/// and the baseline audit.
RunResult run_fleet(std::optional<HostileProfile> prof, std::uint64_t seed,
                    std::size_t iters, std::size_t chunk) {
  scen::TwoStacks rig;  // A hosts the tenants, B runs the victims' sinks
  RunResult out;
  FfStack& A = rig.a();
  FfStack& B = rig.b();
  out.pool0 = rig.pool_a().available();

  // Victim sinks on B: one listener per victim, reads drained every turn.
  std::array<int, kVictims> lfd{}, sink{};
  machine::CapView scratch = rig.heap_b().alloc_view(8 * 1024);
  for (int i = 0; i < kVictims; ++i) {
    lfd[i] = ff_socket(B, kAfInet, kSockStream, 0);
    ff_bind(B, lfd[i], {Ipv4Addr{}, static_cast<std::uint16_t>(
                                        kSinkPortBase + i)});
    ff_listen(B, lfd[i], 4);
    sink[i] = -1;
  }

  // Victim tenants on A: unlimited quotas (trusted workloads).
  std::array<int, kVictims> vtid{}, vfd{};
  machine::CapView tx = rig.heap_a().alloc_view(chunk);
  for (std::size_t off = 0; off < chunk; ++off) {
    tx.store<std::uint8_t>(off, static_cast<std::uint8_t>(off * 131 + 7));
  }
  for (int i = 0; i < kVictims; ++i) {
    vtid[i] = ff_tenant_register(A, "victim" + std::to_string(i),
                                 TenantQuota{});
    vfd[i] = ff_socket(A, kAfInet, kSockStream, 0);
    ff_set_tenant(A, vfd[i], vtid[i]);
    ff_connect(A, vfd[i], {Ipv4Addr::of(10, 0, 0, 2),
                           static_cast<std::uint16_t>(kSinkPortBase + i)});
  }

  // The adversary: quota-bounded, ring-bound, seeded.
  apps::DirectFfOps evil_ops(&A);
  std::unique_ptr<HostileTenant> evil;
  int etid = 0;
  if (prof) {
    TenantQuota bounded;
    bounded.max_pool_mbufs = 8;
    bounded.max_loans = 4;
    bounded.max_zc_reservations = 8;
    bounded.max_sockets = 4;
    bounded.sq_drain_weight = 1;
    bounded.max_cq_stall_rounds = 4;
    etid = ff_tenant_register(A, "evil", bounded);
    machine::CapView ring_mem =
        rig.heap_a().alloc_view(FfUring::bytes_for(kEvilSq, kEvilCq));
    evil = std::make_unique<HostileTenant>(&evil_ops, ring_mem, kEvilSq,
                                           kEvilCq, *prof, seed,
                                           kHostilePort);
    ff_uring_bind_tenant(A, evil->ring_id(), etid);
  }

  // The measured phase: a FIXED turn budget on a FIXED virtual timeline —
  // every turn advances the clock by the same quantum in control and
  // profile runs alike, so an adversary that keeps run_once "busy" with
  // garbage cannot freeze time for everyone else (the frozen-clock
  // starvation a progress-driven pump would allow). Degradation then shows
  // up as victim bytes lost to the identical time budget, exactly how a
  // wall-clock SLO would see it. True idleness still fast-forwards to the
  // next protocol deadline.
  constexpr sim::Ns kTurnQuantum{50'000};  // 50 us of virtual time per turn
  for (std::size_t it = 0; it < iters; ++it) {
    for (int i = 0; i < kVictims; ++i) {
      (void)ff_write(A, vfd[i], tx, chunk);  // -EAGAIN while connecting/full
    }
    if (evil) evil->step();
    for (int i = 0; i < kVictims; ++i) {
      if (sink[i] < 0) sink[i] = ff_accept(B, lfd[i], nullptr);
      if (sink[i] >= 0) {
        std::int64_t got;
        while ((got = ff_read(B, sink[i], scratch, scratch.size())) > 0) {
          out.victim_bytes[i] += static_cast<std::uint64_t>(got);
        }
      }
    }
    auto target = rig.clock().now() + kTurnQuantum;
    if (!rig.run_once()) {
      const auto d = rig.next_deadline();
      if (d && *d > target) target = *d;
    }
    rig.clock().advance_to(target);
  }

  // Quiesce and audit. The adversary object "exits" first (its dtor closes
  // its fds, nothing else — the pinned state is eviction's problem).
  if (evil) {
    out.abuse = evil->census();
    if (const TenantStats* st = ff_tenant_stats(A, etid)) out.evil_pre = *st;
    evil.reset();
    ff_tenant_evict(A, etid);
    if (const TenantStats* st = ff_tenant_stats(A, etid)) out.evil_post = *st;
  }
  for (int i = 0; i < kVictims; ++i) ff_close(A, vfd[i]);
  for (int i = 0; i < kVictims; ++i) {
    if (sink[i] >= 0) ff_close(B, sink[i]);
    ff_close(B, lfd[i]);
  }
  // Drain TIME_WAIT, retransmits and parked frames out in virtual time.
  rig.pump_until([&] {
    return A.tcp_pcb_count() == 0 && rig.pool_a().available() == out.pool0;
  });
  out.pcbs_end = A.tcp_pcb_count();
  out.wheel_end = A.timer_wheel().size();
  out.pool_end = rig.pool_a().available();
  out.baselines_exact = out.pcbs_end == 0 && out.pool_end == out.pool0;
  return out;
}

struct ProfileRow {
  HostileProfile prof;
  RunResult r;
  double min_retention = 0.0;
  bool slo_ok = false;
  bool accounted = false;
  bool reclaimed = false;
};

/// The per-cause accounting gate: the profile's abuse must be visible in
/// the counters named for it — nowhere else does the damage land.
bool cause_accounted(HostileProfile p, const RunResult& r) {
  switch (p) {
    case HostileProfile::kHoard:
      return r.evil_pre.zc_cap_rejects > 0 || r.evil_pre.pool_budget_rejects > 0;
    case HostileProfile::kNoReap:
      return r.evil_pre.cq_deferrals > 0 &&
             r.evil_pre.cq_deferral_evictions > 0;
    case HostileProfile::kFlood:
      return r.evil_pre.sq_drain_throttled > 0;
    case HostileProfile::kStorm:
      return r.evil_pre.doorbells > 0;
    case HostileProfile::kForge:
      return r.evil_pre.sqe_errors > 0;
    case HostileProfile::kCrash:
      return r.abuse.crashed && r.evil_pre.zc_reservations > 0;
  }
  return false;
}

bool fully_reclaimed(const RunResult& r) {
  const TenantStats& s = r.evil_post;
  return s.evictions == 1 && s.pool_charged == 0 && s.loans_outstanding == 0 &&
         s.zc_reservations == 0 && s.sockets == 0 && s.arp_parked == 0 &&
         r.baselines_exact;
}

}  // namespace

int main() {
  print_header("Tenant fleet: per-tenant quotas vs seeded hostile profiles",
               "ISSUE 10 (Scenario 3 graceful degradation; CompartOS "
               "bounded delegation applied to resources)");

  const auto iters =
      static_cast<std::size_t>(env_u64("CHERINET_TENANT_ITERS", 4000));
  const auto chunk =
      static_cast<std::size_t>(env_u64("CHERINET_TENANT_CHUNK", 2048));
  constexpr std::uint64_t kSeed = 0x7EAA27ULL;

  std::printf("\ncontrol: %d victim streams, %zu turns, no adversary\n",
              kVictims, iters);
  Report rep("tenants");
  rep.set("iters", iters).set("victims", kVictims);
  const RunResult control = run_fleet(std::nullopt, kSeed, iters, chunk);
  bool control_moved = true;
  for (int i = 0; i < kVictims; ++i) {
    std::printf("  victim%d: %llu bytes\n", i,
                static_cast<unsigned long long>(control.victim_bytes[i]));
    rep.push("control_bytes", control.victim_bytes[i]);
    control_moved &= rep.gate("control victim" + std::to_string(i) +
                                  " bytes > 0",
                              control.victim_bytes[i], ">", 0);
  }
  rep.gate("control baselines restored exactly", control.baselines_exact,
           "==", true);
  // Retention is relative to the control: without it there is nothing to
  // measure the profiles against.
  if (!control_moved) return rep.finish();

  const HostileProfile profiles[] = {
      HostileProfile::kHoard, HostileProfile::kNoReap, HostileProfile::kFlood,
      HostileProfile::kStorm, HostileProfile::kForge, HostileProfile::kCrash};
  double min_retention = 1.0;
  for (const HostileProfile p : profiles) {
    ProfileRow row;
    row.prof = p;
    row.r = run_fleet(p, kSeed, iters, chunk);
    row.min_retention = 1.0;
    for (int i = 0; i < kVictims; ++i) {
      const double ret = static_cast<double>(row.r.victim_bytes[i]) /
                         static_cast<double>(control.victim_bytes[i]);
      row.min_retention = std::min(row.min_retention, ret);
    }
    row.slo_ok = row.min_retention >= 0.90;
    row.accounted = cause_accounted(p, row.r);
    row.reclaimed = fully_reclaimed(row.r);
    min_retention = std::min(min_retention, row.min_retention);
    std::printf(
        "  %-8s min retention %.3f  slo=%s accounted=%s reclaimed=%s "
        "(submits=%llu rejects=%llu, pcbs=%zu pool %u/%u)\n",
        scen::to_string(p), row.min_retention, row.slo_ok ? "ok" : "FAIL",
        row.accounted ? "ok" : "FAIL", row.reclaimed ? "ok" : "FAIL",
        static_cast<unsigned long long>(row.r.abuse.submits),
        static_cast<unsigned long long>(row.r.abuse.rejects), row.r.pcbs_end,
        row.r.pool_end, row.r.pool0);
    const std::string name = scen::to_string(p);
    const TenantStats& e = row.r.evil_pre;
    Fields& o = rep.row("profiles").set("profile", name);
    for (const std::uint64_t b : row.r.victim_bytes) o.push("victim_bytes", b);
    o.set("min_retention", row.min_retention)
        .set("slo_ok", row.slo_ok)
        .set("accounted", row.accounted)
        .set("reclaimed", row.reclaimed);
    o.at("offender")
        .set("zc_cap_rejects", e.zc_cap_rejects)
        .set("pool_budget_rejects", e.pool_budget_rejects)
        .set("cq_deferrals", e.cq_deferrals)
        .set("cq_deferral_evictions", e.cq_deferral_evictions)
        .set("sq_drain_throttled", e.sq_drain_throttled)
        .set("doorbells", e.doorbells)
        .set("sqe_errors", e.sqe_errors)
        .set("submits", row.r.abuse.submits);
    rep.gate(name + " min_retention >= 0.90", row.min_retention, ">=", 0.90);
    rep.gate(name + " abuse visible in its per-cause counters", row.accounted,
             "==", true);
    rep.gate(name + " eviction reclaimed every gauge and baseline",
             row.reclaimed, "==", true);
  }
  rep.set("min_retention", min_retention);
  return rep.finish();
}
