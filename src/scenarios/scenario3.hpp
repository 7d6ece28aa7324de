// Scenario 3: a multi-tenant fleet on one stack compartment (API v9).
//
// Scenario 2 proved the compartment boundary; Scenario 3 proves the stack
// can be SHARED. N application compartments — a mix of echo, iperf and
// MAVLink-telemetry workloads — attach to one network cVM, each bound to a
// tenant row with its own resource quotas (fstack/tenant.hpp). The
// orchestrator fixes an app's tenant when it builds the app's proxy, and the
// binding happens INSIDE the sealed ff_socket / ff_uring_attach entries, in
// the crossing that creates the handle: no handle is ever untenanted, and
// the app has no call that could re-bill its traffic to a neighbour, any
// more than it can forge a capability.
//
// The fleet optionally includes HOSTILE tenants (scenarios/adversary.hpp):
// seeded fault injectors that hoard loans, never reap CQEs, flood their SQ,
// storm the doorbell, forge zc tokens, or crash mid-burst. Graceful
// degradation means all of that lands on the offender — its calls fail
// softly (-ENOBUFS/-EAGAIN/-EINVAL), its failures are accounted per cause
// in its TenantStats row — while the victims keep their SLO. Eviction then
// reclaims every resource the offender pinned.
//
// The fleet runs on the LockstepRig (scenarios/experiment.hpp): every app
// compartment, cVM1's stack loop and the wire peer take turns on the
// caller's thread, so a fleet run replays identically whatever the host
// load.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fstack/tenant.hpp"
#include "scenarios/adversary.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/scenario2.hpp"

namespace cherinet::scen {

enum class TenantWorkload : std::uint8_t {
  kEcho,     // echo server; the peer drives an iperf stream INTO it
  kIperf,    // iperf client streaming to the peer's server
  kMavlink,  // MAVLink v1 telemetry stream (heartbeat + attitude frames)
};
[[nodiscard]] const char* to_string(TenantWorkload w) noexcept;

struct Scenario3TenantSpec {
  std::string name;
  TenantWorkload workload = TenantWorkload::kIperf;
  fstack::TenantQuota quota{};  // default: unlimited (a trusted tenant)
  /// Set => this compartment runs the fault injector instead of a
  /// workload; `workload` is ignored.
  std::optional<HostileProfile> hostile;
};

struct Scenario3Options {
  std::vector<Scenario3TenantSpec> tenants;
  std::uint64_t bytes_per_tenant = 96 * 1024;
};

struct TenantOutcome {
  std::string name;
  TenantWorkload workload = TenantWorkload::kIperf;
  bool hostile = false;
  int tid = 0;
  std::uint64_t goodput_bytes = 0;  // victim workloads; 0 for adversaries
  fstack::TenantStats stats;        // stack-side census at harvest time
  HostileTenant::Census abuse;      // adversary-side census (hostile only)

  bool operator==(const TenantOutcome&) const = default;
};

struct Scenario3Outcome {
  std::vector<TenantOutcome> tenants;
  std::uint64_t evicted = 0;        // hostile tenants evicted at the end
  // Post-eviction stack baselines (the reclamation evidence).
  std::size_t pcbs_end = 0;
  std::size_t wheel_end = 0;
  std::uint32_t pool_available_end = 0;
  std::uint32_t pool_indirect_available_end = 0;

  bool operator==(const Scenario3Outcome&) const = default;
};

/// The tenant-aware control plane over shard 0 of a Scenario2Service.
/// Registration, eviction and census reads run UNDER THE SHARD MUTEX —
/// tenancy is orchestrator-assigned state; an app's tenant is fixed when
/// its proxy is built (Scenario2Service::make_proxy_ops(app, shard, tid)).
class Scenario3Service {
 public:
  explicit Scenario3Service(Scenario2Service& svc) : svc_(svc) {}

  /// Register a tenant row; returns tid >= 1.
  int register_tenant(std::string name, const fstack::TenantQuota& quota);

  /// Hard-evict a tenant: reclaim every PCB, wheel timer, loan,
  /// reservation, parked frame and pool buffer it pinned.
  int evict(int tid);

  /// Snapshot of the tenant's stack-side census.
  [[nodiscard]] fstack::TenantStats stats(int tid);

 private:
  Scenario2Service& svc_;
};

/// Run the fleet: one stack compartment, one wire peer, one app compartment
/// per tenant spec, in lockstep on the caller's thread. Victim goodput,
/// per-tenant censuses and post-eviction baselines come back in the outcome
/// for the SLO / reclamation gates; the same inputs give the same outcome.
Scenario3Outcome run_scenario3_fleet(const Scenario3Options& s3,
                                     const TestbedOptions& opt = {});

}  // namespace cherinet::scen
