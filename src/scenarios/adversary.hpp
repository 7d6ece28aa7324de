// Hostile-tenant fault injector (Scenario 3).
//
// A HostileTenant is a step-driven app compartment that ABUSES the ff_*
// boundary in one seeded, reproducible way. Each profile targets one of the
// shared resources the v9 tenant quotas bound, so the fleet harness and the
// BENCH_tenants gates can prove per-profile graceful degradation: the
// adversary's own calls fail (-ENOBUFS/-EINVAL/throttled), its failures are
// accounted per cause in its TenantStats row, and its victims' goodput
// stays within the SLO.
//
// The injector drives only the public application surface (apps::FfOps +
// its own FfUring ring memory) — it has no privileged handle into the
// stack, exactly like a real tenant compartment gone rogue.
#pragma once

#include <cstdint>

#include "apps/ff_ops.hpp"
#include "fstack/uring.hpp"

namespace cherinet::scen {

enum class HostileProfile : std::uint8_t {
  kHoard,   // pins zc TX reservations (OP_ZC_ALLOC) and never releases
  kNoReap,  // arms a multishot accept, fills its CQ, never reaps a CQE
  kFlood,   // keeps its SQ saturated with NOPs to eat the drain budget
  kStorm,   // rings the doorbell on every step, mostly with nothing queued
  kForge,   // submits forged / replayed / neighbour-guessed zc tokens
  kCrash,   // floods and hoards, then dies mid-burst leaving it all pinned
};
[[nodiscard]] const char* to_string(HostileProfile p) noexcept;

class HostileTenant {
 public:
  /// What the injector observed of its own abuse (the stack-side truth
  /// lives in the tenant's TenantStats row).
  struct Census {
    std::uint64_t steps = 0;
    std::uint64_t submits = 0;          // SQEs pushed
    std::uint64_t doorbells = 0;        // doorbell crossings made
    std::uint64_t rejects = 0;          // negative CQE results reaped
    std::uint64_t reservations = 0;     // zc tokens currently hoarded
    bool crashed = false;               // kCrash reached its drop-dead step

    bool operator==(const Census&) const = default;
  };

  /// `ring_mem` must hold FfUring::bytes_for(sq, cq) bytes of this
  /// tenant's own memory. `listen_port` is used by kNoReap (it needs a
  /// listener to arm); `seed` makes every forged token and abuse cadence
  /// reproducible.
  HostileTenant(apps::FfOps* ops, machine::CapView ring_mem,
                std::uint32_t sq_capacity, std::uint32_t cq_capacity,
                HostileProfile profile, std::uint64_t seed,
                std::uint16_t listen_port = 0);
  ~HostileTenant();

  /// One abuse iteration. Returns true if any call was made (a crashed
  /// kCrash tenant returns false forever — its state stays pinned until
  /// the control plane evicts it).
  bool step();

  /// The attached ring's id (for the control plane to bind the tenant), or
  /// -errno if the attach failed.
  [[nodiscard]] int ring_id() const noexcept { return ring_id_; }
  [[nodiscard]] const Census& census() const noexcept { return census_; }
  [[nodiscard]] HostileProfile profile() const noexcept { return profile_; }

 private:
  std::uint64_t next_rand();
  void reap_all();
  void push_and_bell(const fstack::FfUringSqe& e);

  apps::FfOps* ops_;
  fstack::FfUring ring_;
  int ring_id_ = -1;
  HostileProfile profile_;
  std::uint64_t rng_;
  std::uint16_t listen_port_;
  int listen_fd_ = -1;
  int victim_fd_ = -1;  // kForge: a valid fd to replay tokens against
  bool armed_ = false;
  std::uint64_t real_token_ = 0;  // kForge: one honestly-earned token base
  Census census_;
};

}  // namespace cherinet::scen
