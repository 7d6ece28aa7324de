// Virtual (simulated) time base for the emulated testbed.
//
// Bandwidth experiments in the paper are limited by wire/bus physics, not by
// host CPU speed. We therefore account link pacing in *virtual* nanoseconds:
// the wire and PCI-bus models stamp each frame with its serialization /
// arbitration completion time and the clock advances monotonically to those
// stamps. A single-threaded driver (scen::LockstepRig, scen::TwoStacks, the
// e2e session) moves it to the earliest pending deadline only once nothing
// progressed at the current instant. This makes goodput numbers
// deterministic and independent of the emulation host.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace cherinet::sim {

/// Nanosecond tick type used for all virtual-time arithmetic.
using Ns = std::chrono::nanoseconds;

/// Sentinel for "no deadline" (park forever until kicked).
inline constexpr Ns kNever = Ns::max();

/// Monotonic virtual clock shared by every component of one emulated testbed.
/// It is only ever moved forward: advancing to an earlier instant is a no-op.
class VirtualClock {
 public:
  VirtualClock() = default;
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  /// Current virtual time since testbed reset.
  [[nodiscard]] Ns now() const noexcept { return now_; }

  /// Advance the clock to at least `t`.
  void advance_to(Ns t) noexcept { now_ = std::max(now_, t); }

 private:
  Ns now_{0};
};

}  // namespace cherinet::sim
