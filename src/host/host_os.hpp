// Minimal CheriBSD-like host OS service layer.
//
// The paper's stack touches the kernel only for timers, synchronization and
// the console once DPDK owns the NIC (everything else is user-space polling)
// — so that is the whole surface we provide. Callers do not reach these
// methods directly: baseline processes go through a direct-syscall shim,
// cVMs through the Intravisor trampoline (which also translates musl's
// futex to our _umtx_op, as on the real system).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "host/umtx.hpp"
#include "sim/virtual_clock.hpp"

namespace cherinet::host {

class HostOS {
 public:
  /// `vclock` may be null when no virtual-time components exist.
  HostOS(cheri::TaggedMemory* mem, sim::VirtualClock* vclock)
      : umtx_(mem), vclock_(vclock) {}

  // --- clock_gettime(2) on CLOCK_MONOTONIC_RAW, the clock the paper
  //     measures with and the only one a cVM asks for ---
  [[nodiscard]] static std::uint64_t clock_gettime_ns();

  // --- _umtx_op(2) ---
  UmtxTable::WaitResult umtx_wait_uint(const cheri::Capability& auth,
                                       std::uint64_t addr,
                                       std::uint32_t expected) {
    return umtx_.wait_uint(auth, addr, expected);
  }
  int umtx_wake(std::uint64_t addr, int count) {
    return umtx_.wake(addr, count);
  }
  [[nodiscard]] UmtxTable& umtx() noexcept { return umtx_; }

  // --- write(2) to the console fd ---
  void console_write(std::string_view text) { console_.emplace_back(text); }
  [[nodiscard]] const std::vector<std::string>& console_log() const noexcept {
    return console_;
  }

  [[nodiscard]] sim::VirtualClock* vclock() const noexcept { return vclock_; }

 private:
  UmtxTable umtx_;
  sim::VirtualClock* vclock_;
  std::vector<std::string> console_;
};

}  // namespace cherinet::host
