// The modified musl libc facade cVMs link against.
//
// The paper replaces musl's `svc` with trampoline calls into the Intravisor
// (§III-B); baseline processes keep the direct syscall. MuslLibc exposes the
// handful of libc entry points the network stack actually uses — the clock,
// futex synchronization, console write and nanosleep — and issues them via
// whichever path the compartment is configured for, so application code is
// identical across Baseline / Scenario 1 / Scenario 2 (only linkage
// changes, exactly as in the paper).
#pragma once

#include <cstdint>

#include "intravisor/syscall_router.hpp"
#include "intravisor/trampoline.hpp"
#include "machine/cap_view.hpp"
#include "sim/cost_model.hpp"

namespace cherinet::iv {

class MuslLibc {
 public:
  /// Direct-syscall mode (Baseline processes).
  MuslLibc(SyscallRouter* router, const sim::CostModel* cost,
           machine::CapView scratch)
      : router_(router), cost_(cost), scratch_(scratch) {}

  /// Trampoline mode (cVMs).
  MuslLibc(Trampoline* trampoline, machine::CapView scratch)
      : trampoline_(trampoline), scratch_(scratch) {}

  /// clock_gettime(CLOCK_MONOTONIC_RAW): the kernel writes a timespec
  /// through the caller's capability; we read it back — the full path the
  /// paper's measurements include ("in cVMs we can't directly access the
  /// timers of the system", §IV).
  [[nodiscard]] std::uint64_t clock_gettime_mono_raw_ns();

  /// futex(FUTEX_WAIT): 0 woken, -EAGAIN value mismatch.
  int futex_wait(const machine::CapView& word, std::uint32_t expected);
  /// futex(FUTEX_WAKE): number of threads woken.
  int futex_wake(const machine::CapView& word, int count);

  /// write(2) to stdout/stderr via a capability-qualified buffer.
  std::int64_t write(int fd, const machine::CapView& buf, std::size_t n);

  void nanosleep_ns(std::uint64_t ns);

  [[nodiscard]] bool uses_trampoline() const noexcept {
    return trampoline_ != nullptr;
  }

 private:
  std::int64_t issue(SyscallRequest& req);

  SyscallRouter* router_ = nullptr;      // direct mode
  const sim::CostModel* cost_ = nullptr; // direct mode
  Trampoline* trampoline_ = nullptr;     // trampoline mode
  machine::CapView scratch_;             // timespec landing zone
};

}  // namespace cherinet::iv
