// The Intravisor's syscall proxy table.
//
// cVM payloads issue musl/Linux-numbered syscalls; the router translates
// each to its CheriBSD equivalent and executes it against the host service
// layer. This is the "proxy function that translates musl libc calls into
// CheriBSD libc equivalents" of paper §III-B — most prominently
// futex(2) -> _umtx_op(2). Baseline (non-CHERI) processes use the same
// router directly (their shim charges only the direct-syscall cost and
// performs no trampoline crossing).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>

#include "host/host_os.hpp"
#include "host/syscall_ids.hpp"
#include "machine/cap_view.hpp"

namespace cherinet::iv {

/// Register image of a syscall as it leaves musl: number + six integer
/// arguments, plus the capability the hybrid ABI carries for the one
/// pointer argument these calls take (buffer / futex word / timespec out).
struct SyscallRequest {
  host::MuslSyscall nr{};
  std::array<std::uint64_t, 6> args{};
  std::optional<machine::CapView> cap;
};

class SyscallRouter {
 public:
  explicit SyscallRouter(host::HostOS* os) : os_(os) {}

  /// Dispatch a translated syscall. Returns the syscall result (>= 0) or
  /// -errno. Capability checks inside fault like hardware (CapFault).
  std::int64_t route(SyscallRequest& req);

  [[nodiscard]] host::HostOS& os() noexcept { return *os_; }
  [[nodiscard]] std::uint64_t futex_translations() const noexcept {
    return futex_translated_.load(std::memory_order_relaxed);
  }

 private:
  host::HostOS* os_;
  std::atomic<std::uint64_t> futex_translated_{0};
};

}  // namespace cherinet::iv
