// The syscall numbers cVM payloads issue.
//
// cVM payloads are linked against musl libc, which issues Linux (aarch64)
// syscall numbers; the host OS is CheriBSD, which speaks FreeBSD numbers
// and, for some facilities, entirely different primitives (musl thread
// synchronization uses futex(2); CheriBSD provides _umtx_op(2) — the
// translation the paper calls out explicitly in §III-B). The Intravisor's
// SyscallRouter switches on the musl numbers and calls the HostOS primitive
// each one maps to, so only the musl side is numbered here.
#pragma once

#include <cstdint>

namespace cherinet::host {

/// Linux aarch64 numbers as used by musl (the cVM side of the trampoline).
enum class MuslSyscall : std::uint32_t {
  kWrite = 64,
  kFutex = 98,
  kClockGettime = 113,
};

/// Futex operation codes (subset; see futex(2)).
enum class FutexOp : std::uint32_t {
  kWait = 0,
  kWake = 1,
  kWaitPrivate = 128,
  kWakePrivate = 129,
};

}  // namespace cherinet::host
