#include "intravisor/musl.hpp"

#include <cerrno>

#include "host/syscall_ids.hpp"

namespace cherinet::iv {

std::int64_t MuslLibc::issue(SyscallRequest& req) {
  if (trampoline_ != nullptr) return trampoline_->invoke(req);
  if (cost_ != nullptr) cost_->charge(cost_->direct_syscall);
  return router_->route(req);
}

std::uint64_t MuslLibc::clock_gettime_mono_raw_ns() {
  SyscallRequest req;
  req.nr = host::MuslSyscall::kClockGettime;
  req.args[0] = 4;  // CLOCK_MONOTONIC_RAW on Linux/musl
  req.cap = scratch_.window(0, 16);
  issue(req);
  const auto sec = scratch_.load<std::uint64_t>(0);
  const auto nsec = scratch_.load<std::uint64_t>(8);
  return sec * 1'000'000'000ull + nsec;
}

int MuslLibc::futex_wait(const machine::CapView& word,
                         std::uint32_t expected) {
  SyscallRequest req;
  req.nr = host::MuslSyscall::kFutex;
  req.args[1] = static_cast<std::uint64_t>(host::FutexOp::kWaitPrivate);
  req.args[2] = expected;
  req.cap = word;
  return static_cast<int>(issue(req));
}

int MuslLibc::futex_wake(const machine::CapView& word, int count) {
  SyscallRequest req;
  req.nr = host::MuslSyscall::kFutex;
  req.args[1] = static_cast<std::uint64_t>(host::FutexOp::kWakePrivate);
  req.args[2] = static_cast<std::uint64_t>(count);
  req.cap = word;
  return static_cast<int>(issue(req));
}

std::int64_t MuslLibc::write(int fd, const machine::CapView& buf,
                             std::size_t n) {
  SyscallRequest req;
  req.nr = host::MuslSyscall::kWrite;
  req.args[0] = static_cast<std::uint64_t>(fd);
  req.args[2] = n;
  req.cap = buf;
  return issue(req);
}

}  // namespace cherinet::iv
