#include "intravisor/intravisor.hpp"

#include <cerrno>
#include <sstream>

#include "host/syscall_ids.hpp"

namespace cherinet::iv {

std::string FaultReport::to_console() const {
  std::ostringstream os;
  os << "[" << cvm_name << "] " << message << "\n"
     << "[intravisor] capability exception (" << cheri::to_string(kind)
     << ") at 0x" << std::hex << address << std::dec << " — compartment '"
     << cvm_name << "' terminated; system continues";
  return os.str();
}

Intravisor::Intravisor() : Intravisor(Config{}) {}

Intravisor::Intravisor(Config cfg)
    : as_(cfg.memory_bytes),
      cost_(cfg.cost),
      host_(&as_.mem(), cfg.vclock),
      router_(&host_),
      entries_(as_, &cost_) {
  ctx_.name = "intravisor";
  ctx_.cvm_id = -1;
  ctx_.ddc = as_.root();
  ctx_.pcc = as_.root().with_perms(cheri::PermSet::code() |
                                   cheri::PermSet{cheri::Perm::kSystem});
}

CVM& Intravisor::create_cvm(const std::string& name, std::size_t heap_bytes) {
  CvmConfig cfg;
  cfg.name = name;
  cfg.heap_bytes = heap_bytes;
  cvms_.push_back(
      std::make_unique<CVM>(*this, cfg, static_cast<int>(cvms_.size())));
  return *cvms_.back();
}

machine::CapView Intravisor::grant_shared(std::size_t bytes,
                                          const std::string& name) {
  return machine::CapView(
      &as_.mem(), as_.carve(bytes, cheri::PermSet::data_rw(), name));
}

void Intravisor::record_fault(FaultReport report) {
  host_.console_write(report.to_console());
  std::lock_guard lk(fault_mu_);
  faults_.push_back(std::move(report));
}

std::vector<FaultReport> Intravisor::fault_log() const {
  std::lock_guard lk(fault_mu_);
  return faults_;
}

// ---------------------------------------------------------------------------
// SyscallRouter implementation (the proxy table proper).
// ---------------------------------------------------------------------------

std::int64_t SyscallRouter::route(SyscallRequest& req) {
  using host::FutexOp;
  using host::MuslSyscall;

  switch (req.nr) {
    case MuslSyscall::kClockGettime: {
      // musl clock_gettime -> CheriBSD SYS_clock_gettime (232). The result
      // timespec is written through the caller's capability.
      if (!req.cap.has_value()) return -EFAULT;
      const std::uint64_t ns =
          os_->clock_gettime_ns(host::ClockId::kMonotonicRaw);
      req.cap->store<std::uint64_t>(0, ns / 1'000'000'000ull);
      req.cap->store<std::uint64_t>(8, ns % 1'000'000'000ull);
      return 0;
    }
    case MuslSyscall::kFutex: {
      // The paper's flagship translation: musl futex -> CheriBSD _umtx_op.
      if (!req.cap.has_value()) return -EFAULT;
      futex_translated_.fetch_add(1, std::memory_order_relaxed);
      const auto op = static_cast<FutexOp>(req.args[1]);
      switch (op) {
        case FutexOp::kWait:
        case FutexOp::kWaitPrivate: {
          const auto r = os_->umtx_wait_uint(
              req.cap->cap(), req.cap->address(),
              static_cast<std::uint32_t>(req.args[2]));
          return r == host::UmtxTable::WaitResult::kValueChanged ? -EAGAIN : 0;
        }
        case FutexOp::kWake:
        case FutexOp::kWakePrivate:
          // Wake needs no dereference, but the capability still names the
          // word (kernel keys the sleep queue by physical address).
          return os_->umtx_wake(req.cap->address(),
                                static_cast<int>(req.args[2]));
      }
      return -ENOSYS;
    }
    case MuslSyscall::kWrite: {
      if (!req.cap.has_value()) return -EFAULT;
      const std::size_t n = req.args[2];
      std::string text(n, '\0');
      req.cap->read(0, std::as_writable_bytes(std::span{text.data(), n}));
      os_->console_write(text);
      return static_cast<std::int64_t>(n);
    }
    case MuslSyscall::kNanosleep: {
      os_->nanosleep_ns(req.args[0]);
      return 0;
    }
    case MuslSyscall::kGetpid:
      return 1000;
  }
  return -ENOSYS;
}

}  // namespace cherinet::iv
