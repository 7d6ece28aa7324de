#include "intravisor/trampoline.hpp"

#include "cheri/fault.hpp"

namespace cherinet::iv {

namespace {
/// Simulated register-frame save/restore: the trampoline stores the caller's
/// general-purpose state before reloading PCC/DDC (paper §III-B). The
/// volatile sink prevents the compiler from eliding the copies, so the
/// emulated crossing has a real, measurable cost like the hardware sequence.
struct RegisterFrame {
  std::uint64_t x[31];
};

void save_frame(RegisterFrame& f) {
  volatile std::uint64_t* sink = f.x;
  for (std::uint64_t i = 0; i < 31; ++i) sink[i] = i;
}
}  // namespace

// Validate the capability argument at the boundary: the Intravisor will
// dereference it on the caller's behalf, so it must be a valid, unsealed
// capability — the cVM cannot smuggle authority it does not hold.
void Trampoline::validate_boundary_cap(const SyscallRequest& req) const {
  using cheri::CapFault;
  using cheri::FaultKind;
  if (!req.cap.has_value()) return;
  const cheri::Capability& c = req.cap->cap();
  if (!c.tag()) {
    throw CapFault(FaultKind::kTagViolation, c.address(), 0, c.to_string(),
                   "trampoline: untagged pointer argument");
  }
  if (c.is_sealed()) {
    throw CapFault(FaultKind::kSealViolation, c.address(), 0, c.to_string(),
                   "trampoline: sealed pointer argument");
  }
}

std::int64_t Trampoline::invoke(SyscallRequest& req) {
  RegisterFrame frame;
  save_frame(frame);

  validate_boundary_cap(req);

  ++crossings_;
  if (cost_ != nullptr) cost_->charge(cost_->trampoline_crossing());

  // Enter the Intravisor domain (PCC/DDC reload via blrs on hardware).
  machine::ExecutionContext::Scope scope(*iv_ctx_);
  return router_->route(req);
}

}  // namespace cherinet::iv
