// The musl -> Intravisor trampoline.
//
// In the paper's design (§III-B) cVMs have no direct path to the host OS:
// musl's `svc` instructions are replaced with trampoline functions that
// (1) pass through the syscall ID and arguments, (2) store register state,
// (3) load the Intravisor's PCC and DDC, and (4) enter it with a sealed
// `blrs` branch. We reproduce each step: a register-frame save, capability
// validation of pointer arguments, the context switch into the Intravisor
// domain, and the calibrated Morello crossing cost (~125 ns over a direct
// syscall, paper Fig. 4).
#pragma once

#include <cstdint>

#include "intravisor/syscall_router.hpp"
#include "machine/context.hpp"
#include "sim/cost_model.hpp"

namespace cherinet::iv {

class Trampoline {
 public:
  Trampoline(SyscallRouter* router, const machine::CompartmentContext* caller,
             const machine::CompartmentContext* intravisor_ctx,
             const sim::CostModel* cost)
      : router_(router),
        caller_(caller),
        iv_ctx_(intravisor_ctx),
        cost_(cost) {}

  /// Full trampolined syscall: save state, validate, cross, route, return.
  std::int64_t invoke(SyscallRequest& req);

  [[nodiscard]] std::uint64_t crossings() const noexcept { return crossings_; }

 private:
  SyscallRouter* router_;
  const machine::CompartmentContext* caller_;
  const machine::CompartmentContext* iv_ctx_;
  void validate_boundary_cap(const SyscallRequest& req) const;

  const sim::CostModel* cost_;
  std::uint64_t crossings_ = 0;
};

}  // namespace cherinet::iv
