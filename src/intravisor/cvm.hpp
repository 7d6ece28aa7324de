// capability-VM: an isolated application component hosted by the
// Intravisor (paper §II-B).
//
// Each cVM owns: a bounded heap region (its DDC), a trampoline into the
// Intravisor, and a musl libc instance wired to that trampoline. Its body
// runs on the caller's thread inside the compartment context; a capability
// fault unwinds to the cVM boundary where the Intravisor contains it
// (records a FaultReport and marks the cVM dead — sibling compartments are
// unaffected, which is the security claim Fig. 3 demonstrates).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "intravisor/musl.hpp"
#include "intravisor/trampoline.hpp"
#include "machine/cap_view.hpp"
#include "machine/context.hpp"
#include "machine/heap.hpp"

namespace cherinet::iv {

class Intravisor;

struct CvmConfig {
  std::string name;
  std::size_t heap_bytes = 8u << 20;
};

class CVM {
 public:
  CVM(Intravisor& iv, CvmConfig cfg, int id);
  CVM(const CVM&) = delete;
  CVM& operator=(const CVM&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return cfg_.name; }
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const machine::CompartmentContext& context() const noexcept {
    return ctx_;
  }
  [[nodiscard]] machine::CompartmentHeap& heap() noexcept { return *heap_; }
  [[nodiscard]] MuslLibc& libc() noexcept { return *libc_; }
  [[nodiscard]] Trampoline& trampoline() noexcept { return *tramp_; }
  [[nodiscard]] Intravisor& intravisor() noexcept { return iv_; }

  /// Allocate from the cVM heap (bounded sub-capability of the DDC).
  [[nodiscard]] machine::CapView alloc(std::size_t bytes) {
    return heap_->alloc_view(bytes);
  }

  /// Run the cVM body inline (caller thread) inside the compartment
  /// context, with Intravisor fault containment at the boundary: a
  /// capability fault ends the body, marks the cVM faulted and is logged;
  /// the caller's context is restored either way.
  void run(const std::function<void()>& body);

  [[nodiscard]] bool faulted() const noexcept { return faulted_; }

  /// Execute `f` inline (caller thread) inside this compartment's context.
  /// Faults propagate to the caller — used by measurement probes and tests
  /// that assert on the fault itself.
  template <typename F>
  decltype(auto) enter(F&& f) {
    machine::ExecutionContext::Scope scope(ctx_);
    return std::forward<F>(f)();
  }

 private:
  Intravisor& iv_;
  CvmConfig cfg_;
  int id_;
  machine::CompartmentContext ctx_;
  std::unique_ptr<machine::CompartmentHeap> heap_;
  std::unique_ptr<Trampoline> tramp_;
  std::unique_ptr<MuslLibc> libc_;
  bool faulted_ = false;
};

}  // namespace cherinet::iv
