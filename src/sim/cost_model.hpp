// Calibrated cost model for emulated privilege crossings.
//
// The paper measures three crossing costs on Arm Morello / CheriBSD:
//   * a direct syscall (baseline processes issue `svc` straight into the OS),
//   * the musl->Intravisor trampoline, ~125 ns *on top of* a direct syscall
//     (Fig. 4: Scenario 1 vs Baseline),
//   * the cross-compartment ff_* proxy jump, ~200 ns on top of baseline
//     (Fig. 5: Scenario 2 uncontended vs Baseline).
//
// Our emulation performs the real mechanical work of each crossing (register
// frame save, capability validation, DDC/PCC swap, sealed-entry check) which
// costs real nanoseconds, but a host x86 function call is cheaper than a
// Morello exception entry. The cost model tops each crossing up to the
// Morello-measured value with a calibrated busy-spin. Pass `disabled()` to
// measure the raw emulation instead; EXPERIMENTS.md reports both.
#pragma once

#include <chrono>
#include <cstdint>

namespace cherinet::sim {

struct CostModel {
  /// Master switch: false = never spin (raw emulation costs only).
  bool enabled = true;

  /// Kernel entry/exit for a direct (non-compartmentalized) syscall.
  std::chrono::nanoseconds direct_syscall{140};

  /// Extra indirection of the musl->Intravisor trampoline over a direct
  /// syscall: state save, proxy-table dispatch, PCC/DDC reload, `blrs`
  /// sealed-pair branch and return. Paper Fig. 4: ~125 ns.
  std::chrono::nanoseconds trampoline_extra{125};

  /// Extra cost of a cross-cVM function proxy (Scenario 2 ff_* wrappers)
  /// over an intra-compartment call: sealed-entry validation + two domain
  /// switches. Paper Fig. 5 implies ~75 ns on top of the trampoline delta.
  std::chrono::nanoseconds domain_switch_extra{75};

  /// Total cost of one trampolined crossing (kernel entry + trampoline
  /// indirections), charged once per Trampoline::invoke.
  [[nodiscard]] std::chrono::nanoseconds trampoline_crossing() const noexcept {
    return direct_syscall + trampoline_extra;
  }

  /// Morello-calibrated defaults (values above).
  [[nodiscard]] static CostModel morello() noexcept { return CostModel{}; }

  /// No added cost: measure the emulation itself.
  [[nodiscard]] static CostModel disabled() noexcept {
    CostModel m;
    m.enabled = false;
    return m;
  }

  /// Burn approximately `d` of real CPU time (no-op when disabled).
  void charge(std::chrono::nanoseconds d) const noexcept;
};

}  // namespace cherinet::sim
