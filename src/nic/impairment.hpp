// netem-style wire impairment: the knob reference.
//
// An ImpairmentProfile describes one DIRECTION of hostility (frames
// transmitted by one wire endpoint), applied between serialization and
// delivery — after the testbed's deterministic pacing computed the nominal
// arrival time, before the frame lands in the peer's inbox. Every decision
// is drawn from a seedable xorshift-family PRNG advanced once per frame per
// knob, so a run replays bit-for-bit in virtual time: same seed => same
// drops, same duplicates, same bit flips, same per-cause counters.
//
// Knobs (all independent; defaults = transparent wire):
//   seed               PRNG seed. Two engines with the same seed and the
//                      same frame sequence make identical decisions.
//   loss               independent per-frame drop probability [0,1].
//   ge_p_good_to_bad / Gilbert-Elliott two-state burst loss: per-frame
//   ge_p_bad_to_good   transition probabilities between the good and bad
//                      channel states.
//   ge_loss_good /     drop probability while in each state (classic GE:
//   ge_loss_bad        good ~ 0, bad ~ 1 gives bursty outages whose mean
//                      length is 1/ge_p_bad_to_good frames).
//   duplicate          per-frame probability the frame is delivered twice
//                      (the copy arrives immediately after the original).
//   reorder /          with probability `reorder` a frame is HELD BACK
//   reorder_hold /     until `reorder_hold` later frames of the same
//   reorder_extra      direction have passed it, then delivered
//                      `reorder_extra` after the last overtaker. A held
//                      frame is never stranded: if the overtakers don't
//                      come, it is released at its original arrival plus
//                      `reorder_extra` (the deadline next_delivery reports).
//   corrupt            per-frame probability of a single random bit flip
//                      anywhere in the frame (header, payload or FCS) —
//                      the receiving MAC's CRC check must catch it; the
//                      wire itself still delivers the damaged bytes.
//   jitter             uniform extra delivery delay in [0, jitter]. Large
//                      jitter relative to frame spacing reorders naturally
//                      (delivery is arrival-sorted, not FIFO).
//
// Per-cause counters (surfaced through Wire::Stats on the transmitting
// side): impair_loss, impair_burst_loss, impair_dups, impair_reorders,
// impair_corrupts, impair_jittered.
//
// The engine is pure decision logic — it owns no frames and no clocks. The
// Wire applies the verdicts (drop, duplicate insertion, bit flip, held
// queue, arrival-sorted inbox insert).
#pragma once

#include <cstdint>

#include "sim/virtual_clock.hpp"

namespace cherinet::nic {

struct ImpairmentProfile {
  std::uint64_t seed = 1;

  double loss = 0.0;

  double ge_p_good_to_bad = 0.0;
  double ge_p_bad_to_good = 0.0;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;

  double duplicate = 0.0;

  double reorder = 0.0;
  std::uint32_t reorder_hold = 3;
  sim::Ns reorder_extra{0};

  double corrupt = 0.0;

  sim::Ns jitter{0};

  /// True when any knob deviates from the transparent wire.
  [[nodiscard]] bool enabled() const noexcept {
    return loss > 0.0 || ge_p_good_to_bad > 0.0 || duplicate > 0.0 ||
           reorder > 0.0 || corrupt > 0.0 || jitter.count() > 0;
  }

  /// Uniform loss at probability `p`, everything else transparent.
  [[nodiscard]] static ImpairmentProfile uniform_loss(double p,
                                                      std::uint64_t seed = 1) {
    ImpairmentProfile prof;
    prof.loss = p;
    prof.seed = seed;
    return prof;
  }

  /// Classic Gilbert-Elliott outage bursts: mean burst `1/p_recover` frames
  /// entered at rate `p_enter`, lossless in the good state.
  [[nodiscard]] static ImpairmentProfile gilbert_elliott(
      double p_enter, double p_recover, std::uint64_t seed = 1) {
    ImpairmentProfile prof;
    prof.ge_p_good_to_bad = p_enter;
    prof.ge_p_bad_to_good = p_recover;
    prof.ge_loss_good = 0.0;
    prof.ge_loss_bad = 1.0;
    prof.seed = seed;
    return prof;
  }
};

/// Per-frame verdict: what the Wire must do with one transmitted frame.
struct ImpairmentVerdict {
  bool drop = false;        // uniform-loss drop
  bool burst_drop = false;  // Gilbert-Elliott bad-state drop
  bool duplicate = false;
  bool reorder = false;          // hold back behind `hold_frames` overtakers
  std::uint32_t hold_frames = 0;
  sim::Ns extra_delay{0};        // jitter (and reorder_extra on release)
  bool corrupt = false;
  std::uint64_t corrupt_bit = 0;  // uniform draw; Wire reduces mod bit count
};

/// Deterministic per-direction impairment decision engine (splitmix64).
class ImpairmentEngine {
 public:
  ImpairmentEngine() = default;

  void configure(const ImpairmentProfile& p) {
    prof_ = p;
    rng_state_ = p.seed ? p.seed : 0x9E3779B97F4A7C15ull;
    ge_bad_ = false;
  }

  [[nodiscard]] const ImpairmentProfile& profile() const noexcept {
    return prof_;
  }
  [[nodiscard]] bool enabled() const noexcept { return prof_.enabled(); }
  [[nodiscard]] bool in_burst() const noexcept { return ge_bad_; }

  /// Advance the PRNG and decide the fate of the next transmitted frame.
  /// Knob order is fixed (GE state, burst loss, uniform loss, duplicate,
  /// reorder, corrupt, jitter) so counters replay exactly per seed.
  [[nodiscard]] ImpairmentVerdict next_frame();

 private:
  [[nodiscard]] std::uint64_t next_u64();
  [[nodiscard]] double draw() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  ImpairmentProfile prof_;
  std::uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;
  bool ge_bad_ = false;
};

}  // namespace cherinet::nic
