// Full-duplex point-to-point Ethernet wire with virtual-time pacing.
//
// Each direction serializes frames at the configured line rate including
// preamble/FCS/inter-frame-gap overhead, then delivers after the propagation
// latency. If an endpoint's card sits behind a SharedBus (the dual-port PCI
// card), the frame's DMA slots are reserved *before* wire serialization —
// lossless backpressure that reproduces the paper's clean PCI-limited
// plateaus (see shared_bus.hpp).
//
// Hostility is injected between serialization and delivery by a per-
// direction netem-style impairment stage (nic/impairment.hpp): uniform and
// Gilbert-Elliott burst loss, duplication, hold-back-N reordering, bit-flip
// corruption (the receiving MAC's FCS check must catch it) and delay
// jitter, all replayable from a seed. Delivery is arrival-SORTED, not FIFO:
// jitter and reordering insert frames by arrival time, and `poll` /
// `next_delivery` see the earliest undelivered arrival either way. The
// legacy `set_loss` hook survives as a surgical per-frame shim (it runs
// before the impairment stage and indexes real transmit attempts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "nic/impairment.hpp"
#include "nic/shared_bus.hpp"
#include "sim/testbed.hpp"
#include "sim/virtual_clock.hpp"

namespace cherinet::nic {

/// An L2 frame on the wire: header + payload + FCS (appended by the MAC).
struct Frame {
  std::vector<std::byte> data;  // includes the 4-byte FCS at the end

  [[nodiscard]] std::size_t size() const noexcept { return data.size(); }
};

class Wire {
 public:
  /// Whoever drives `clock` polls both sides and advances it to the
  /// earliest next_delivery; the wire wakes no one. The second parameter
  /// is an unused slot kept for existing callers, which pass nullptr.
  Wire(sim::VirtualClock* clock, std::nullptr_t, const sim::Testbed& tb)
      : clock_(clock), tb_(tb) {}

  /// Attach endpoint `side` (0/1) to a shared host bus; `side`'s transmits
  /// reserve kTx on its own bus and kRx on the peer's bus.
  void set_bus(int side, SharedBus* bus) { ep_[side].bus = bus; }

  /// Decide per-frame drops (true = drop). Index counts frames per side.
  /// Kept as the surgical shim for single-frame protocol tests; runs before
  /// the impairment stage.
  using LossFn = std::function<bool(int side, std::uint64_t tx_index)>;
  void set_loss(LossFn fn) { loss_ = std::move(fn); }

  /// Impair frames transmitted BY `side` (seed-deterministic; see
  /// impairment.hpp for the knob reference). Resets the engine's PRNG and
  /// burst state. A default-constructed profile restores the clean wire.
  void set_impairment(int side, const ImpairmentProfile& profile);

  /// Transmit `frame` out of endpoint `side`, available for DMA at `ready`.
  void transmit(int side, Frame frame, sim::Ns ready);

  /// Frames whose arrival time has passed at endpoint `side`.
  [[nodiscard]] std::vector<Frame> poll(int side);

  /// Earliest undelivered arrival at `side` (the poller's next deadline).
  [[nodiscard]] std::optional<sim::Ns> next_delivery(int side) const;

  struct Stats {
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t dropped = 0;  // all causes: set_loss + impairment drops
    // Per-cause impairment census (counted on the transmitting side).
    std::uint64_t impair_loss = 0;        // uniform-probability drops
    std::uint64_t impair_burst_loss = 0;  // Gilbert-Elliott bad-state drops
    std::uint64_t impair_dups = 0;
    std::uint64_t impair_reorders = 0;
    std::uint64_t impair_corrupts = 0;
    std::uint64_t impair_jittered = 0;
    // Lane time idle between one frame's end and the next frame's start
    // (the stall census: a sender waiting on ACKs shows up here).
    std::uint64_t idle_ns = 0;
  };
  [[nodiscard]] Stats stats(int side) const;

  [[nodiscard]] const sim::Testbed& testbed() const noexcept { return tb_; }
  [[nodiscard]] sim::VirtualClock* clock() const noexcept { return clock_; }

 private:
  struct InFlight {
    sim::Ns arrive;
    Frame frame;
  };
  /// A reorder-held frame: released after `remaining` later same-direction
  /// frames pass it, or unconditionally at `deadline` (never stranded).
  struct Held {
    sim::Ns deadline;
    Frame frame;
    std::uint32_t remaining;
  };
  struct Endpoint {
    sim::Ns lane_free{0};         // outbound serialization horizon
    std::deque<InFlight> inbox;   // frames heading *to* this endpoint
    std::vector<Held> held;       // reorder hold-back, same direction
    SharedBus* bus = nullptr;
    Stats stats;
    std::uint64_t tx_index = 0;
    ImpairmentEngine impair;      // impairs this endpoint's TRANSMITS
  };

  static void insert_sorted(Endpoint& ep, sim::Ns arrive, Frame frame);
  static void release_due_held(Endpoint& ep, sim::Ns now);

  sim::VirtualClock* clock_;
  sim::Testbed tb_;
  Endpoint ep_[2];
  LossFn loss_;
};

}  // namespace cherinet::nic
