// Hierarchical (cascading) timing wheel driven by the virtual clock — the
// C1M-scale replacement for walking every PCB on every loop turn.
//
// A stack serving a million mostly-idle connections has a million armed
// timers (idle timeouts, TIME_WAIT, the odd RTO) of which only a handful are
// due on any given iteration. The previous FfStack::process_timers was
// O(PCBs) per turn; this wheel makes a turn O(due + slots visited): timers
// register absolute virtual-time deadlines into 4 cascading levels of 64
// slots each, and expire() touches only the slots the clock actually swept
// past (the classic Varghese & Lauck scheme, as in BSD callout wheels and
// DPDK's rte_timer).
//
// Geometry: tick = 2^19 ns (~0.52 ms), levels span ~33 ms / ~2.1 s /
// ~2.2 min / ~2.4 h; deadlines beyond the top level park on an overflow
// list that is rescanned whenever the top-level cursor advances. Idle
// timeouts of up to ~2 h (the churn census parks 10^6 of them) fit inside
// level 3, so the overflow list is empty in steady state.
//
// Correctness contract with TwoStacks::pump_until (which advances the
// virtual clock to the earliest next_deadline() when nothing progresses):
//   * deadlines map to ticks by CEILING — a timer never fires early, and
//   * next_deadline() reports the owning TICK BOUNDARY (>= the armed
//     deadline), so advancing the clock to it always fires the timer —
//     floor mapping or exact-deadline reporting would let the clock stall
//     one tick short and spin forever.
// The price is sub-tick (< 0.52 ms) firing latency, noise against every
// protocol timeout in TcpConfig.
//
// Handles are generation-tagged slab indices: cancel() on a fired or
// re-armed Id is a safe no-op, which is what the per-PCB re-sync logic in
// FfStack wants (it blindly cancels the old registration on every change).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/virtual_clock.hpp"

namespace cherinet::fstack {

class TimerWheel {
 public:
  using Id = std::uint64_t;
  static constexpr Id kInvalidId = 0;

  static constexpr std::uint32_t kTickShift = 19;  // 2^19 ns per tick
  static constexpr std::uint32_t kSlotBits = 6;    // 64 slots per level
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  static constexpr std::uint32_t kLevels = 4;

  TimerWheel() {
    slots_.assign(kLevels * kSlots, -1);
    level_min_.fill(kNoMin);
    level_dirty_.fill(false);
  }

  /// Register `cookie` to fire once `now >= deadline`. Returns a handle for
  /// cancel(); arming is O(1). Deadlines at or before the current wheel
  /// time land on a ready list fired by the next expire() call.
  Id arm(sim::Ns deadline, std::uint64_t cookie);

  /// Disarm a handle. False (harmless) when the handle already fired, was
  /// cancelled, or was re-used by a later arm (generation mismatch).
  bool cancel(Id id);

  /// Advance wheel time to `now` and fire every due timer: fn(cookie) per
  /// expiry, called after the entry is unlinked (re-arming from inside fn
  /// is safe and lands in fresh slots). Returns the number fired.
  template <typename Fn>
  std::size_t expire(sim::Ns now, Fn&& fn) {
    collect_due(now, due_scratch_);
    for (const std::uint64_t cookie : due_scratch_) fn(cookie);
    const std::size_t n = due_scratch_.size();
    due_scratch_.clear();
    return n;
  }

  /// Tick boundary of the earliest armed timer (>= its actual deadline —
  /// see the pump_until contract above); nullopt when nothing is armed.
  ///
  /// O(1) in steady state: each level (and the overflow list) caches its
  /// minimum armed tick. link() folds a new entry into the cache for free;
  /// removing the cached minimum just marks the level dirty, and the next
  /// call recomputes that one level with the first-non-empty-slot ring scan
  /// (valid because every slot entry is strictly ahead of the cursor, so
  /// ring order is deadline order). The old behaviour — re-walking the
  /// first occupied slot's whole chain on EVERY idle stall, ~92 µs with
  /// 10^6 idle timers parked in one slot — is now paid only when
  /// the cached minimum actually left the level.
  [[nodiscard]] std::optional<sim::Ns> next_deadline() const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  struct Stats {
    std::uint64_t armed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cascaded = 0;  // entries re-filed into a lower level
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  // List heads are slab indices; -1 terminates. An entry lives on exactly
  // one list, named by `list`: a level*64+slot code, or one of the
  // sentinels below.
  static constexpr std::int16_t kListFree = -3;
  static constexpr std::int16_t kListReady = -2;
  static constexpr std::int16_t kListOverflow = -1;

  struct Entry {
    std::uint64_t cookie = 0;
    std::uint64_t dl_tick = 0;  // ceil(deadline / tick)
    std::uint32_t gen = 0;
    std::int32_t prev = -1;
    std::int32_t next = -1;
    std::int16_t list = kListFree;
  };

  void link(std::int32_t idx, std::int16_t list);
  void unlink(std::int32_t idx);
  void place(std::int32_t idx);  // file by dl_tick relative to cur_tick_
  void collect_due(sim::Ns now, std::vector<std::uint64_t>& due);

  // --- next_deadline() min-tick cache ---
  // Index kLevels aliases the overflow list; kNoMin = level empty. Mutable:
  // the recompute happens lazily inside the const next_deadline().
  static constexpr std::uint64_t kNoMin = ~0ull;
  /// Cache slot a linked-list code belongs to; -1 for ready/free (the ready
  /// list needs no cache — next_deadline answers cur_tick_ when non-empty).
  [[nodiscard]] static constexpr std::int32_t cache_of(
      std::int16_t list) noexcept {
    if (list >= 0) return list >> kSlotBits;  // level index
    return list == kListOverflow ? static_cast<std::int32_t>(kLevels) : -1;
  }
  void recompute_level_min(std::uint32_t cache) const;

  [[nodiscard]] std::int32_t* head_of(std::int16_t list) {
    if (list == kListReady) return &ready_head_;
    if (list == kListOverflow) return &overflow_head_;
    return &slots_[static_cast<std::size_t>(list)];
  }

  std::vector<Entry> slab_;
  std::vector<std::int32_t> slots_;  // kLevels * kSlots heads
  std::int32_t ready_head_ = -1;
  std::int32_t overflow_head_ = -1;
  std::int32_t free_head_ = -1;
  std::uint64_t cur_tick_ = 0;
  std::size_t size_ = 0;
  Stats stats_;
  std::vector<std::uint64_t> due_scratch_;
  mutable std::array<std::uint64_t, kLevels + 1> level_min_{};
  mutable std::array<bool, kLevels + 1> level_dirty_{};
};

}  // namespace cherinet::fstack
