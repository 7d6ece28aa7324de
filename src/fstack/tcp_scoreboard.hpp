// The sender's SACK scoreboard (RFC 6675) with each range's last transmit
// time (RFC 8985 RACK).
//
// The board covers the data in flight, [snd_una, snd_nxt) without the FIN,
// as contiguous byte ranges in sequence order. Every range carries the time
// it was last sent and three marks: SACKed (the receiver holds it), lost
// (presumed dropped and not yet sent again) and retransmitted. It counts
// bytes, not segments, so a TSO super-segment is one range until a SACK
// block or a loss mark splits it at the wire frame the receiver reported.
//
// Its size is bounded (kMaxRanges). Ranges sent in one burst merge, and
// when a split or an append finds no room, neighbours merge under rules
// that only ever forget: a merge keeps a SACK mark only where both sides
// had it, keeps the later transmit time, and keeps a loss mark only where
// both were lost. Forgetting costs a spurious retransmission at worst;
// nothing unsent or undelivered is ever marked delivered.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fstack/headers.hpp"
#include "sim/virtual_clock.hpp"

namespace cherinet::fstack {

// 32-bit sequence arithmetic (RFC 793).
[[nodiscard]] constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
[[nodiscard]] constexpr bool seq_le(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}
[[nodiscard]] constexpr bool seq_gt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) > 0;
}
[[nodiscard]] constexpr bool seq_ge(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) >= 0;
}

class SackScoreboard {
 public:
  /// Ranges the board may hold: a 64 KiB window of single-MSS bursts with
  /// every other frame lost still fits; beyond it neighbours merge.
  static constexpr std::size_t kMaxRanges = 96;

  static constexpr std::uint8_t kSacked = 1;   // the receiver holds it
  static constexpr std::uint8_t kLost = 2;     // dropped, not yet resent
  static constexpr std::uint8_t kRetrans = 4;  // sent more than once

  struct Range {
    std::uint32_t start = 0;
    std::uint32_t end = 0;  // one past the last byte
    sim::Ns xmit{0};        // last transmission
    std::uint8_t flags = 0;
    [[nodiscard]] std::uint32_t len() const noexcept { return end - start; }
    [[nodiscard]] bool has(std::uint8_t f) const noexcept {
      return (flags & f) != 0;
    }
  };

  [[nodiscard]] bool empty() const noexcept { return ranges_.empty(); }
  [[nodiscard]] std::span<const Range> ranges() const noexcept {
    return ranges_;
  }
  [[nodiscard]] std::uint32_t sacked_bytes() const noexcept { return sacked_; }
  [[nodiscard]] std::uint32_t lost_bytes() const noexcept { return lost_; }

  /// New data [seq, seq + len) left at `now`; seq is the board's end.
  void on_send(std::uint32_t seq, std::uint32_t len, sim::Ns now);
  /// [seq, seq + len) was sent again at `now`: it is in flight once more.
  void on_retransmit(std::uint32_t seq, std::uint32_t len, sim::Ns now);

  /// Cumulative ACK up to `una`. `delivered(range)` sees every acknowledged
  /// piece the receiver had not SACKed before, as it was before the ACK.
  template <class F>
  void ack(std::uint32_t una, F&& delivered) {
    std::size_t drop = 0;
    for (; drop < ranges_.size(); ++drop) {
      Range& r = ranges_[drop];
      if (seq_le(una, r.start)) break;
      if (seq_lt(una, r.end)) {  // partly acknowledged: trim in place
        Range piece = r;
        piece.end = una;
        if (!piece.has(kSacked)) delivered(piece);
        unaccount(piece);
        r.start = una;
        break;
      }
      if (!r.has(kSacked)) delivered(r);
      unaccount(r);
    }
    ranges_.erase(ranges_.begin(),
                  ranges_.begin() + static_cast<std::ptrdiff_t>(drop));
  }

  /// Mark the block SACKed. A block that is empty, reversed or reaches
  /// outside [first byte, end) is ignored whole (false). `delivered(range)`
  /// sees every piece newly marked, as it was before the mark.
  template <class F>
  bool sack(SackBlock b, F&& delivered) {
    if (ranges_.empty() || !seq_lt(b.left, b.right) ||
        seq_lt(b.left, ranges_.front().start) ||
        seq_gt(b.right, ranges_.back().end)) {
      return false;
    }
    reserve(2);  // a block splits at most two ranges
    for (std::size_t i = find(b.left); i < ranges_.size(); ++i) {
      if (seq_le(b.right, ranges_[i].start)) break;
      if (ranges_[i].has(kSacked)) continue;
      // Cut the range to the block; with no room left, the uncovered part
      // keeps the block's unmarked edge (the block shrinks, never grows).
      if (seq_lt(ranges_[i].start, b.left)) {
        if (!split(i, b.left)) continue;
        ++i;
      }
      if (seq_lt(b.right, ranges_[i].end) && !split(i, b.right)) break;
      delivered(ranges_[i]);
      set_flags(ranges_[i],
                static_cast<std::uint8_t>((ranges_[i].flags & ~kLost) |
                                          kSacked));
    }
    return true;
  }

  /// Mark [seq, seq + len) lost where it is neither SACKed nor already lost
  /// (a range the board cannot split is marked whole).
  void mark_lost(std::uint32_t seq, std::uint32_t len);
  /// Mark range `i` lost whole.
  void mark_lost_at(std::size_t i);
  /// Retransmission timeout: every byte the receiver has not SACKed is lost.
  void mark_all_lost();
  /// Forget every SACK mark (a receiver that does not deliver what it
  /// SACKed has reneged, RFC 2018 §8).
  void clear_sacks();
  /// The lowest range marked lost, or ranges().size() if none.
  [[nodiscard]] std::size_t first_lost() const noexcept;
  /// Drop everything (connection teardown).
  void clear() noexcept;

 private:
  /// Index of the range holding `seq` (ranges().size() past the end).
  [[nodiscard]] std::size_t find(std::uint32_t seq) const noexcept;
  /// Split range `i` at `at` (inside it); false when the board is full.
  bool split(std::size_t i, std::uint32_t at);
  /// When fewer than `need` ranges are free, merge every pair of
  /// neighbours with equal marks (the later transmit time wins).
  void reserve(std::size_t need);
  /// Merge range `i` with range `i + 1`, forgetting what they disagree on.
  void merge(std::size_t i);
  void set_flags(Range& r, std::uint8_t flags) noexcept;
  void unaccount(const Range& r) noexcept;

  std::vector<Range> ranges_;  // reserved to kMaxRanges on first send
  std::uint32_t sacked_ = 0;   // bytes marked kSacked
  std::uint32_t lost_ = 0;     // bytes marked kLost
};

}  // namespace cherinet::fstack
