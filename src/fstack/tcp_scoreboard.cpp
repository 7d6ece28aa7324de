#include "fstack/tcp_scoreboard.hpp"

#include <algorithm>

namespace cherinet::fstack {

void SackScoreboard::on_send(std::uint32_t seq, std::uint32_t len,
                             sim::Ns now) {
  if (len == 0) return;
  if (ranges_.capacity() == 0) ranges_.reserve(kMaxRanges);
  if (!ranges_.empty()) {
    Range& back = ranges_.back();
    if (back.flags == 0 && back.xmit == now && back.end == seq) {
      back.end += len;  // the same burst
      return;
    }
    reserve(1);
    if (ranges_.size() == kMaxRanges) merge(ranges_.size() - 2);
  }
  ranges_.push_back(Range{seq, seq + len, now, 0});
}

void SackScoreboard::on_retransmit(std::uint32_t seq, std::uint32_t len,
                                   sim::Ns now) {
  if (len == 0 || ranges_.empty()) return;
  reserve(2);
  const std::uint32_t end = seq + len;
  for (std::size_t i = find(seq); i < ranges_.size(); ++i) {
    if (seq_le(end, ranges_[i].start)) break;
    if (seq_lt(ranges_[i].start, seq) && split(i, seq)) ++i;
    // A range the board cannot split goes back in flight whole: RACK marks
    // what was not resent lost again once later data is delivered.
    if (seq_lt(end, ranges_[i].end)) split(i, end);
    Range& r = ranges_[i];
    r.xmit = now;
    set_flags(r, static_cast<std::uint8_t>((r.flags & ~kLost) | kRetrans));
  }
}

void SackScoreboard::mark_lost(std::uint32_t seq, std::uint32_t len) {
  if (len == 0 || ranges_.empty()) return;
  reserve(2);
  const std::uint32_t end = seq + len;
  for (std::size_t i = find(seq); i < ranges_.size(); ++i) {
    if (seq_le(end, ranges_[i].start)) break;
    if (ranges_[i].has(kSacked | kLost)) continue;
    if (seq_lt(ranges_[i].start, seq) && split(i, seq)) ++i;
    if (seq_lt(end, ranges_[i].end)) split(i, end);
    mark_lost_at(i);
  }
}

void SackScoreboard::mark_lost_at(std::size_t i) {
  Range& r = ranges_[i];
  if (r.has(kSacked)) return;
  set_flags(r, static_cast<std::uint8_t>(r.flags | kLost));
}

void SackScoreboard::mark_all_lost() {
  for (std::size_t i = 0; i < ranges_.size(); ++i) mark_lost_at(i);
}

void SackScoreboard::clear_sacks() {
  for (Range& r : ranges_) {
    set_flags(r, static_cast<std::uint8_t>(r.flags & ~kSacked));
  }
}

std::size_t SackScoreboard::first_lost() const noexcept {
  if (lost_ == 0) return ranges_.size();
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    if (ranges_[i].has(kLost)) return i;
  }
  return ranges_.size();
}

void SackScoreboard::clear() noexcept {
  ranges_.clear();
  sacked_ = 0;
  lost_ = 0;
}

std::size_t SackScoreboard::find(std::uint32_t seq) const noexcept {
  if (ranges_.empty()) return 0;
  // Offsets from the first byte order the ranges across a sequence wrap.
  const std::uint32_t base = ranges_.front().start;
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), seq - base,
      [base](std::uint32_t off, const Range& r) { return off < r.end - base; });
  return static_cast<std::size_t>(it - ranges_.begin());
}

bool SackScoreboard::split(std::size_t i, std::uint32_t at) {
  if (ranges_.size() >= kMaxRanges) return false;
  Range tail = ranges_[i];
  tail.start = at;
  ranges_[i].end = at;
  ranges_.insert(ranges_.begin() + static_cast<std::ptrdiff_t>(i) + 1, tail);
  return true;
}

void SackScoreboard::reserve(std::size_t need) {
  if (ranges_.size() + need <= kMaxRanges) return;
  std::size_t out = 0;
  for (std::size_t i = 1; i < ranges_.size(); ++i) {
    Range& last = ranges_[out];
    const Range& r = ranges_[i];
    if (r.flags == last.flags) {
      last.end = r.end;
      last.xmit = std::max(last.xmit, r.xmit);
    } else {
      ranges_[++out] = r;
    }
  }
  ranges_.resize(out + 1);
}

void SackScoreboard::merge(std::size_t i) {
  Range& a = ranges_[i];
  const Range b = ranges_[i + 1];
  unaccount(a);
  unaccount(b);
  constexpr std::uint8_t kBoth = kSacked | kLost;
  a.flags = static_cast<std::uint8_t>((a.flags & b.flags & kBoth) |
                                      ((a.flags | b.flags) & kRetrans));
  a.end = b.end;
  a.xmit = std::max(a.xmit, b.xmit);
  if (a.has(kSacked)) sacked_ += a.len();
  if (a.has(kLost)) lost_ += a.len();
  ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
}

void SackScoreboard::set_flags(Range& r, std::uint8_t flags) noexcept {
  unaccount(r);
  r.flags = flags;
  if (r.has(kSacked)) sacked_ += r.len();
  if (r.has(kLost)) lost_ += r.len();
}

void SackScoreboard::unaccount(const Range& r) noexcept {
  if (r.has(kSacked)) sacked_ -= r.len();
  if (r.has(kLost)) lost_ -= r.len();
}

}  // namespace cherinet::fstack
