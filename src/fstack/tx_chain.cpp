#include "fstack/tx_chain.hpp"

#include <algorithm>
#include <stdexcept>

#include "fstack/checksum.hpp"

namespace cherinet::fstack {

TxChain::TxChain(TxChain&& other) noexcept
    : ring_(std::move(other.ring_)),
      pool_(other.pool_),
      stats_(other.stats_),
      cache_csums_(other.cache_csums_),
      segs_(std::move(other.segs_)),
      used_(other.used_) {
  other.segs_.clear();
  other.used_ = 0;
  other.pool_ = nullptr;
  other.cursor_ = Cursor{};
}

TxChain& TxChain::operator=(TxChain&& other) noexcept {
  if (this != &other) {
    release_all();
    ring_ = std::move(other.ring_);
    pool_ = other.pool_;
    stats_ = other.stats_;
    cache_csums_ = other.cache_csums_;
    segs_ = std::move(other.segs_);
    used_ = other.used_;
    other.segs_.clear();
    other.used_ = 0;
    other.pool_ = nullptr;
    other.cursor_ = Cursor{};
  }
  return *this;
}

void TxChain::release_all() {
  for (Seg& s : segs_) {
    if (s.m != nullptr && pool_ != nullptr) pool_->release_tx(s.m);
  }
  segs_.clear();
  // The copy ring's bytes are dropped with their segments.
  if (ring_.used() > 0) ring_.consume(ring_.used());
  used_ = 0;
  cursor_ = Cursor{};
}

namespace {
// Copy-backed slices below this size coalesce into their predecessor (sums
// composing via checksum_combine), so a small-write workload cannot shatter
// the chain into more extents per segment than gather() can carry. An
// MSS-sized element stays its own slice — the alignment that lets emission
// use its cached checksum whole.
constexpr std::uint32_t kCoalesceBelow = 1448;
}  // namespace

std::size_t TxChain::writev_from(std::span<const FfIovec> iov) {
  // Clamp to the CHAIN budget, not just the ring's: zc bytes occupy the
  // same configured send window even though their bytes live elsewhere.
  std::size_t budget = free();
  std::size_t total = 0;
  for (const FfIovec& e : iov) {
    if (e.len == 0) continue;
    const std::size_t want = std::min(e.len, budget);
    if (want == 0) break;
    std::uint32_t csum = 0;
    // With checksum offload negotiated the admit copy does not price a
    // wire sum at all — the device inserts it, so the copy walk stays a
    // pure copy and stack_checksum_bytes never moves.
    const std::size_t got =
        ring_.write_from(e.buf, 0, want, cache_csums_ ? &csum : nullptr);
    if (got > 0) {
      // Adjacent copied bytes are contiguous in ring order, so a small
      // back slice extends in place — its cached sum composes with the
      // new bytes' sum at the extension offset's parity.
      if (!segs_.empty() && segs_.back().m == nullptr &&
          segs_.back().len < kCoalesceBelow) {
        Seg& back = segs_.back();
        if (back.csum_ok && cache_csums_) {
          back.csum = checksum_combine(back.csum, csum, back.len);
        } else {
          back.csum_ok = false;
        }
        back.len += static_cast<std::uint32_t>(got);
      } else {
        segs_.push_back(Seg{nullptr, 0, static_cast<std::uint32_t>(got),
                            csum, cache_csums_});
      }
      used_ += got;
      if (stats_ != nullptr) {
        stats_->copied_bytes += got;
        if (cache_csums_) stats_->stack_checksum_bytes += got;
      }
    }
    total += got;
    budget -= got;
    if (got < e.len) break;  // budget filled mid-batch: short count
  }
  return total;
}

bool TxChain::push_zc(updk::Mbuf* m, std::uint32_t off, std::uint32_t len,
                      std::uint32_t csum) {
  if (m == nullptr || len == 0 || pool_ == nullptr) return false;
  if (len > free()) return false;  // all-or-nothing: token stays retriable
  segs_.push_back(Seg{m, off, len, csum, cache_csums_});
  used_ += len;
  if (stats_ != nullptr) {
    stats_->zc_bytes += len;
    stats_->zc_segs++;
  }
  return true;
}

void TxChain::peek(std::size_t off, std::span<std::byte> out) const {
  if (off + out.size() > used_) {
    throw std::out_of_range("TxChain::peek beyond buffered data");
  }
  std::size_t done = 0;
  std::size_t pos = 0;       // logical chain offset of the current segment
  std::size_t ring_off = 0;  // copy-ring bytes preceding the current segment
  for (const Seg& s : segs_) {
    if (done == out.size()) break;
    const std::size_t seg_end = pos + s.len;
    if (off + done < seg_end) {
      const std::size_t in_seg = off + done - pos;
      const std::size_t k = std::min(out.size() - done, s.len - in_seg);
      if (s.m != nullptr) {
        // Gather straight out of the still-live data room (retransmission
        // re-reads exactly these bytes).
        s.m->room.window(s.off + in_seg, k).read(0, out.subspan(done, k));
      } else {
        ring_.peek(ring_off + in_seg, out.subspan(done, k));
      }
      done += k;
    }
    pos = seg_end;
    if (s.m == nullptr) ring_off += s.len;
  }
}

std::size_t TxChain::gather(std::size_t off, std::size_t len,
                            std::span<TxPiece> out) const {
  if (off + len > used_) {
    throw std::out_of_range("TxChain::gather beyond buffered data");
  }
  std::size_t n = 0;
  std::size_t done = 0;
  // In-order emission resumes where the last gather ended; a
  // retransmission below that walks from the head.
  Cursor c = off >= cursor_.pos ? cursor_ : Cursor{};
  for (; done < len; ++c.seg) {
    const Seg& s = segs_[c.seg];
    const std::size_t seg_end = c.pos + s.len;
    if (off + done < seg_end) {
      const std::size_t in_seg = off + done - c.pos;
      const std::size_t k = std::min(len - done, s.len - in_seg);
      // A cached sum covers the piece only when the piece IS the slice.
      const bool whole = in_seg == 0 && k == s.len && s.csum_ok;
      if (s.m != nullptr) {
        if (n == out.size()) return 0;
        out[n++] = TxPiece{s.m, machine::CapView{},
                           static_cast<std::uint32_t>(s.off + in_seg),
                           static_cast<std::uint32_t>(k), s.csum, whole};
      } else {
        SockBuf::PhysSpan ps[2];
        const std::size_t nspans =
            ring_.phys_spans(c.ring_off + in_seg, k, ps);
        for (std::size_t i = 0; i < nspans; ++i) {
          if (n == out.size()) return 0;
          out[n++] = TxPiece{
              nullptr, ring_.memory().window(ps[i].off, ps[i].len), 0,
              static_cast<std::uint32_t>(ps[i].len), s.csum,
              // A wrapped slice splits into two extents; the cached sum
              // spans both, so only an unwrapped whole slice composes.
              whole && nspans == 1};
        }
      }
      done += k;
      if (done == len) break;  // the cursor stays on the last segment read
    }
    c.pos = seg_end;
    if (s.m == nullptr) c.ring_off += s.len;
  }
  cursor_ = c;
  return n;
}

void TxChain::consume(std::size_t n) {
  if (n > used_) {
    throw std::out_of_range("TxChain::consume beyond buffered data");
  }
  used_ -= n;
  const std::size_t acked = n;
  std::size_t popped = 0;
  std::size_t ring_acked = 0;
  bool trimmed = false;
  while (n > 0) {
    Seg& s = segs_.front();
    const auto k = static_cast<std::uint32_t>(
        std::min<std::size_t>(n, s.len));
    if (s.m == nullptr) {
      ring_.consume(k);
      ring_acked += k;
    } else {
      s.off += k;  // partial ACK trims the head slice in place
    }
    s.len -= k;
    n -= k;
    if (s.len == 0) {
      if (s.m != nullptr && pool_ != nullptr) pool_->release_tx(s.m);
      segs_.pop_front();
      ++popped;
    } else {
      s.csum_ok = false;  // the cached sum covered the untrimmed slice
      trimmed = true;
    }
  }
  // The cursor's segment moves down by what was popped; if it was popped
  // or trimmed itself, the next gather starts from the head.
  if (cursor_.seg < popped + (trimmed ? 1 : 0)) {
    cursor_ = Cursor{};
  } else {
    cursor_.seg -= popped;
    cursor_.pos -= acked;
    cursor_.ring_off -= ring_acked;
  }
}

}  // namespace cherinet::fstack
