#include "fstack/rx_chain.hpp"

#include <algorithm>

namespace cherinet::fstack {

updk::Mbuf* bounce_into_mbuf(updk::Mempool* pool,
                             std::span<const std::byte> bytes,
                             RxStats* stats) {
  if (pool == nullptr) return nullptr;
  updk::Mbuf* fresh = pool->alloc();
  if (fresh == nullptr || fresh->tailroom() < bytes.size()) {
    if (fresh != nullptr) pool->free(fresh);
    return nullptr;
  }
  fresh->append(static_cast<std::uint32_t>(bytes.size())).write(0, bytes);
  if (stats != nullptr) {
    stats->bounce_segs++;
    stats->copied_bytes += bytes.size();
  }
  return fresh;
}

RxChain::RxChain(RxChain&& other) noexcept
    : budget_(other.budget_),
      pool_(other.pool_),
      stats_(other.stats_),
      segs_(std::move(other.segs_)),
      avail_(other.avail_),
      held_(other.held_),
      loaned_(other.loaned_) {
  other.segs_.clear();
  other.avail_ = 0;
  other.held_ = 0;
  other.loaned_ = 0;
}

void RxChain::release_all() {
  for (Seg& s : segs_) {
    if (s.m != nullptr && pool_ != nullptr) pool_->recycle(s.m);
  }
  segs_.clear();
  avail_ = 0;
  held_ = 0;
  // Loaned charge stays accounted with its tokens; the stack recycles the
  // mbufs themselves when it tears down the loan table.
  loaned_ = 0;
}

void RxChain::retire(const Seg& s) {
  held_ = s.charge < held_ ? held_ - s.charge : 0;
  if (s.m != nullptr && pool_ != nullptr) pool_->recycle(s.m);
}

std::size_t RxChain::push_loan(const MbufSlice& s) {
  if (s.m == nullptr || s.len == 0 || pool_ == nullptr) return 0;
  const std::size_t room = s.m->room_size();
  if (window_free() == 0) return 0;
  // The advertised window already throttled the sender to window_free(),
  // so the payload fits byte-wise; the room charge may overshoot the
  // budget by at most one data room, which is the accounting slack any
  // mbuf-granular receive queue has.
  const auto take =
      static_cast<std::uint32_t>(std::min<std::size_t>(s.len, window_free()));
  pool_->retain(s.m);
  segs_.push_back(Seg{s.m, s.off, take, static_cast<std::uint32_t>(room), {}});
  avail_ += take;
  held_ += room;
  if (stats_ != nullptr) {
    stats_->loaned_segs++;
    stats_->loaned_bytes += take;
  }
  return take;
}

std::size_t RxChain::push_bytes(std::span<const std::byte> data) {
  const std::size_t take = std::min(data.size(), window_free());
  if (take == 0) return 0;
  Seg s;
  s.len = static_cast<std::uint32_t>(take);
  s.charge = static_cast<std::uint32_t>(take);
  s.copy.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take));
  segs_.push_back(std::move(s));
  avail_ += take;
  held_ += take;
  if (stats_ != nullptr) stats_->fallback_bytes += take;
  return take;
}

std::size_t RxChain::read_into(const machine::CapView& dst,
                               std::size_t dst_off, std::size_t n) {
  std::size_t done = 0;
  std::byte scratch[512];
  while (done < n && !segs_.empty()) {
    Seg& s = segs_.front();
    const std::size_t k = std::min<std::size_t>(n - done, s.len);
    if (s.m != nullptr) {
      machine::cap_copy(dst, dst_off + done, s.m->room.window(s.off, k), 0, k,
                        scratch);
    } else {
      dst.write(dst_off + done,
                std::span<const std::byte>{s.copy.data() + s.off, k});
    }
    s.off += static_cast<std::uint32_t>(k);
    s.len -= static_cast<std::uint32_t>(k);
    done += k;
    // A partially read mbuf slice keeps its whole room pinned (and
    // charged) until the last byte leaves; copy slices release per byte.
    if (s.m == nullptr) {
      held_ = k < held_ ? held_ - k : 0;
      s.charge -= static_cast<std::uint32_t>(k);
    }
    if (s.len == 0) {
      retire(s);
      segs_.pop_front();
    }
  }
  avail_ -= done;
  if (stats_ != nullptr) stats_->copied_bytes += done;
  return done;
}

std::optional<MbufSlice> RxChain::pop_loan(std::size_t* charge_out) {
  if (segs_.empty()) return std::nullopt;
  Seg& s = segs_.front();
  MbufSlice out;
  std::size_t loan_charge;
  if (s.m != nullptr) {
    out = MbufSlice{s.m, s.off, s.len};  // the chain's reference transfers
    loan_charge = s.charge;
  } else {
    // Copy-backed head (reassembled / absorbed out-of-order data): bounce
    // through a fresh mbuf so the caller still gets a recyclable loan.
    // The loan pins the FRESH room, so that is what it charges.
    updk::Mbuf* fresh = bounce_into_mbuf(
        pool_, std::span<const std::byte>{s.copy.data() + s.off, s.len},
        stats_);
    if (fresh == nullptr) return std::nullopt;
    out = MbufSlice{fresh, fresh->data_off, s.len};
    loan_charge = fresh->room_size();
  }
  avail_ -= s.len;
  held_ = s.charge < held_ ? held_ - s.charge : 0;
  loaned_ += loan_charge;
  if (charge_out != nullptr) *charge_out = loan_charge;
  segs_.pop_front();
  return out;
}

void RxChain::credit_loan(std::size_t charge) {
  loaned_ = charge < loaned_ ? loaned_ - charge : 0;
}

}  // namespace cherinet::fstack
