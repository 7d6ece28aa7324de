// RxChain: the loan-based receive queue that replaces the copy through the
// receive SockBuf.
//
// v1 receive semantics copied every payload byte into a per-socket byte ring
// the moment a segment arrived — the per-packet memcpy tax the paper's
// Fig. 4 numbers ride on top of. v2 queues *references* into the RX mbuf
// data rooms instead: each in-order segment is an (mbuf, offset, length)
// slice whose buffer the chain co-owns via Mempool::retain. Bytes move at
// most once, and only when the application chooses how to receive:
//
//   * ff_read / ff_readv copy LAZILY out of the queued chain (one copy,
//     application-driven, into the caller's capability);
//   * OP_ZC_RECV pops whole slices as exactly-bounded read-only capability
//     loans — zero copies; Mempool::recycle is the only way a loaned data
//     room returns to the pool.
//
// Out-of-order segments and reassembled IP fragments have no single backing
// mbuf and fall back to copied storage; a copy-backed slice popped through
// OP_ZC_RECV bounces through a fresh mbuf so the loan lifecycle stays
// uniform.
//
// Budget accounting is in PINNED MEMORY, not payload bytes: a queued or
// loaned-out mbuf slice charges its whole data room against the receive
// budget until it is consumed/recycled, so a flood of small segments (or a
// slow recycler) throttles its own socket's advertised window instead of
// draining the shared mempool out from under every other socket.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "machine/cap_view.hpp"
#include "updk/mempool.hpp"

namespace cherinet::fstack {

/// One borrowed window into an mbuf data room.
struct MbufSlice {
  updk::Mbuf* m = nullptr;
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

/// Receive-path accounting shared by every chain of one stack instance —
/// what the RX census gates on (the zero-copy path must show zero copied
/// bytes for the loaned volume).
struct RxStats {
  std::uint64_t copied_bytes = 0;    // lazily copied out by ff_read/readv
  std::uint64_t fallback_bytes = 0;  // copy-queued (OOO absorb, reassembly)
  std::uint64_t loaned_segs = 0;     // slices queued zero-copy
  std::uint64_t loaned_bytes = 0;
  std::uint64_t bounce_segs = 0;     // copy-backed slices bounced for a loan
};

/// Bounce copy-backed receive bytes into a fresh mbuf so an OP_ZC_RECV
/// caller still gets a recyclable loan (TCP's RxChain and the UDP queue
/// share this — the stats the RX census gates on update in one place).
/// Returns nullptr when the pool cannot supply the buffer; the caller
/// leaves the data queued so -ENOBUFS is retriable.
updk::Mbuf* bounce_into_mbuf(updk::Mempool* pool,
                             std::span<const std::byte> bytes,
                             RxStats* stats);

class RxChain {
 public:
  RxChain() = default;
  RxChain(std::size_t budget_bytes, updk::Mempool* pool, RxStats* stats)
      : budget_(budget_bytes), pool_(pool), stats_(stats) {}
  RxChain(const RxChain&) = delete;
  RxChain& operator=(const RxChain&) = delete;
  RxChain(RxChain&& other) noexcept;
  RxChain& operator=(RxChain&& other) = delete;
  ~RxChain() { release_all(); }

  [[nodiscard]] std::size_t capacity() const noexcept { return budget_; }
  /// Payload bytes queued and readable (not yet consumed or loaned out).
  [[nodiscard]] std::size_t used() const noexcept { return avail_; }
  /// Charge of loans currently out with the application awaiting recycle.
  [[nodiscard]] std::size_t loaned() const noexcept { return loaned_; }
  [[nodiscard]] bool empty() const noexcept { return avail_ == 0; }
  /// Receive window still offerable. Queued slices charge their whole data
  /// room; outstanding loans keep their charge until recycled.
  [[nodiscard]] std::size_t window_free() const noexcept {
    const std::size_t held = held_ + loaned_;
    return held < budget_ ? budget_ - held : 0;
  }

  /// Queue an in-order slice zero-copy (retains the mbuf; charges its data
  /// room). Clamped to the free window; returns payload bytes accepted
  /// (0 = window closed, not retained).
  std::size_t push_loan(const MbufSlice& s);

  /// Copy fallback for data with no single backing mbuf (charged at byte
  /// granularity). Clamped; returns bytes accepted.
  std::size_t push_bytes(std::span<const std::byte> data);

  /// Lazy copy-out for ff_read/ff_readv: consume up to `n` bytes into the
  /// caller capability at `dst_off`. Fully drained mbuf slices recycle on
  /// the spot (releasing their room's charge). Returns bytes copied.
  std::size_t read_into(const machine::CapView& dst, std::size_t dst_off,
                        std::size_t n);

  /// Pop the head slice for OP_ZC_RECV. The chain's mbuf reference moves
  /// to the caller (who must Mempool::recycle it); the slice's charge
  /// moves from held to loaned until credit_loan(). A copy-backed head
  /// bounces into a fresh mbuf from the pool — nullopt when the chain is
  /// empty or the pool cannot supply the bounce buffer. `charge_out`
  /// reports the charge the recycle must credit back.
  std::optional<MbufSlice> pop_loan(std::size_t* charge_out);

  /// The application recycled a loan of `charge`: reopen that much window.
  void credit_loan(std::size_t charge);

  /// Recycle every queued slice (teardown).
  void release_all();

 private:
  struct Seg {
    updk::Mbuf* m = nullptr;  // nullptr => copy-backed
    std::uint32_t off = 0;
    std::uint32_t len = 0;       // remaining (unconsumed) bytes
    std::uint32_t charge = 0;    // budget held until retired/recycled
    std::vector<std::byte> copy;
  };

  void retire(const Seg& s);

  std::size_t budget_ = 0;
  updk::Mempool* pool_ = nullptr;
  RxStats* stats_ = nullptr;
  std::deque<Seg> segs_;
  std::size_t avail_ = 0;   // readable payload bytes
  std::size_t held_ = 0;    // charge of queued segments
  std::size_t loaned_ = 0;  // charge of outstanding loans
};

}  // namespace cherinet::fstack
