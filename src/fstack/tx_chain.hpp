// TxChain: the TCP send queue / retransmission store, zero-copy capable.
//
// A byte-only send queue copies every application byte into the send
// SockBuf and holds the BYTES until cumulatively acknowledged. TxChain
// interleaves two kinds of segments in strict sequence order instead:
//
//   * copy-backed: plain ff_write/ff_writev payload still lands in the
//     capability-bounded byte ring (SockBuf) exactly as before;
//   * mbuf-backed: OP_ZC_SEND on a TCP socket
//     appends a *retained mbuf reference* — an (mbuf, offset, length)
//     slice whose data room the application filled in place through the
//     bounded capability an OP_ZC_ALLOC grant handed out. No byte store.
//
// Emission is scatter-gather: tcp_emit decomposes a segment's
// [off, off+len) range into TxPieces via gather() — mbuf slices and ring
// spans the stack turns into indirect mbufs chained behind the header mbuf,
// so the driver fetches payload straight from the still-live stores and no
// byte is copied at emission time, first transmission and retransmission
// alike. Every slice also caches its PARTIAL CHECKSUM, computed exactly
// once when the bytes enter the stack (during the admit copy for ff_write,
// from one capability walk at OP_ZC_SEND): a segment covering whole slices
// checksums in O(#slices) via checksum_combine with zero payload re-reads.
// Cumulative ACK releases references from the head — a partial ACK trims
// the head slice (off advances, len shrinks, its cached sum invalidates).
// Teardown (FIN completion, RST, RTO give-up, destruction) releases every
// retained reference back to the pool.
//
// Budget: copied and zc bytes share the one configured sndbuf capacity at
// BYTE granularity (a zc slice charges its payload length, not its data
// room — TX rooms are dedicated allocations, not shared RX rooms, so pool
// pressure is already bounded by OP_ZC_ALLOC's -ENOBUFS).
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "fstack/api_types.hpp"
#include "fstack/sockbuf.hpp"
#include "updk/mempool.hpp"

namespace cherinet::fstack {

/// Send-path census accounting shared by every chain of one stack instance
/// (the TX mirror of RxStats): the zero-copy gate requires the zc path to
/// show ZERO copied bytes AND zero emission-time payload reads for the
/// queued volume.
struct TxStats {
  std::uint64_t copied_bytes = 0;  // app payload copied into stack TX stores
  std::uint64_t zc_bytes = 0;      // payload queued as retained mbuf refs
  std::uint64_t zc_segs = 0;       // mbuf-backed segments queued
  /// Payload bytes the EMISSION path had to read back (linearize fallback
  /// or a checksum over a range no cached partial covers). The gather path
  /// keeps this at 0; the fig4/fig5 zc census gates on exactly that.
  std::uint64_t emit_payload_reads = 0;
  /// Frame bytes (headers included) copied to linearize a chain for ARP
  /// parking — a cold-path copy counted apart from emission re-reads.
  std::uint64_t park_linearized_bytes = 0;
  /// Payload bytes the STACK one's-complement-summed on the TX path —
  /// admission-time cached partials, OP_ZC_SEND capability walks, emission
  /// cache-miss walks, software-fallback composes. A queue that negotiated
  /// L4 checksum insertion keeps this at 0 (the device sums instead); the
  /// fig4/fig5 offload census gates on exactly that.
  std::uint64_t stack_checksum_bytes = 0;
};

/// One source extent of a segment's payload, produced by TxChain::gather:
/// either a window into a retained mbuf's data room (m != nullptr) or a
/// bounded view of the copy ring. `csum_ok` marks extents whose cached
/// partial sum covers exactly this range (whole-slice coverage).
struct TxPiece {
  updk::Mbuf* m = nullptr;
  machine::CapView view;    // ring-backed extents (m == nullptr)
  std::uint32_t off = 0;    // data-room offset (mbuf-backed only)
  std::uint32_t len = 0;
  std::uint32_t csum = 0;   // cached partial, even-aligned at extent start
  bool csum_ok = false;
};

class TxChain {
 public:
  TxChain() = default;
  /// `cache_csums` = false when the queue negotiated L4 checksum insertion:
  /// admission skips the per-slice partial sums entirely (the device prices
  /// the wire checksum), so no TX byte is ever software-summed.
  TxChain(SockBuf ring, updk::Mempool* pool, TxStats* stats,
          bool cache_csums = true)
      : ring_(std::move(ring)),
        pool_(pool),
        stats_(stats),
        cache_csums_(cache_csums) {}
  TxChain(const TxChain&) = delete;
  TxChain& operator=(const TxChain&) = delete;
  TxChain(TxChain&& other) noexcept;
  TxChain& operator=(TxChain&& other) noexcept;
  ~TxChain() { release_all(); }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }
  /// Unacknowledged bytes queued (copied + zc, in sequence order).
  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  [[nodiscard]] std::size_t free() const noexcept {
    return capacity() - used_;
  }
  [[nodiscard]] bool empty() const noexcept { return used_ == 0; }

  /// Gather-append a pre-validated iovec batch through the copy path.
  /// Returns total bytes appended (short count when the budget fills).
  /// Each element becomes its own slice with its checksum cached during
  /// the admit copy — emission composes sums instead of re-reading.
  std::size_t writev_from(std::span<const FfIovec> iov);

  /// Append one zero-copy slice: the chain takes over the caller's mbuf
  /// reference (an OP_ZC_ALLOC reservation transfers here on success) and
  /// holds it until cumulatively ACKed. `csum` is the slice's partial
  /// checksum, computed once by the caller when the bytes entered.
  /// All-or-nothing against the free budget; returns false (reference NOT
  /// taken) when len does not fit.
  bool push_zc(updk::Mbuf* m, std::uint32_t off, std::uint32_t len,
               std::uint32_t csum);

  /// Copy out `out.size()` bytes at logical offset `off` from the head
  /// (snd_una) — the linearizing fallback (and test hook); the emission
  /// hot path uses gather() instead.
  void peek(std::size_t off, std::span<std::byte> out) const;

  /// Decompose [off, off+len) into source extents for scatter-gather
  /// emission. Returns the piece count, or 0 when the range needs more
  /// than out.size() pieces (the caller falls back to peek()).
  ///
  /// A cursor remembers the segment the last call ended in (its index,
  /// its logical offset and the copy-ring bytes before it), so in-order
  /// emission finds its first segment in O(1): a gather at or past the
  /// cursor starts there, one below it (a retransmission) walks from the
  /// head. consume() shifts the cursor by what it popped and resets it
  /// when its own segment went or was trimmed; release_all() and the moves
  /// reset it.
  std::size_t gather(std::size_t off, std::size_t len,
                     std::span<TxPiece> out) const;

  /// Drop `n` bytes from the head (cumulative ACK). Fully-acked mbuf
  /// segments release their reference to the pool; a partial ACK trims the
  /// head slice in place.
  void consume(std::size_t n);

  /// Release every retained mbuf reference and drop all queued bytes
  /// (connection teardown: FIN completion reaps via the destructor, RST /
  /// RTO give-up call this eagerly so a lingering PCB pins nothing).
  void release_all();

 private:
  struct Seg {
    updk::Mbuf* m = nullptr;  // nullptr => bytes live in the copy ring
    std::uint32_t off = 0;    // mbuf-backed: data-room offset of byte 0
    std::uint32_t len = 0;    // unacked bytes remaining in this segment
    std::uint32_t csum = 0;   // partial sum of [off, off+len), even-aligned
    bool csum_ok = false;     // false once a head trim stales the sum
  };

  /// segs_[seg] starts at logical offset `pos`, after `ring_off` copy-ring
  /// bytes; the default is the head.
  struct Cursor {
    std::size_t seg = 0;
    std::size_t pos = 0;
    std::size_t ring_off = 0;
  };

  SockBuf ring_;  // copy-backed bytes (in chain order, FIFO)
  updk::Mempool* pool_ = nullptr;
  TxStats* stats_ = nullptr;
  bool cache_csums_ = true;
  std::deque<Seg> segs_;
  std::size_t used_ = 0;
  mutable Cursor cursor_;  // where the last gather() ended
};

}  // namespace cherinet::fstack
