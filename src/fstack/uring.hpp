// FfUring: the compartment-boundary ring — one submission queue and one
// completion queue of capability-carrying entries per socket group. Every
// crossing has the same fixed price (~125 ns trampoline, Fig. 4; sealed
// entry + stack-mutex acquisition, Fig. 5/6), so the ring is an
// io_uring-style pair of SPSC rings armed by a single sealed-entry crossing:
//
//   * the application produces SQEs (opcode + fd + up to 8 exactly-bounded
//     iovec capabilities or zc tokens) with plain capability stores;
//   * the stack's main loop drains the SQ every iteration, validates the
//     whole pending window in one sweep (amortized over every entry it
//     covers), executes, and produces CQEs (result +
//     loan capability / accepted fd / readiness payload);
//   * in steady state NO crossing happens per operation. The only crossing
//     after arm time is the DOORBELL: when the app pushes into an empty SQ
//     while the stack has parked (header word `stack_state` == parked), it
//     makes one sealed-entry doorbell call to kick a drain. A polling
//     stack picks new SQEs up on its next iteration with no help.
//
// Ring memory is application-owned: the arming crossing delegates one
// bounded RW capability over the whole region to the stack, which checks
// it once (a bad grant is refused at arm time, not mid-drain). Payload
// capabilities cross as REAL tagged stores into the ring granules, so a
// data overwrite or a forged entry clears the tag, and the drain sweep's
// check (fstack/boundary.hpp) fails that entry alone with -EINVAL.
//
// Layout (little-endian host order, byte offsets; capability granules are
// 16-byte aligned because the header and both strides are multiples of 16
// and heap allocations are granule-aligned):
//
//   header (64 bytes)
//     [0]  u32 sq_head     — SQ consumer cursor (stack-owned)
//     [4]  u32 sq_tail     — SQ producer cursor (app-owned)
//     [8]  u32 cq_head     — CQ consumer cursor (app-owned)
//     [12] u32 cq_tail     — CQ producer cursor (stack-owned)
//     [16] u32 sq_capacity — entries (power of two, written at init)
//     [20] u32 cq_capacity — entries (power of two, written at init)
//     [24] u32 cq_overflow — completions the stack had to DEFER because
//          the CQ was full. Deferred work is retried (the SQE stays
//          queued; multishot publications re-derive) — never dropped.
//     [28] u32 sq_dropped  — app-side push failures (diagnostic)
//     [32] u32 stack_state — kStackPolling / kStackParked (doorbell rule)
//     [36..63] reserved
//   SQ: sq_capacity * 192-byte entries
//     [0]  u32 opcode      [4]  i32 fd        [8] u64 user_data
//     [16] u64 a0..a3      [48] u32 ncaps     [52..63] reserved
//     [64] payload: 8 x 16-byte capability granules, which OP_RECYCLE
//          reuses as 16 x u64 zc-token slots (tokens are data, not caps)
//   CQ: cq_capacity * 64-byte entries
//     [0]  u64 user_data   [8]  i64 result
//     [16] u32 op          [20] u32 flags (kCqeMore: more CQEs follow for
//                               the same submission / multishot arm)
//     [24] u64 aux0        [32] u64 aux1      [40..47] reserved
//     [48] one 16-byte capability granule (zc loan / sendable payload)
//
// Ownership and lifetime:
//   * SQE iovec capabilities belong to the application; the stack uses
//     them only inside the drain that consumes the SQE (bytes are queued
//     into stack buffers before the CQE posts), so the app may reuse the
//     buffer as soon as it reaps the CQE.
//   * CQE loan capabilities (OP_ZC_RECV) follow the ff_zc_recv contract:
//     exactly-bounded, read-only, charged against the receive window until
//     returned through OP_RECYCLE (or ff_zc_recycle).
//   * The ring region itself must outlive the attachment; detach (or stack
//     destruction) ends the stack's use of the delegated capability.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "fstack/api_types.hpp"
#include "machine/cap_view.hpp"

namespace cherinet::fstack {

/// SQE opcodes; api.hpp names the ff_* call each one shares a contract
/// with. The numbers are ABI: 2 is a retired opcode's hole and earns the
/// unknown-opcode -EINVAL.
enum class UringOp : std::uint32_t {
  kNop = 0,              // completes immediately (tests, fences)
  kWritev = 1,           // ncaps iovec caps -> sock_writev
  kZcSend = 3,           // a0=zc token, a1=len; TCP fds only (any other fd
                         //   is -EBADF with the reservation untouched). The
                         //   slice joins the send queue as a retained mbuf
                         //   reference held until cumulative ACK
  kZcRecv = 4,           // a0=max loans (<=8); one CQE per loan, TCP or UDP;
                         //   returns what is queued, never waits to fill
  kRecycle = 5,          // a0=token count (<=16); tokens in payload slots
  kAcceptMultishot = 6,  // arm: every accepted conn on fd posts a CQE;
                         //   a0 is reserved (nonzero: -EINVAL, no arm)
  kEpollArm = 7,         // arm: readiness of epfd's interest set posts CQEs
                         //   (kCqeMore); the arm's end (epfd closed,
                         //   re-armed on another ring, ring detached) posts
                         //   a last CQE without it, result -ECANCELED
  kZcAlloc = 8,          // a0=buffers (<=8), a1=len each; one CQE per
                         //   reservation: aux0=token, cap=writable bounded
                         //   view into the mbuf data room
  kConnect = 9,          // a0=packed peer (uring_pack_addr); the CQE posts
                         //   when the handshake RESOLVES: result 0 on
                         //   ESTABLISHED, -errno (ECONNREFUSED/ETIMEDOUT)
                         //   on failure, aux0=fd. No -EINPROGRESS CQE.
                         //   Closing the fd before it resolves ends the
                         //   arm: no verdict CQE ever posts for it.
  kClose = 10,           // graceful close of fd; result is the sock_close
                         //   verdict, aux0=fd. FIN rides the drain's one
                         //   driver burst — no per-close crossing.
  kEpollCtl = 11,        // fd=epfd, a0=EpollOp (1 add / 2 del / 3 mod),
                         //   a1=target fd, a2=events, a3=data; immediate
                         //   verdict CQE
  kSetClass = 12,        // a0=traffic class (0..kQosClasses-1) for fd;
                         //   immediate verdict CQE. On a listener the class
                         //   propagates to subsequently accepted children.
  kZcAbort = 13,         // a0=zc token: release an unsent OP_ZC_ALLOC
                         //   reservation; result 0, or -EINVAL for a
                         //   consumed, forged or neighbour's token
};

/// CQE flags.
inline constexpr std::uint32_t kCqeMore = 0x1;  // multishot: arm stays live
/// OP_ZC_RECV stream end. EOF gets its own flag (not just result == 0)
/// because a zero-length datagram is a LEGAL loan: its CQE carries
/// result == 0 WITH a token in aux0 that still must be recycled —
/// conflating the two would leak the window-charged loan.
inline constexpr std::uint32_t kCqeEof = 0x2;

/// Header stack_state values (the doorbell rule word).
inline constexpr std::uint32_t kStackPolling = 0;
inline constexpr std::uint32_t kStackParked = 1;

/// Application-side submission image. `caps` carries up to kMaxCaps
/// exactly-bounded buffer views (the length IS the capability's bounds);
/// `tokens` is the OP_RECYCLE payload (zc tokens are scalars, not caps).
struct FfUringSqe {
  static constexpr std::size_t kMaxCaps = 8;
  static constexpr std::size_t kMaxTokens = 16;

  UringOp op = UringOp::kNop;
  std::int32_t fd = -1;
  std::uint64_t user_data = 0;
  std::array<std::uint64_t, 4> a{};
  std::uint32_t ncaps = 0;
  std::array<machine::CapView, kMaxCaps> caps{};
  std::array<std::uint64_t, kMaxTokens> tokens{};
};

/// Application-side completion image.
struct FfUringCqe {
  std::uint64_t user_data = 0;
  std::int64_t result = 0;
  UringOp op = UringOp::kNop;
  std::uint32_t flags = 0;
  std::uint64_t aux0 = 0;
  std::uint64_t aux1 = 0;
  machine::CapView cap;  // zc loan payload (OP_ZC_RECV)
};

/// Pack/unpack a peer address into a CQE aux word.
[[nodiscard]] inline std::uint64_t uring_pack_addr(
    const FfSockAddrIn& a) noexcept {
  return (static_cast<std::uint64_t>(a.ip.value) << 16) | a.port;
}
[[nodiscard]] inline FfSockAddrIn uring_unpack_addr(std::uint64_t v) noexcept {
  return {Ipv4Addr{static_cast<std::uint32_t>(v >> 16)},
          static_cast<std::uint16_t>(v & 0xFFFF)};
}

class FfUring {
 public:
  // ---- shared layout constants (stack drain + app side use the same) ----
  static constexpr std::uint32_t kHeaderBytes = 64;
  static constexpr std::uint32_t kSqeBytes = 192;
  static constexpr std::uint32_t kCqeBytes = 64;
  static constexpr std::uint32_t kSqePayloadOff = 64;  // within an SQE
  static constexpr std::uint32_t kCqeCapOff = 48;      // within a CQE

  // Header word offsets.
  static constexpr std::uint64_t kSqHead = 0;
  static constexpr std::uint64_t kSqTail = 4;
  static constexpr std::uint64_t kCqHead = 8;
  static constexpr std::uint64_t kCqTail = 12;
  static constexpr std::uint64_t kSqCapacity = 16;
  static constexpr std::uint64_t kCqCapacity = 20;
  static constexpr std::uint64_t kCqOverflow = 24;
  static constexpr std::uint64_t kSqDropped = 28;
  static constexpr std::uint64_t kStackState = 32;

  [[nodiscard]] static constexpr std::size_t bytes_for(
      std::uint32_t sq_capacity, std::uint32_t cq_capacity) noexcept {
    return kHeaderBytes +
           static_cast<std::size_t>(sq_capacity) * kSqeBytes +
           static_cast<std::size_t>(cq_capacity) * kCqeBytes;
  }

  /// Power-of-two capacities only: the free-running u32 cursors map to
  /// slots with a mask, which stays continuous across index wraparound.
  [[nodiscard]] static constexpr bool valid_capacity(
      std::uint32_t capacity) noexcept {
    return capacity != 0 && (capacity & (capacity - 1)) == 0;
  }

  [[nodiscard]] static constexpr std::uint64_t sqe_off(
      std::uint32_t sq_capacity, std::uint32_t slot) noexcept {
    (void)sq_capacity;
    return kHeaderBytes + static_cast<std::uint64_t>(slot) * kSqeBytes;
  }
  [[nodiscard]] static constexpr std::uint64_t cqe_off(
      std::uint32_t sq_capacity, std::uint32_t slot) noexcept {
    return kHeaderBytes +
           static_cast<std::uint64_t>(sq_capacity) * kSqeBytes +
           static_cast<std::uint64_t>(slot) * kCqeBytes;
  }

  FfUring() = default;
  /// Wrap (and header-initialize) ring memory of at least
  /// bytes_for(sq_capacity, cq_capacity).
  FfUring(machine::CapView mem, std::uint32_t sq_capacity,
          std::uint32_t cq_capacity);

  [[nodiscard]] const machine::CapView& memory() const noexcept {
    return mem_;
  }
  [[nodiscard]] bool valid() const noexcept { return mem_.valid(); }
  [[nodiscard]] std::uint32_t sq_capacity() const noexcept { return sq_cap_; }
  [[nodiscard]] std::uint32_t cq_capacity() const noexcept { return cq_cap_; }

  enum class Push : std::uint8_t {
    kFull,      // SQ full: reap CQEs / let the stack drain, then retry
    kQueued,    // queued; the polling stack will pick it up, no crossing
    kDoorbell,  // queued into an EMPTY SQ while the stack is PARKED:
                // make the one doorbell crossing (uring_doorbell)
  };

  /// Produce one SQE (plain capability stores, no crossing). The return
  /// value implements the doorbell rule — kDoorbell only on the
  /// empty->non-empty transition while the stack reports itself parked.
  Push sq_push(const FfUringSqe& e);

  /// Consume up to out.size() completions — pure capability loads, no
  /// crossing. Returns the number popped.
  std::size_t cq_pop(std::span<FfUringCqe> out);

  /// Entries waiting in the SQ (app-side view).
  [[nodiscard]] std::uint32_t sq_pending() const;
  /// Completions the stack had to defer on a full CQ (retried, not lost).
  [[nodiscard]] std::uint32_t cq_overflows() const;
  [[nodiscard]] bool stack_parked() const;

 private:
  machine::CapView mem_;
  std::uint32_t sq_cap_ = 0;
  std::uint32_t cq_cap_ = 0;
};

/// Accumulates zc recycle tokens into OP_RECYCLE submissions. The add/flush
/// discipline guarantees the token array can NEVER overfill: an entry that
/// the SQ refuses goes out through the caller-provided synchronous fallback
/// (typically one classic ff_zc_recycle_batch crossing) instead of piling
/// up — loans are window-charged, so holding them is not an option.
class FfUringRecycler {
 public:
  using Fallback = std::function<void(std::span<const std::uint64_t>)>;

  FfUringRecycler() = default;
  FfUringRecycler(FfUring* ring, Fallback fallback)
      : ring_(ring), fallback_(std::move(fallback)) {
    sqe_.op = UringOp::kRecycle;
  }

  void add(std::uint64_t token) {
    sqe_.tokens[n_++] = token;
    if (n_ == FfUringSqe::kMaxTokens) flush();
  }
  /// Submit the pending batch through the ring (fallback when refused).
  void flush() {
    if (n_ == 0) return;
    sqe_.a[0] = n_;
    if (ring_->sq_push(sqe_) == FfUring::Push::kFull) {
      fallback_({sqe_.tokens.data(), n_});
    } else {
      ++ring_pushes_;
    }
    n_ = 0;
  }
  /// Return the pending batch synchronously, bypassing the ring — the
  /// teardown path, where a queued entry might never be drained.
  void flush_sync() {
    if (n_ == 0) return;
    fallback_({sqe_.tokens.data(), n_});
    n_ = 0;
  }
  [[nodiscard]] std::uint32_t pending() const noexcept { return n_; }
  /// OP_RECYCLE entries that went out through the ring (census bookkeeping).
  [[nodiscard]] std::uint64_t ring_pushes() const noexcept {
    return ring_pushes_;
  }

 private:
  FfUring* ring_ = nullptr;
  Fallback fallback_;
  FfUringSqe sqe_;
  std::uint32_t n_ = 0;
  std::uint64_t ring_pushes_ = 0;
};

/// The stall-based doorbell policy every ring consumer shares: a parked
/// stack wakes on its own heartbeat (and on every wire event), so the one
/// doorbell crossing is only worth making when submissions have genuinely
/// sat unclaimed — `threshold` progress-free turns with a non-empty SQ
/// while the stack reports itself parked.
class FfUringDoorbellPolicy {
 public:
  static constexpr std::uint32_t kDefaultStallTurns = 16;

  explicit FfUringDoorbellPolicy(
      std::uint32_t threshold = kDefaultStallTurns) noexcept
      : threshold_(threshold) {}

  /// Feed one turn's progress; true when the caller should cross now.
  bool should_ring(const FfUring& ring, bool progress) {
    if (progress) {
      stall_ = 0;
      return false;
    }
    if (++stall_ < threshold_ || ring.sq_pending() == 0 ||
        !ring.stack_parked()) {
      return false;
    }
    stall_ = 0;
    return true;
  }

 private:
  std::uint32_t threshold_;
  std::uint32_t stall_ = 0;
};

}  // namespace cherinet::fstack
