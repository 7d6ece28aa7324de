// Shared ff_uring application-side protocol helpers.
//
// The submit/re-offer discipline of an OP_WRITEV send stream, the
// alloc/fill/send pipeline of the zero-copy TX path, and the CQE-dispatch
// discipline of the receive pipeline (More/EOF flags, loan vs drained vs
// multishot) were written once in the fig4/fig5 censuses
// (scenarios/experiment.cpp) and once in the IperfClient/IperfServer ring
// ports — two copies that had to be hand-synchronized whenever the ring ABI
// moved. This header is now the single home of that protocol; the censuses
// keep their probe instrumentation (SQE/CQE counters, crossing envelopes)
// around these helpers rather than re-implementing the ring discipline.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "fstack/epoll.hpp"
#include "fstack/uring.hpp"
#include "machine/cap_view.hpp"

namespace cherinet::apps {

/// OP_WRITEV send-stream protocol: cover a byte total with SQEs of up to
/// `per_sqe` chunk-sized iovec capabilities, account completions, re-offer
/// shortfalls. user_data carries each entry's offered byte count, so a
/// short count (or -EAGAIN) automatically re-offers the remainder.
class UringTxProto {
 public:
  UringTxProto() = default;
  UringTxProto(fstack::FfUring* ring, int fd, machine::CapView src,
               std::size_t chunk, std::size_t per_sqe)
      : ring_(ring),
        fd_(fd),
        src_(src),
        chunk_(chunk),
        per_sqe_(std::min<std::size_t>(per_sqe, fstack::FfUringSqe::kMaxCaps)) {
  }

  /// Push OP_WRITEV SQEs until `total` bytes are covered or the SQ fills.
  /// Returns SQEs pushed (plain capability stores — no crossing).
  std::uint32_t offer(std::uint64_t total) {
    std::uint32_t pushed = 0;
    while (offered_ < total) {
      fstack::FfUringSqe sqe;
      sqe.op = fstack::UringOp::kWritev;
      sqe.fd = fd_;
      std::uint64_t entry_bytes = 0;
      for (; sqe.ncaps < per_sqe_ && offered_ + entry_bytes < total;
           ++sqe.ncaps) {
        const std::size_t n = std::min<std::uint64_t>(
            chunk_, total - offered_ - entry_bytes);
        sqe.caps[sqe.ncaps] = src_.window(0, n);
        entry_bytes += n;
      }
      sqe.user_data = entry_bytes;
      if (ring_->sq_push(sqe) == fstack::FfUring::Push::kFull) break;
      offered_ += entry_bytes;
      ++pushed;
    }
    return pushed;
  }

  /// Account one OP_WRITEV completion; a short count re-offers the
  /// shortfall. Returns bytes newly confirmed queued.
  std::uint64_t on_cqe(const fstack::FfUringCqe& cqe) {
    const std::uint64_t exp = cqe.user_data;
    const std::uint64_t got =
        cqe.result > 0 ? static_cast<std::uint64_t>(cqe.result) : 0;
    acked_ += got;
    if (got < exp) offered_ -= exp - got;
    return got;
  }

  /// Bytes that moved outside the ring (e.g. the 1-byte connect probe):
  /// count them as both offered and confirmed.
  void note_external(std::uint64_t n) {
    offered_ += n;
    acked_ += n;
  }

  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::uint64_t acked() const noexcept { return acked_; }

 private:
  fstack::FfUring* ring_ = nullptr;
  int fd_ = -1;
  machine::CapView src_;
  std::size_t chunk_ = 0;
  std::size_t per_sqe_ = fstack::FfUringSqe::kMaxCaps;
  std::uint64_t offered_ = 0;  // bytes covered by in-flight SQEs
  std::uint64_t acked_ = 0;    // bytes confirmed queued by CQEs
};

/// Zero-copy TX pipeline over the ring (TCP streams): OP_ZC_ALLOC grants a
/// writable bounded capability into a fresh mbuf data room, `fill` composes
/// the payload in place, OP_ZC_SEND submits the token, and the stack holds
/// the buffer until cumulative ACK — no byte store anywhere, no crossing
/// for any step. -EAGAIN'd sends (window full) re-queue their still-valid
/// token; -ENOBUFS'd allocs uncover their bytes for a later retry. A dead
/// pipeline aborts every reservation it still holds (OP_ZC_ABORT), grants
/// that arrive after the failure included, so no data room stays pinned.
class UringZcTxProto {
 public:
  using Fill =
      std::function<void(const machine::CapView& room, std::size_t len)>;

  UringZcTxProto() = default;
  UringZcTxProto(fstack::FfUring* ring, int fd, std::size_t chunk, Fill fill)
      : ring_(ring), fd_(fd), chunk_(chunk), fill_(std::move(fill)) {}

  /// Drive the pipeline toward `total` bytes: submit filled reservations,
  /// then request new ones for the uncovered remainder. Returns SQEs
  /// pushed. A dead pipeline (failed()) only aborts what it still holds.
  std::uint32_t pump(std::uint64_t total) {
    std::uint32_t pushed = 0;
    while (!ready_.empty()) {
      const Pending p = ready_.front();
      fstack::FfUringSqe sqe;
      sqe.op = fatal_ ? fstack::UringOp::kZcAbort : fstack::UringOp::kZcSend;
      sqe.fd = fd_;
      sqe.user_data = p.token;  // identifies the reservation in the CQE
      sqe.a[0] = p.token;
      sqe.a[1] = p.len;
      if (ring_->sq_push(sqe) == fstack::FfUring::Push::kFull) return pushed;
      if (fatal_) {
        ++aborts_pending_;
      } else {
        inflight_.emplace(p.token, p.len);
      }
      ready_.pop_front();
      ++pushed;
    }
    if (fatal_) return pushed;
    bool probed = false;
    while (covered_ < total) {
      // Pool-starved: throttle to ONE alloc probe per pump — enough to
      // notice the pool refilling as ACKs land, without hammering the
      // ring with requests that can only fail.
      if (alloc_backoff_ && probed) break;
      probed = true;
      const std::size_t len =
          std::min<std::uint64_t>(chunk_, total - covered_);
      fstack::FfUringSqe sqe;
      sqe.op = fstack::UringOp::kZcAlloc;
      sqe.fd = fd_;
      sqe.a[0] = 1;  // one reservation per SQE: exact failure accounting
      sqe.a[1] = len;
      sqe.user_data = len;
      if (ring_->sq_push(sqe) == fstack::FfUring::Push::kFull) break;
      covered_ += len;
      ++allocs_pending_;
      ++pushed;
    }
    return pushed;
  }

  /// Dispatch one CQE of this pipeline (alloc grants and send
  /// completions); other opcodes are ignored (return 0). Returns bytes
  /// newly confirmed queued.
  std::uint64_t on_cqe(const fstack::FfUringCqe& cqe) {
    if (cqe.op == fstack::UringOp::kZcAbort) {
      if (aborts_pending_ > 0) --aborts_pending_;
      return 0;
    }
    if (cqe.op == fstack::UringOp::kZcAlloc) {
      if (allocs_pending_ > 0) --allocs_pending_;
      if (cqe.result > 0 && cqe.aux0 != 0) {
        // A grant after the failure still pins a room: queue it so the
        // next pump() aborts it.
        const auto len = static_cast<std::size_t>(cqe.result);
        if (fill_ && !fatal_) fill_(cqe.cap, len);  // compose in place
        ready_.push_back({cqe.aux0, len});
        alloc_backoff_ = false;
      } else if (cqe.result == -ENOBUFS) {
        // Transient: uncover the bytes and stop requesting until a send
        // completes — the pool refills as the peer ACKs; hammering alloc
        // SQEs meanwhile would only churn the ring.
        covered_ -= cqe.user_data;
        alloc_backoff_ = true;
      } else {
        // -EMSGSIZE (chunk beyond the data-room payload bound) and the
        // like are PERMANENT for this configuration: retrying the same
        // length can never succeed. Kill the pipeline; the caller checks
        // failed() and winds down instead of livelocking.
        covered_ -= cqe.user_data;
        ++errors_;
        fatal_ = true;
      }
      return 0;
    }
    if (cqe.op == fstack::UringOp::kZcSend) {
      const auto it = inflight_.find(cqe.user_data);
      if (it == inflight_.end()) return 0;
      const std::size_t len = it->second;
      if (cqe.result > 0) {
        inflight_.erase(it);
        acked_ += static_cast<std::uint64_t>(cqe.result);
        alloc_backoff_ = false;  // ACK progress: the pool is refilling
        return static_cast<std::uint64_t>(cqe.result);
      }
      if (cqe.result == -EAGAIN) {
        // Send window full: the reservation stays valid — resubmit.
        ready_.push_back({cqe.user_data, len});
        inflight_.erase(it);
        return 0;
      }
      // Hard error (-ECONNRESET / -ETIMEDOUT ...): the stack consumed the
      // reservation along with the dead connection. Nothing sent through
      // this fd can ever succeed again — kill the pipeline rather than
      // alloc fresh reservations that fail identically.
      inflight_.erase(it);
      covered_ -= len;
      ++errors_;
      fatal_ = true;
      return 0;
    }
    return 0;
  }

  [[nodiscard]] std::uint64_t acked() const noexcept { return acked_; }
  [[nodiscard]] std::uint64_t covered() const noexcept { return covered_; }
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }
  /// A permanent failure (dead connection, impossible chunk size) killed
  /// the pipeline: the caller must wind down, acked() will never reach
  /// the total.
  [[nodiscard]] bool failed() const noexcept { return fatal_; }
  /// True when nothing is pending anywhere in the pipeline.
  [[nodiscard]] bool idle() const noexcept {
    return ready_.empty() && inflight_.empty();
  }
  /// A dead pipeline that holds no reservation and awaits no CQE: every
  /// grant it received was sent or aborted, so the caller may detach.
  [[nodiscard]] bool wound_down() const noexcept {
    return fatal_ && idle() && allocs_pending_ == 0 && aborts_pending_ == 0;
  }

 private:
  struct Pending {
    std::uint64_t token = 0;
    std::size_t len = 0;
  };

  fstack::FfUring* ring_ = nullptr;
  int fd_ = -1;
  std::size_t chunk_ = 0;
  Fill fill_;
  std::deque<Pending> ready_;  // granted + filled, awaiting an SQ slot
  std::unordered_map<std::uint64_t, std::size_t> inflight_;  // sent tokens
  std::uint64_t covered_ = 0;  // bytes covered by reservations requested
  std::uint64_t acked_ = 0;    // bytes confirmed queued by send CQEs
  std::uint64_t errors_ = 0;   // reservations lost to hard errors
  std::uint32_t allocs_pending_ = 0;  // OP_ZC_ALLOC SQEs awaiting a CQE
  std::uint32_t aborts_pending_ = 0;  // OP_ZC_ABORT SQEs awaiting a CQE
  bool alloc_backoff_ = false;  // pool empty: wait for ACKs before realloc
  bool fatal_ = false;          // permanent failure: pipeline is dead
};

/// The receive-pipeline CQE discipline every ring consumer shares. `h` is
/// any type providing:
///   on_accept(int fd, const FfSockAddrIn& peer)
///   on_readiness(std::uint32_t mask, std::uint64_t data)
///   on_loan(const FfUringCqe& cqe)        // result >= 0, token in aux0
///   on_eof(std::uint64_t user_data)       // kCqeEof
///   on_drained(std::uint64_t user_data)   // drained: await readiness
///   on_coalescing(std::uint64_t user_data)// -EAGAIN with aux1 set: data
///                                         // IS queued, the a1 burst
///                                         // timeout is still running —
///                                         // repoll, readiness will not
///                                         // fire for an unchanged mask
///   on_burst_end(std::uint64_t user_data) // last CQE of a zc burst
/// Returns true when the CQE belonged to the receive pipeline (accept /
/// readiness / zc loans); OP_RECYCLE acks and TX completions return false.
template <typename Handler>
bool dispatch_rx_cqe(const fstack::FfUringCqe& cqe, Handler&& h) {
  switch (cqe.op) {
    case fstack::UringOp::kAcceptMultishot:
      if (cqe.result >= 0) {
        h.on_accept(static_cast<int>(cqe.result),
                    fstack::uring_unpack_addr(cqe.aux0));
      }
      return true;
    case fstack::UringOp::kEpollArm:
      h.on_readiness(static_cast<std::uint32_t>(cqe.result), cqe.aux0);
      return true;
    case fstack::UringOp::kZcRecv:
      if ((cqe.flags & fstack::kCqeEof) != 0) {
        h.on_eof(cqe.user_data);
      } else if (cqe.result >= 0) {
        // A loan — zero-length datagrams included: the aux0 token still
        // owes a recycle even when no bytes came with it.
        h.on_loan(cqe);
      } else if (cqe.aux1 != 0) {
        h.on_coalescing(cqe.user_data);
      } else {
        h.on_drained(cqe.user_data);
      }
      if ((cqe.flags & fstack::kCqeMore) == 0) h.on_burst_end(cqe.user_data);
      return true;
    default:
      return false;
  }
}

/// Per-connection zc-burst credit ledger shared by ring receive consumers:
/// each connection keeps at most ONE OP_ZC_RECV burst outstanding (its CQE
/// train is bounded by the per-burst loan cap), and up to credits()
/// connections may overlap their bursts inside one CQ window — the stack
/// fills several connections' trains per drain instead of one burst per
/// doorbell round trip. configure() sizes the ledger so the worst-case
/// trains fill at most HALF the CQ; the other half stays free for accept/
/// readiness/recycle completions, so bursts can never push the stack into
/// its deferred CQ-overflow path.
class UringBurstCredits {
 public:
  /// `max_caps` is the per-burst CQE bound (usually FfUringSqe::kMaxCaps).
  void configure(std::uint32_t cq_capacity, std::uint32_t max_caps) {
    credits_ = std::max<std::uint32_t>(
        1, cq_capacity / (2 * std::max<std::uint32_t>(1, max_caps)));
    inflight_ = 0;
  }
  [[nodiscard]] bool available() const noexcept {
    return inflight_ < credits_;
  }
  void acquire() noexcept { ++inflight_; }
  void release() noexcept {
    if (inflight_ > 0) --inflight_;
  }
  [[nodiscard]] std::uint32_t inflight() const noexcept { return inflight_; }
  [[nodiscard]] std::uint32_t credits() const noexcept { return credits_; }

 private:
  std::uint32_t inflight_ = 0;  // bursts currently outstanding
  std::uint32_t credits_ = 1;   // max overlapped bursts (CQ-sized)
};

/// Push one OP_ZC_RECV burst request (shared by every receive consumer so
/// the a0/a1 argument convention cannot drift): `max_loans` CQEs at most,
/// `timeout_ns` is the UDP recvmmsg-style coalescing knob (0 on TCP).
inline bool push_zc_recv(fstack::FfUring& ring, int fd,
                         std::uint32_t max_loans, std::uint64_t user_data,
                         std::uint64_t timeout_ns = 0) {
  fstack::FfUringSqe sqe;
  sqe.op = fstack::UringOp::kZcRecv;
  sqe.fd = fd;
  sqe.user_data = user_data;
  sqe.a[0] = max_loans;
  sqe.a[1] = timeout_ns;
  return ring.sq_push(sqe) != fstack::FfUring::Push::kFull;
}

/// Arm multishot accept / epoll delivery (the two one-time arms of the
/// receive pipeline). `auto_arm` additionally subscribes every accepted fd
/// to readiness CQEs in the same ring (kEpollArm-shaped, aux0 = fd) — a
/// churn-heavy acceptor never issues another control call per connection.
inline bool push_accept_arm(fstack::FfUring& ring, int listen_fd,
                            std::uint64_t user_data, bool auto_arm = false) {
  fstack::FfUringSqe sqe;
  sqe.op = fstack::UringOp::kAcceptMultishot;
  sqe.fd = listen_fd;
  sqe.user_data = user_data;
  sqe.a[0] = auto_arm ? 1 : 0;
  return ring.sq_push(sqe) != fstack::FfUring::Push::kFull;
}

inline bool push_epoll_arm(fstack::FfUring& ring, int epfd,
                           std::uint64_t user_data) {
  fstack::FfUringSqe sqe;
  sqe.op = fstack::UringOp::kEpollArm;
  sqe.fd = epfd;
  sqe.user_data = user_data;
  return ring.sq_push(sqe) != fstack::FfUring::Push::kFull;
}

// ---------------------------------------------------------------------------
// Ring-native control plane (v5): connection lifecycle without leaving the
// submission ring. One CQE per verdict; user_data is caller-chosen and aux0
// always echoes the fd so completions can be routed per connection.
// ---------------------------------------------------------------------------

/// OP_CONNECT: begin a TCP handshake toward `peer`. The CQE arrives only
/// once the handshake RESOLVES — result 0 on ESTABLISHED, -errno on
/// refusal/timeout — never an intermediate -EINPROGRESS.
inline bool push_connect(fstack::FfUring& ring, int fd,
                         const fstack::FfSockAddrIn& peer,
                         std::uint64_t user_data) {
  fstack::FfUringSqe sqe;
  sqe.op = fstack::UringOp::kConnect;
  sqe.fd = fd;
  sqe.user_data = user_data;
  sqe.a[0] = fstack::uring_pack_addr(peer);
  return ring.sq_push(sqe) != fstack::FfUring::Push::kFull;
}

/// OP_CLOSE: immediate-verdict close of `fd` (result = ff_close verdict).
inline bool push_close(fstack::FfUring& ring, int fd,
                       std::uint64_t user_data) {
  fstack::FfUringSqe sqe;
  sqe.op = fstack::UringOp::kClose;
  sqe.fd = fd;
  sqe.user_data = user_data;
  return ring.sq_push(sqe) != fstack::FfUring::Push::kFull;
}

/// OP_EPOLL_CTL: add/del/mod `target` in epoll instance `epfd` through the
/// ring (immediate-verdict CQE) instead of a proxied ff_epoll_ctl crossing.
inline bool push_epoll_ctl(fstack::FfUring& ring, int epfd,
                           fstack::EpollOp op, int target,
                           std::uint32_t events, std::uint64_t data,
                           std::uint64_t user_data) {
  fstack::FfUringSqe sqe;
  sqe.op = fstack::UringOp::kEpollCtl;
  sqe.fd = epfd;
  sqe.user_data = user_data;
  sqe.a[0] = static_cast<std::uint64_t>(op);
  sqe.a[1] = static_cast<std::uint64_t>(target);
  sqe.a[2] = events;
  sqe.a[3] = data;
  return ring.sq_push(sqe) != fstack::FfUring::Push::kFull;
}

/// OP_SET_CLASS (v7): assign `fd`'s flow to QoS TX class `cls` through the
/// ring (immediate-verdict CQE). On a listener the class propagates to
/// subsequently accepted children.
inline bool push_set_class(fstack::FfUring& ring, int fd, std::uint32_t cls,
                           std::uint64_t user_data) {
  fstack::FfUringSqe sqe;
  sqe.op = fstack::UringOp::kSetClass;
  sqe.fd = fd;
  sqe.user_data = user_data;
  sqe.a[0] = cls;
  return ring.sq_push(sqe) != fstack::FfUring::Push::kFull;
}

}  // namespace cherinet::apps
