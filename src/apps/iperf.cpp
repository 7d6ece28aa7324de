#include "apps/iperf.hpp"

#include <algorithm>
#include <cerrno>

namespace cherinet::apps {

namespace {
// user_data tags of the uring-mode arms (zc bursts tag with the conn fd).
constexpr std::uint64_t kUdAccept = 1;
constexpr std::uint64_t kUdEpoll = 2;
}  // namespace

// ---------------------------------------------------------------- server

IperfServer::IperfServer(FfOps* ops, sim::VirtualClock* clock,
                         std::uint16_t port, machine::CapView rx,
                         int expected_connections, bool zero_copy)
    : ops_(ops),
      clock_(clock),
      rx_(rx),
      expected_(expected_connections),
      zero_copy_(zero_copy) {
  listen_fd_ = ops_->socket_stream();
  ops_->bind(listen_fd_, fstack::Ipv4Addr{}, port);
  ops_->listen(listen_fd_, 8);
  epfd_ = ops_->epoll_create();
  ops_->epoll_ctl(epfd_, fstack::EpollOp::kAdd, listen_fd_, fstack::kEpollIn,
                  static_cast<std::uint64_t>(listen_fd_));
}

IperfServer::~IperfServer() {
  if (uring_.has_value()) uring_teardown();
}

void IperfServer::uring_teardown() {
  // Tokens still in the accumulator go back synchronously, and ring-queued
  // OP_RECYCLE entries are drained NOW via the (synchronous) doorbell —
  // detaching with entries pending would drop their tokens and pin the
  // loaned data rooms forever. Reap the CQ between rings: a full CQ makes
  // every drain a no-op, so the doorbell alone cannot make progress.
  ur_recycler_.flush_sync();
  const auto reap = [this] {
    fstack::FfUringCqe cq[16];
    for (std::size_t n = uring_->cq_pop(cq); n > 0; n = uring_->cq_pop(cq)) {
      for (std::size_t i = 0; i < n; ++i) {
        // A straggler loan CQE reaped here still owes its token back.
        if (cq[i].op == fstack::UringOp::kZcRecv && cq[i].result >= 0 &&
            (cq[i].flags & fstack::kCqeEof) == 0 && cq[i].aux0 != 0) {
          fstack::FfZcRxBuf z;
          z.token = cq[i].aux0;
          ops_->zc_recycle_batch({&z, 1});
        }
      }
    }
  };
  for (int spins = 0; spins < 64 && uring_->sq_pending() > 0; ++spins) {
    reap();
    ops_->uring_doorbell(uring_id_);
  }
  reap();
  ops_->uring_detach(uring_id_);
  uring_.reset();
  ur_recycler_ = fstack::FfUringRecycler();  // no dangling ring pointer
}

int IperfServer::use_uring(machine::CapView ring_mem,
                           std::uint32_t sq_capacity,
                           std::uint32_t cq_capacity) {
  fstack::FfUring ring(ring_mem, sq_capacity, cq_capacity);
  const int id = ops_->uring_attach(ring_mem, sq_capacity, cq_capacity);
  if (id < 0) return id;
  uring_ = ring;
  uring_id_ = id;
  // CQ-sized credit ledger (uring_proto.hpp): bursts may fill at most half
  // the CQ so completions for accept/readiness/recycle always have room.
  ur_credits_.configure(
      cq_capacity, static_cast<std::uint32_t>(fstack::FfUringSqe::kMaxCaps));
  ur_recycler_ =
      fstack::FfUringRecycler(&*uring_, classic_recycle_fallback(ops_));
  // Arm once: accepted fds and readiness arrive as CQEs from here on.
  push_accept_arm(*uring_, listen_fd_, kUdAccept);
  push_epoll_arm(*uring_, epfd_, kUdEpoll);
  if (uring_->stack_parked()) ops_->uring_doorbell(uring_id_);
  return 0;
}

/// The shared receive-pipeline CQE discipline (apps/uring_proto.hpp)
/// applied to the server's per-connection state. zc bursts tag user_data
/// with the connection fd.
struct IperfServer::RxDispatch {
  IperfServer& s;

  Conn* conn_of(std::uint64_t user_data) {
    for (Conn& c : s.conns_) {
      if (c.fd == static_cast<int>(user_data) && !c.done) return &c;
    }
    return nullptr;
  }
  void on_accept(int fd, const fstack::FfSockAddrIn&) {
    if (static_cast<int>(s.conns_.size()) < s.expected_) {
      s.conns_.push_back(Conn{fd, IperfReport{}, false, true, false});
      s.ops_->epoll_ctl(s.epfd_, fstack::EpollOp::kAdd, fd, fstack::kEpollIn,
                        static_cast<std::uint64_t>(fd));
    } else {
      // The multishot arm accepts past expected_ (the classic path simply
      // stopped calling accept): close the surplus rather than leak it
      // and strand the peer.
      s.ops_->close(fd);
    }
  }
  void on_readiness(std::uint32_t mask, std::uint64_t data) {
    // A publication is a nonempty mask that changed or saw new activity
    // (a quiet mask is recorded, never posted); an OUT or ERR edge alone
    // leaves nothing to drain, so only a readable/hangup mask makes a
    // drain burst worth submitting.
    if ((mask & (fstack::kEpollIn | fstack::kEpollHup)) != 0) {
      for (Conn& c : s.conns_) {
        if (c.fd == static_cast<int>(data)) c.hot = true;
      }
    }
  }
  void on_loan(const fstack::FfUringCqe& cqe) {
    Conn* c = conn_of(cqe.user_data);
    if (c == nullptr) return;
    if (c->report.bytes == 0 && cqe.result > 0) {
      c->report.first_byte = s.clock_->now();
    }
    c->report.bytes += static_cast<std::uint64_t>(cqe.result);
    c->report.last_byte = s.clock_->now();
    s.ur_recycler_.add(cqe.aux0);
  }
  void on_eof(std::uint64_t user_data) {
    Conn* c = conn_of(user_data);
    if (c == nullptr) return;
    // EOF: return the tail tokens SYNCHRONOUSLY (one teardown crossing) —
    // a ring entry pushed now might never drain once the server stops
    // stepping, and loans must not outlive it.
    s.ur_recycler_.flush_sync();
    s.finish(*c);
  }
  void on_drained(std::uint64_t user_data) {
    Conn* c = conn_of(user_data);
    if (c != nullptr) c->hot = false;  // wait for the next readiness CQE
  }
  void on_burst_end(std::uint64_t user_data) {
    for (Conn& c : s.conns_) {
      if (c.fd == static_cast<int>(user_data) && c.inflight) {
        c.inflight = false;
        s.ur_credits_.release();
      }
    }
  }
};

bool IperfServer::step_uring() {
  bool progress = false;
  fstack::FfUringCqe cq[16];
  const std::size_t n = uring_->cq_pop(cq);
  RxDispatch h{*this};
  for (std::size_t i = 0; i < n; ++i) {
    progress = true;
    dispatch_rx_cqe(cq[i], h);
  }
  // One zc burst per connection, up to the ledger's credits overlapped
  // inside the same CQ window, rotated round-robin so a saturating sender
  // that stays hot cannot starve its siblings of harvest bursts.
  if (!conns_.empty()) {
    for (std::size_t k = 0; k < conns_.size() && ur_credits_.available();
         ++k) {
      Conn& c = conns_[(ur_next_conn_ + k) % conns_.size()];
      if (c.done || !c.hot || c.inflight) continue;
      if (!push_zc_recv(*uring_, c.fd, fstack::FfUringSqe::kMaxCaps,
                        static_cast<std::uint64_t>(c.fd))) {
        break;  // SQ full: retry next step
      }
      c.inflight = true;
      ur_credits_.acquire();
      progress = true;
    }
    ur_next_conn_ = (ur_next_conn_ + 1) % conns_.size();
  }
  if (ur_bell_.should_ring(*uring_, progress)) {
    ops_->uring_doorbell(uring_id_);
  }
  if (finished()) {
    // End the stack's use of the delegated ring capability as soon as the
    // last connection completes — the ring region is app memory and must
    // not be drained (or written) past the server's lifetime.
    uring_teardown();
  }
  return progress;
}

void IperfServer::finish(Conn& c) {
  c.done = true;
  ops_->epoll_ctl(epfd_, fstack::EpollOp::kDel, c.fd, 0, 0);
  ops_->close(c.fd);
  ++completed_;
  if (total_.bytes == 0 || c.report.first_byte < total_.first_byte) {
    total_.first_byte = c.report.first_byte;
  }
  total_.bytes += c.report.bytes;
  total_.last_byte = std::max(total_.last_byte, c.report.last_byte);
}

void IperfServer::drain_zero_copy(Conn& c) {
  while (true) {
    fstack::FfZcRxBuf loans[kZcBatch];
    const std::int64_t r = ops_->zc_recv(c.fd, loans);
    if (r > 0) {
      std::uint64_t got = 0;
      for (std::int64_t i = 0; i < r; ++i) got += loans[i].data.size();
      if (c.report.bytes == 0) c.report.first_byte = clock_->now();
      c.report.bytes += got;
      c.report.last_byte = clock_->now();
      // The payload is consumed in place (a real receiver would parse it
      // through the read-only loan); recycling is what returns the data
      // rooms — and the receive window — in one batched call.
      ops_->zc_recycle_batch({loans, static_cast<std::size_t>(r)});
      continue;
    }
    if (r == 0) finish(c);  // EOF
    return;  // -EAGAIN or EOF
  }
}

void IperfServer::drain(Conn& c) {
  if (zero_copy_) {
    drain_zero_copy(c);
    return;
  }
  while (true) {
    const std::int64_t r = ops_->read(c.fd, rx_, rx_.size());
    if (r > 0) {
      if (c.report.bytes == 0) c.report.first_byte = clock_->now();
      c.report.bytes += static_cast<std::uint64_t>(r);
      c.report.last_byte = clock_->now();
      // A short read emptied the socket: stop here instead of crossing
      // again for -EAGAIN. Whatever lands later, a FIN queued behind
      // these bytes included, keeps the level-triggered wait reporting
      // the fd, and the read after that wait sees it.
      if (static_cast<std::uint64_t>(r) < rx_.size()) break;
      continue;
    }
    if (r == 0) finish(c);  // EOF: connection complete
    break;  // -EAGAIN or EOF
  }
}

void IperfServer::accept_ready() {
  while (static_cast<int>(conns_.size()) < expected_) {
    const int fd = ops_->accept(listen_fd_);
    if (fd < 0) break;
    conns_.push_back(Conn{fd, IperfReport{}, false, false, false});
    ops_->epoll_ctl(epfd_, fstack::EpollOp::kAdd, fd, fstack::kEpollIn,
                    static_cast<std::uint64_t>(fd));
  }
}

bool IperfServer::step() {
  if (uring_.has_value()) return step_uring();
  bool progress = false;
  fstack::FfEpollEvent evs[16];
  const int n = ops_->epoll_wait(epfd_, evs);
  for (int i = 0; i < n; ++i) {
    const int fd = static_cast<int>(evs[i].data);
    if (fd == listen_fd_) {
      const std::size_t before = conns_.size();
      accept_ready();
      progress |= conns_.size() != before;
      continue;
    }
    for (Conn& c : conns_) {
      if (c.fd != fd || c.done) continue;
      const std::uint64_t before = c.report.bytes;
      const bool was_done = c.done;
      drain(c);
      progress |= c.report.bytes != before || c.done != was_done;
    }
  }
  return progress;
}

// ---------------------------------------------------------------- client

IperfClient::IperfClient(FfOps* ops, sim::VirtualClock* clock,
                         fstack::Ipv4Addr dst, std::uint16_t port,
                         std::uint64_t total_bytes, machine::CapView tx,
                         std::size_t chunk, std::size_t batch)
    : ops_(ops),
      clock_(clock),
      dst_(dst),
      port_(port),
      total_(total_bytes),
      tx_(tx),
      chunk_(std::min(chunk, tx.size() > 0 ? static_cast<std::size_t>(tx.size())
                                           : chunk)),
      batch_(std::clamp<std::size_t>(batch, 1, kMaxBatch)) {
  fd_ = ops_->socket_stream();
  ops_->connect(fd_, dst_, port_);
}

IperfClient::~IperfClient() {
  if (uring_.has_value()) ops_->uring_detach(uring_id_);
}

int IperfClient::use_uring(machine::CapView ring_mem,
                           std::uint32_t sq_capacity,
                           std::uint32_t cq_capacity, bool zero_copy) {
  fstack::FfUring ring(ring_mem, sq_capacity, cq_capacity);
  const int id = ops_->uring_attach(ring_mem, sq_capacity, cq_capacity);
  if (id < 0) return id;
  uring_ = ring;
  uring_id_ = id;
  ur_zero_copy_ = zero_copy;
  if (zero_copy) {
    // The payload is composed straight into the granted data room through
    // the writable bounded capability — the stack never copies a byte and
    // holds the mbuf reference until cumulative ACK.
    zc_proto_ = UringZcTxProto(
        &*uring_, fd_, chunk_,
        [this](const machine::CapView& room, std::size_t len) {
          std::byte scratch[512];
          machine::cap_copy(room, 0, tx_, 0, len, scratch);
        });
  } else {
    tx_proto_ = UringTxProto(
        &*uring_, fd_, tx_, chunk_,
        std::min<std::size_t>(batch_, fstack::FfUringSqe::kMaxCaps));
  }
  return 0;
}

/// Close-out shared by the classic and ring send paths.
void IperfClient::client_summary() {
  report_.bytes = sent_;
  report_.last_byte = clock_->now();
  ops_->close(fd_);
  if (epfd_ >= 0) ops_->close(epfd_);
  state_ = State::kClosed;
  done_ = true;
}

bool IperfClient::step_uring_send() {
  bool progress = false;
  // Bytes that moved outside the ring (the 1-byte connect probe) count as
  // externally confirmed so the protocols cover exactly the remainder.
  if (ur_ext_ == 0 && sent_ > 0) {
    ur_ext_ = sent_;
    if (!ur_zero_copy_) tx_proto_.note_external(sent_);
  }
  fstack::FfUringCqe cq[16];
  const std::size_t n = uring_->cq_pop(cq);
  bool bytes_advanced = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t got = ur_zero_copy_ ? zc_proto_.on_cqe(cq[i])
                                            : tx_proto_.on_cqe(cq[i]);
    sent_ += got;
    bytes_advanced |= got > 0;
    progress |= got > 0;
  }
  if (n > 0 && !bytes_advanced) {
    // Every completion bounced off a full send buffer (or was an alloc
    // grant): back off for one step instead of churning the ring.
    if (!ur_zero_copy_) return progress;
  }
  // Submit: plain capability stores, no crossing.
  const std::uint32_t pushed = ur_zero_copy_
                                   ? zc_proto_.pump(total_ - ur_ext_)
                                   : tx_proto_.offer(total_);
  progress |= pushed > 0;
  if (ur_zero_copy_ && zc_proto_.failed()) {
    // Permanent failure (connection died, impossible chunk): wind down
    // with whatever was confirmed instead of livelocking on resubmission —
    // but only once every reservation still held has been aborted.
    if (!zc_proto_.wound_down()) {
      if (bell_.should_ring(*uring_, progress)) {
        ops_->uring_doorbell(uring_id_);
      }
      return progress;
    }
    ops_->uring_detach(uring_id_);
    uring_.reset();
    client_summary();
    return true;
  }
  if (bell_.should_ring(*uring_, progress)) {
    ops_->uring_doorbell(uring_id_);
  }
  if (sent_ >= total_) {
    ops_->uring_detach(uring_id_);
    uring_.reset();
    client_summary();
    progress = true;
  }
  return progress;
}

bool IperfClient::send_space() {
  if (epfd_ < 0) {
    epfd_ = ops_->epoll_create();
    if (epfd_ < 0) return true;  // no epoll: write until the stack refuses
    ops_->epoll_ctl(epfd_, fstack::EpollOp::kAdd, fd_, fstack::kEpollOut,
                    static_cast<std::uint64_t>(fd_));
  }
  fstack::FfEpollEvent ev[1];
  return ops_->epoll_wait(epfd_, ev) > 0;
}

bool IperfClient::step() {
  if (done_) return false;
  bool progress = false;
  switch (state_) {
    case State::kConnecting: {
      // Probe connection establishment by attempting a write.
      const std::int64_t r = ops_->write(fd_, tx_, 1);
      if (r == 1) {
        state_ = State::kSending;
        sent_ = 1;
        report_.first_byte = clock_->now();
        progress = true;
      }
      break;
    }
    case State::kSending: {
      if (uring_.has_value()) {
        progress = step_uring_send();
        break;
      }
      if (sent_ < total_ && !send_space()) return progress;
      while (sent_ < total_) {
        std::int64_t r;
        std::uint64_t want = 0;
        if (batch_ > 1) {
          // Gather path: one ff_writev moves up to batch_ chunks (the
          // payload is synthetic, so every iovec views the same bytes).
          fstack::FfIovec iov[kMaxBatch];
          std::size_t k = 0;
          for (; k < batch_ && sent_ + want < total_; ++k) {
            const std::size_t n =
                std::min<std::uint64_t>(chunk_, total_ - sent_ - want);
            iov[k] = {tx_.window(0, n), n};
            want += n;
          }
          r = ops_->writev(fd_, {iov, k});
        } else {
          want = std::min<std::uint64_t>(chunk_, total_ - sent_);
          r = ops_->write(fd_, tx_, want);
        }
        if (r <= 0) return progress;  // buffer full: resume next step
        sent_ += static_cast<std::uint64_t>(r);
        progress = true;
        // A short write filled the buffer: wait for space again.
        if (static_cast<std::uint64_t>(r) < want) return progress;
      }
      client_summary();
      progress = true;
      break;
    }
    case State::kClosed:
      break;
  }
  return progress;
}

}  // namespace cherinet::apps
