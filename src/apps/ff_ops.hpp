// FfOps: the socket-operation surface applications program against.
//
// In Scenario 1 (and Baseline) an application calls F-Stack directly; in
// Scenario 2 the same application is linked against wrapper functions that
// perform the cross-compartment jump into the network cVM (paper §III-B:
// "we also implemented the wrapper functions to the API of F-Stack to do
// the cross-compartment jump"). Applications therefore depend only on this
// interface and run unmodified in every scenario — exactly the paper's
// porting story for iperf3.
#pragma once

#include <cerrno>
#include <cstdint>

#include "fstack/api.hpp"

namespace cherinet::apps {

class FfOps {
 public:
  virtual ~FfOps() = default;

  virtual int socket_stream() = 0;
  virtual int bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) = 0;
  virtual int listen(int fd, int backlog) = 0;
  virtual int accept(int fd) = 0;
  virtual int connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) = 0;
  virtual std::int64_t write(int fd, const machine::CapView& buf,
                             std::size_t n) = 0;
  virtual std::int64_t read(int fd, const machine::CapView& buf,
                            std::size_t n) = 0;

  // API v2: scatter-gather batches (one compartment crossing per batch in
  // Scenario 2). Every binding implements the genuinely batched path.
  virtual std::int64_t writev(int fd,
                              std::span<const fstack::FfIovec> iov) = 0;
  virtual std::int64_t readv(int fd, std::span<const fstack::FfIovec> iov) = 0;

  /// Drain the accept queue in one go (one compartment crossing for the
  /// whole fd batch behind proxied ops). Returns fds accepted; the default
  /// degrades to per-fd accept() so every binding keeps working.
  virtual int accept_batch(int fd, std::span<int> out) {
    int n = 0;
    for (int& slot : out) {
      const int r = accept(fd);
      if (r < 0) break;
      slot = r;
      ++n;
    }
    return n;
  }

  // Zero-copy TX (API v2): reserve an mbuf data room, fill it in place
  // through the bounded capability, submit. Works for UDP datagrams and —
  // since the TxChain retransmission store — TCP streams (the stack holds
  // the mbuf reference until cumulative ACK; `to` is ignored on TCP).
  // Defaults report -ENOTSUP; bindings either delegate the data room or
  // honestly decline (callers fall back to write()).
  virtual int zc_alloc(std::size_t len, fstack::FfZcBuf* out) {
    (void)len;
    (void)out;
    return -ENOTSUP;
  }
  virtual std::int64_t zc_send(int fd, fstack::FfZcBuf& zc, std::size_t len,
                               const fstack::FfSockAddrIn& to) {
    (void)fd;
    (void)zc;
    (void)len;
    (void)to;
    return -ENOTSUP;
  }
  virtual int zc_abort(fstack::FfZcBuf& zc) {
    (void)zc;
    return -ENOTSUP;
  }

  // Zero-copy RX (API v2). The defaults report -ENOTSUP: no per-element
  // fallback preserves the zero-copy contract, so bindings either implement
  // the loan path or honestly decline (callers fall back to read()).
  virtual std::int64_t zc_recv(int fd, std::span<fstack::FfZcRxBuf> out) {
    (void)fd;
    (void)out;
    return -ENOTSUP;
  }
  virtual std::int64_t zc_recycle_batch(std::span<fstack::FfZcRxBuf> zcs) {
    (void)zcs;
    return -ENOTSUP;
  }

  // API v3: the ff_uring unified boundary (fstack/uring.hpp). One attach
  // crossing arms a submission/completion capability-ring pair; from then
  // on the application submits with plain capability stores and reaps with
  // plain loads — zero crossings per operation in steady state, a doorbell
  // crossing only on an empty->non-empty SQ transition while the stack is
  // parked. Defaults report -ENOTSUP; the Direct/Proxy bindings override.
  virtual int uring_attach(const machine::CapView& mem,
                           std::uint32_t sq_capacity,
                           std::uint32_t cq_capacity) {
    (void)mem;
    (void)sq_capacity;
    (void)cq_capacity;
    return -ENOTSUP;
  }
  virtual int uring_detach(int id) {
    (void)id;
    return -ENOTSUP;
  }
  virtual int uring_doorbell(int id) {
    (void)id;
    return -ENOTSUP;
  }

  /// Retired (API v10): the v2 multishot event ring is gone — arm
  /// readiness with OP_EPOLL_ARM on an ff_uring instead. Both calls answer
  /// -ENOTSUP and survive only because decorators outside this library
  /// (bench/e2e/timed.hpp) still forward them.
  virtual int epoll_wait_multishot(int epfd, const machine::CapView& ring,
                                   std::uint32_t capacity) {
    (void)epfd;
    (void)ring;
    (void)capacity;
    return -ENOTSUP;
  }
  virtual int epoll_cancel_multishot(int epfd) {
    (void)epfd;
    return -ENOTSUP;
  }

  /// API v7: assign fd's flow to a QoS TX class (see fstack/qos.hpp). The
  /// default declines so every binding keeps working; Direct/Proxy bindings
  /// delegate to ff_set_class.
  virtual int set_class(int fd, std::uint32_t cls) {
    (void)fd;
    (void)cls;
    return -ENOTSUP;
  }

  virtual int close(int fd) = 0;
  virtual int epoll_create() = 0;
  virtual int epoll_ctl(int epfd, fstack::EpollOp op, int fd,
                        std::uint32_t events, std::uint64_t data) = 0;
  virtual int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) = 0;
};

/// The FfUringRecycler fallback every ring consumer shares: a token batch
/// the SQ refused goes back through ONE classic zc_recycle_batch crossing
/// instead of piling up while the loans stay window-charged.
inline fstack::FfUringRecycler::Fallback classic_recycle_fallback(
    FfOps* ops) {
  return [ops](std::span<const std::uint64_t> toks) {
    fstack::FfZcRxBuf zcs[fstack::FfUringSqe::kMaxTokens];
    for (std::size_t i = 0; i < toks.size(); ++i) zcs[i].token = toks[i];
    ops->zc_recycle_batch({zcs, toks.size()});
  };
}

/// Direct binding: app and stack share a compartment (Baseline, Scenario 1).
class DirectFfOps final : public FfOps {
 public:
  explicit DirectFfOps(fstack::FfStack* st) : st_(st) {}

  int socket_stream() override {
    return fstack::ff_socket(*st_, fstack::kAfInet, fstack::kSockStream, 0);
  }
  int bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return fstack::ff_bind(*st_, fd, {ip, port});
  }
  int listen(int fd, int backlog) override {
    return fstack::ff_listen(*st_, fd, backlog);
  }
  int accept(int fd) override { return fstack::ff_accept(*st_, fd, nullptr); }
  int connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return fstack::ff_connect(*st_, fd, {ip, port});
  }
  std::int64_t write(int fd, const machine::CapView& buf,
                     std::size_t n) override {
    return fstack::ff_write(*st_, fd, buf, n);
  }
  std::int64_t read(int fd, const machine::CapView& buf,
                    std::size_t n) override {
    return fstack::ff_read(*st_, fd, buf, n);
  }
  std::int64_t writev(int fd, std::span<const fstack::FfIovec> iov) override {
    return fstack::ff_writev(*st_, fd, iov);
  }
  std::int64_t readv(int fd, std::span<const fstack::FfIovec> iov) override {
    return fstack::ff_readv(*st_, fd, iov);
  }
  int zc_alloc(std::size_t len, fstack::FfZcBuf* out) override {
    return fstack::ff_zc_alloc(*st_, len, out);
  }
  std::int64_t zc_send(int fd, fstack::FfZcBuf& zc, std::size_t len,
                       const fstack::FfSockAddrIn& to) override {
    return fstack::ff_zc_send(*st_, fd, zc, len, to);
  }
  int zc_abort(fstack::FfZcBuf& zc) override {
    return fstack::ff_zc_abort(*st_, zc);
  }
  std::int64_t zc_recv(int fd, std::span<fstack::FfZcRxBuf> out) override {
    return fstack::ff_zc_recv(*st_, fd, out);
  }
  std::int64_t zc_recycle_batch(std::span<fstack::FfZcRxBuf> zcs) override {
    return fstack::ff_zc_recycle_batch(*st_, zcs);
  }
  int uring_attach(const machine::CapView& mem, std::uint32_t sq_capacity,
                   std::uint32_t cq_capacity) override {
    return fstack::ff_uring_attach(*st_, mem, sq_capacity, cq_capacity);
  }
  int uring_detach(int id) override {
    return fstack::ff_uring_detach(*st_, id);
  }
  int uring_doorbell(int id) override {
    return fstack::ff_uring_doorbell(*st_, id);
  }
  int set_class(int fd, std::uint32_t cls) override {
    return fstack::ff_set_class(*st_, fd, cls);
  }
  int close(int fd) override { return fstack::ff_close(*st_, fd); }
  int epoll_create() override { return fstack::ff_epoll_create(*st_); }
  int epoll_ctl(int epfd, fstack::EpollOp op, int fd, std::uint32_t events,
                std::uint64_t data) override {
    return fstack::ff_epoll_ctl(*st_, epfd, op, fd, events, data);
  }
  int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) override {
    return fstack::ff_epoll_wait(*st_, epfd, out);
  }

 private:
  fstack::FfStack* st_;
};

}  // namespace cherinet::apps
