// FfOps: the socket-operation surface applications program against.
//
// In Scenario 1 (and Baseline) an application calls F-Stack directly; in
// Scenario 2 the same application is linked against wrapper functions that
// perform the cross-compartment jump into the network cVM (paper §III-B:
// "we also implemented the wrapper functions to the API of F-Stack to do
// the cross-compartment jump"). Applications therefore depend only on this
// interface and run unmodified in every scenario — exactly the paper's
// porting story for iperf3.
//
// Each call a binding overrides is one Scenario 2 sealed entry (16 in all;
// scenarios/scenario2.hpp). Everything else — zero-copy RX and TX, QoS
// classes, multishot accept, the connection lifecycle — rides the ff_uring
// rings, so it adds no entry and no virtual here.
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

  // API v3: the ff_uring unified boundary (fstack/uring.hpp). One attach
  // crossing arms a submission/completion capability-ring pair; from then
  // on the application submits with plain capability stores and reaps with
  // plain loads — zero crossings per operation in steady state, a doorbell
  // crossing only on an empty->non-empty SQ transition while the stack is
  // parked. Zero-copy RX (OP_ZC_RECV / OP_RECYCLE), zero-copy TX
  // (OP_ZC_ALLOC / OP_ZC_SEND / OP_ZC_ABORT), QoS class changes
  // (OP_SET_CLASS) and multishot accept ride this ring.
  virtual int uring_attach(const machine::CapView& mem,
                           std::uint32_t sq_capacity,
                           std::uint32_t cq_capacity) = 0;
  virtual int uring_detach(int id) = 0;
  virtual int uring_doorbell(int id) = 0;

  // Retired: every call below answers -ENOTSUP, no binding overrides it,
  // and nothing in this library calls it. They survive only because a
  // decorator outside the library (bench/e2e/timed.hpp) still forwards
  // them.
  //  * API v10: the v2 multishot event ring — arm readiness with
  //    OP_EPOLL_ARM on an ff_uring instead;
  //  * API v12: the zero-copy TX, QoS-class and accept-batch entries —
  //    use OP_ZC_ALLOC / OP_ZC_SEND / OP_ZC_ABORT, OP_SET_CLASS, and
  //    accept() or OP_ACCEPT_MULTISHOT;
  //  * the zero-copy RX entries — use OP_ZC_RECV / OP_RECYCLE.
  // CHANGES.md records when each went.
  virtual int epoll_wait_multishot(int /*epfd*/,
                                   const machine::CapView& /*ring*/,
                                   std::uint32_t /*capacity*/) {
    return -ENOTSUP;
  }
  virtual int epoll_cancel_multishot(int /*epfd*/) { return -ENOTSUP; }
  virtual int accept_batch(int /*fd*/, std::span<int> /*out*/) {
    return -ENOTSUP;
  }
  virtual int zc_alloc(std::size_t /*len*/, fstack::FfZcBuf* /*out*/) {
    return -ENOTSUP;
  }
  virtual std::int64_t zc_send(int /*fd*/, fstack::FfZcBuf& /*zc*/,
                               std::size_t /*len*/,
                               const fstack::FfSockAddrIn& /*to*/) {
    return -ENOTSUP;
  }
  virtual int zc_abort(fstack::FfZcBuf& /*zc*/) { return -ENOTSUP; }
  virtual int set_class(int /*fd*/, std::uint32_t /*cls*/) {
    return -ENOTSUP;
  }
  virtual std::int64_t zc_recv(int /*fd*/,
                               std::span<fstack::FfZcRxBuf> /*out*/) {
    return -ENOTSUP;
  }
  virtual std::int64_t zc_recycle_batch(
      std::span<fstack::FfZcRxBuf> /*zcs*/) {
    return -ENOTSUP;
  }

  virtual int close(int fd) = 0;
  virtual int epoll_create() = 0;
  virtual int epoll_ctl(int epfd, fstack::EpollOp op, int fd,
                        std::uint32_t events, std::uint64_t data) = 0;
  virtual int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) = 0;
};

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
