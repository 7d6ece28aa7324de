#include "fstack/api.hpp"

#include <cerrno>

namespace cherinet::fstack {

int ff_socket(FfStack& st, int domain, int type, int protocol) {
  (void)protocol;
  if (domain != kAfInet) return -EAFNOSUPPORT;
  switch (type) {
    case kSockStream:
      return st.sock_socket(SockKind::kTcp);
    case kSockDgram:
      return st.sock_socket(SockKind::kUdp);
    default:
      return -EPROTONOSUPPORT;
  }
}

int ff_bind(FfStack& st, int fd, const FfSockAddrIn& addr) {
  return st.sock_bind(fd, addr.ip, addr.port);
}

int ff_listen(FfStack& st, int fd, int backlog) {
  return st.sock_listen(fd, backlog);
}

int ff_accept(FfStack& st, int fd, FfSockAddrIn* peer) {
  FourTuple t;
  const int r = st.sock_accept(fd, &t);
  if (r >= 0 && peer != nullptr) {
    peer->ip = t.remote_ip;
    peer->port = t.remote_port;
  }
  return r;
}

int ff_connect(FfStack& st, int fd, const FfSockAddrIn& addr) {
  return st.sock_connect(fd, addr.ip, addr.port);
}

std::int64_t ff_write(FfStack& st, int fd, const machine::CapView& buf,
                      std::size_t nbytes) {
  return st.sock_write(fd, buf, nbytes);
}

std::int64_t ff_read(FfStack& st, int fd, const machine::CapView& buf,
                     std::size_t nbytes) {
  return st.sock_read(fd, buf, nbytes);
}

std::int64_t ff_writev(FfStack& st, int fd, std::span<const FfIovec> iov) {
  return st.sock_writev(fd, iov);
}

std::int64_t ff_readv(FfStack& st, int fd, std::span<const FfIovec> iov) {
  return st.sock_readv(fd, iov);
}

int ff_zc_alloc(FfStack& st, std::size_t len, FfZcBuf* out) {
  return st.sock_zc_alloc(len, out);
}

std::int64_t ff_zc_send(FfStack& st, int fd, FfZcBuf& zc, std::size_t len) {
  return st.sock_zc_send(fd, zc, len);
}

int ff_zc_abort(FfStack& st, FfZcBuf& zc) { return st.sock_zc_abort(zc); }

std::int64_t ff_zc_recv(FfStack& st, int fd, std::span<FfZcRxBuf> out) {
  return st.sock_zc_recv(fd, out);
}

int ff_zc_recycle(FfStack& st, FfZcRxBuf& zc) {
  return st.sock_zc_recycle(zc);
}

std::int64_t ff_zc_recycle_batch(FfStack& st, std::span<FfZcRxBuf> zcs) {
  std::int64_t n = 0;
  for (FfZcRxBuf& zc : zcs) {
    if (st.sock_zc_recycle(zc) == 0) ++n;
  }
  return n;
}

std::int64_t ff_sendto(FfStack& st, int fd, const machine::CapView& buf,
                       std::size_t nbytes, const FfSockAddrIn& to) {
  return st.sock_sendto(fd, buf, nbytes, to.ip, to.port);
}

std::int64_t ff_recvfrom(FfStack& st, int fd, const machine::CapView& buf,
                         std::size_t nbytes, FfSockAddrIn* from) {
  FourTuple t;
  const std::int64_t r = st.sock_recvfrom(fd, buf, nbytes, &t);
  if (r >= 0 && from != nullptr) {
    from->ip = t.remote_ip;
    from->port = t.remote_port;
  }
  return r;
}

int ff_close(FfStack& st, int fd) { return st.sock_close(fd); }

int ff_set_class(FfStack& st, int fd, std::uint32_t cls) {
  return st.sock_set_class(fd, cls);
}

int ff_epoll_create(FfStack& st) { return st.epoll_create(); }

int ff_epoll_ctl(FfStack& st, int epfd, EpollOp op, int fd,
                 std::uint32_t events, std::uint64_t data) {
  return st.epoll_ctl(epfd, op, fd, events, data);
}

int ff_epoll_wait(FfStack& st, int epfd, std::span<FfEpollEvent> events) {
  return st.epoll_wait(epfd, events);
}

int ff_uring_attach(FfStack& st, const machine::CapView& mem,
                    std::uint32_t sq_capacity, std::uint32_t cq_capacity) {
  return st.uring_attach(mem, sq_capacity, cq_capacity);
}

int ff_uring_detach(FfStack& st, int id) { return st.uring_detach(id); }

int ff_uring_doorbell(FfStack& st, int id) { return st.uring_doorbell(id); }

int ff_tenant_register(FfStack& st, std::string name,
                       const TenantQuota& quota) {
  return st.tenant_register(std::move(name), quota);
}

int ff_set_tenant(FfStack& st, int fd, int tid) {
  return st.sock_set_tenant(fd, tid);
}

int ff_uring_bind_tenant(FfStack& st, int ring_id, int tid) {
  return st.uring_bind_tenant(ring_id, tid);
}

int ff_tenant_evict(FfStack& st, int tid) { return st.tenant_evict(tid); }

const TenantStats* ff_tenant_stats(const FfStack& st, int tid) {
  return st.tenant_stats(tid);
}

}  // namespace cherinet::fstack
