#include "apps/echo.hpp"

#include <algorithm>
#include <cerrno>

namespace cherinet::apps {

namespace {

// Events reaped per epoll_wait: a proxied call marshals at most 64.
constexpr std::size_t kMaxEvents = 64;

}  // namespace

EchoServer::EchoServer(FfOps* ops, std::uint16_t port,
                       machine::CapView scratch)
    : ops_(ops), scratch_(scratch) {
  // Scatter-gather echo: one readv drains into the two halves of the
  // scratch buffer and one writev pushes the bytes back.
  const std::size_t size = static_cast<std::size_t>(scratch_.size());
  const std::size_t half = size / 2;
  halves_[0] = {scratch_.window(0, half), half};
  halves_[1] = {scratch_.window(half, size - half), size - half};
  listen_fd_ = ops_->socket_stream();
  ops_->bind(listen_fd_, fstack::Ipv4Addr{}, port);
  ops_->listen(listen_fd_, 8);
  epfd_ = ops_->epoll_create();
  ops_->epoll_ctl(epfd_, fstack::EpollOp::kAdd, listen_fd_, fstack::kEpollIn,
                  static_cast<std::uint64_t>(listen_fd_));
}

bool EchoServer::accept_ready() {
  bool accepted = false;
  for (int fd = ops_->accept(listen_fd_); fd >= 0;
       fd = ops_->accept(listen_fd_)) {
    ops_->epoll_ctl(epfd_, fstack::EpollOp::kAdd, fd, fstack::kEpollIn,
                    static_cast<std::uint64_t>(fd));
    // Served this very step: data may have arrived with the handshake.
    conns_.push_back(Conn{fd, true, {}});
    accepted = true;
  }
  return accepted;
}

bool EchoServer::send(Conn& c, std::size_t n, bool& progress) {
  const std::size_t lo = std::min(n, halves_[0].len);
  const fstack::FfIovec wio[2] = {{halves_[0].buf, lo},
                                  {halves_[1].buf, n - lo}};
  const std::int64_t w = ops_->writev(c.fd, {wio, n > lo ? 2u : 1u});
  if (w < 0 && w != -EAGAIN) return false;
  const std::size_t sent = w > 0 ? static_cast<std::size_t>(w) : 0;
  echoed_ += sent;
  progress |= sent > 0;
  const bool was_owing = !c.tail.empty();
  c.tail.resize(n - sent);
  if (!c.tail.empty()) scratch_.read(sent, c.tail);
  // While bytes are owed, wake on send space only: input waits until
  // they are out.
  if (was_owing != !c.tail.empty()) {
    ops_->epoll_ctl(epfd_, fstack::EpollOp::kMod, c.fd,
                    c.tail.empty() ? fstack::kEpollIn : fstack::kEpollOut,
                    static_cast<std::uint64_t>(c.fd));
  }
  return true;
}

bool EchoServer::serve(Conn& c, bool& progress) {
  if (!c.tail.empty()) {
    scratch_.write(0, c.tail);
    if (!send(c, c.tail.size(), progress)) return false;
    if (!c.tail.empty()) return true;
  }
  const std::int64_t r = ops_->readv(c.fd, halves_);
  if (r == -EAGAIN) return true;
  if (r <= 0) return false;  // EOF, or a failed read
  progress = true;
  return send(c, static_cast<std::size_t>(r), progress);
}

bool EchoServer::step() {
  // One epoll_wait names the connections with work; idle ones cost
  // nothing. Level-triggered, so a fd the buffer could not hold is
  // reported again next step.
  fstack::FfEpollEvent evs[kMaxEvents];
  const int n = ops_->epoll_wait(epfd_, evs);
  bool listener = false;
  for (Conn& c : conns_) c.ready = false;
  for (int i = 0; i < n; ++i) {
    const int fd = static_cast<int>(evs[i].data);
    if (fd == listen_fd_) listener = true;
    for (Conn& c : conns_) {
      if (c.fd == fd) c.ready = true;
    }
  }
  bool progress = listener && accept_ready();
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (!it->ready || serve(*it, progress)) {
      ++it;
      continue;
    }
    // Closing drops the fd from the epoll set as well.
    ops_->close(it->fd);
    it = conns_.erase(it);
    progress = true;
  }
  return progress;
}

EchoClient::EchoClient(FfOps* ops, fstack::Ipv4Addr dst, std::uint16_t port,
                       std::string message, machine::CapView scratch)
    : ops_(ops), scratch_(scratch), message_(std::move(message)) {
  fd_ = ops_->socket_stream();
  ops_->connect(fd_, dst, port);
}

bool EchoClient::step() {
  if (done_) return false;
  bool progress = false;
  // Push outstanding request bytes through the capability buffer.
  while (sent_ < message_.size()) {
    const std::size_t n = std::min<std::size_t>(
        message_.size() - sent_, static_cast<std::size_t>(scratch_.size()));
    scratch_.write(0, std::as_bytes(std::span{message_.data() + sent_, n}));
    const std::int64_t r = ops_->write(fd_, scratch_, n);
    if (r <= 0) break;
    sent_ += static_cast<std::size_t>(r);
    progress = true;
  }
  // Collect the echo.
  while (reply_.size() < message_.size()) {
    const std::int64_t r = ops_->read(fd_, scratch_, scratch_.size());
    if (r <= 0) break;
    std::string chunk(static_cast<std::size_t>(r), '\0');
    scratch_.read(0, std::as_writable_bytes(
                         std::span{chunk.data(), chunk.size()}));
    reply_ += chunk;
    progress = true;
  }
  if (reply_.size() >= message_.size()) {
    ops_->close(fd_);
    done_ = true;
    progress = true;
  }
  return progress;
}

}  // namespace cherinet::apps
