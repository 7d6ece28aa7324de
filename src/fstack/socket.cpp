#include "fstack/socket.hpp"

namespace cherinet::fstack {

Socket* SocketTable::create(SockKind kind) {
  if (open_ >= kMaxSockets) return nullptr;
  // Reuse the lowest free slot (POSIX-like fd behaviour).
  std::size_t idx = 0;
  for (; idx < slots_.size(); ++idx) {
    if (!slots_[idx]) break;
  }
  if (idx == slots_.size()) slots_.emplace_back();
  auto s = std::make_unique<Socket>();
  s->fd = static_cast<int>(idx) + kFirstFd;
  s->kind = kind;
  if (kind == SockKind::kUdp) s->udp = std::make_unique<UdpPcb>();
  if (kind == SockKind::kEpoll) s->epoll = std::make_unique<EpollInstance>();
  slots_[idx] = std::move(s);
  ++open_;
  return slots_[idx].get();
}

Socket* SocketTable::get(int fd) {
  const int idx = fd - kFirstFd;
  if (idx < 0 || static_cast<std::size_t>(idx) >= slots_.size()) {
    return nullptr;
  }
  return slots_[idx].get();
}

const Socket* SocketTable::get(int fd) const {
  const int idx = fd - kFirstFd;
  if (idx < 0 || static_cast<std::size_t>(idx) >= slots_.size()) {
    return nullptr;
  }
  return slots_[idx].get();
}

void SocketTable::release(int fd) {
  const int idx = fd - kFirstFd;
  if (idx < 0 || static_cast<std::size_t>(idx) >= slots_.size() ||
      !slots_[idx]) {
    return;
  }
  slots_[idx].reset();
  --open_;
}

}  // namespace cherinet::fstack
