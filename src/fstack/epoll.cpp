#include "fstack/epoll.hpp"

#include <cerrno>

namespace cherinet::fstack {

int EpollInstance::ctl(EpollOp op, int fd, std::uint32_t events,
                       std::uint64_t data) {
  switch (op) {
    case EpollOp::kAdd:
      if (interest_.contains(fd)) return -EEXIST;
      interest_[fd] = Interest{events, data};
      return 0;
    case EpollOp::kMod: {
      const auto it = interest_.find(fd);
      if (it == interest_.end()) return -ENOENT;
      it->second.events = events;  // the publication record stays
      it->second.data = data;
      return 0;
    }
    case EpollOp::kDel:
      return interest_.erase(fd) > 0 ? 0 : -ENOENT;
  }
  return -EINVAL;
}

void EpollInstance::arm_sink(
    std::function<bool(std::uint32_t, std::uint64_t)> sink) {
  sink_ = std::move(sink);
  forget_published();  // re-arming republishes the current readiness
}

void EpollInstance::disarm() {
  sink_ = nullptr;
  forget_published();
}

void EpollInstance::forget_published() {
  for (auto& [fd, w] : interest_) {
    w.published = 0;
    w.published_gen = 0;
  }
}

}  // namespace cherinet::fstack
