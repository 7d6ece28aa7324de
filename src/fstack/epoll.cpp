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
      it->second = Interest{events, data};
      return 0;
    }
    case EpollOp::kDel:
      last_.erase(fd);
      return interest_.erase(fd) > 0 ? 0 : -ENOENT;
  }
  return -EINVAL;
}

void EpollInstance::arm_sink(
    std::function<bool(std::uint32_t, std::uint64_t)> sink) {
  sink_ = std::move(sink);
  last_.clear();  // re-arming republishes the current readiness
}

void EpollInstance::disarm() {
  sink_ = nullptr;
  last_.clear();
}

bool EpollInstance::publish(int fd, std::uint32_t ready, std::uint64_t gen) {
  auto& last = last_[fd];
  if (ready == 0) {  // went quiet: remember, but epoll delivers no event
    last.mask = 0;
    last.gen = gen;
    return false;
  }
  if (ready == last.mask && gen == last.gen) return false;
  if (!sink_(ready, interest_.at(fd).data)) return false;  // CQ full: retry
  last.mask = ready;
  last.gen = gen;
  return true;
}

}  // namespace cherinet::fstack
