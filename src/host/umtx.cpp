#include "host/umtx.hpp"

#include <algorithm>

namespace cherinet::host {

UmtxTable::WaitResult UmtxTable::wait_uint(const cheri::Capability& auth,
                                           std::uint64_t addr,
                                           std::uint32_t expected) {
  std::unique_lock lk(mu_);
  // Re-check under the lock: a racing store+wake either already changed the
  // value (return immediately) or its wake arrives after we registered.
  const std::uint32_t current = mem_->atomic_load_u32(auth, addr);
  if (current != expected) return WaitResult::kValueChanged;

  WaitQueue& q = queues_[addr];
  ++q.waiters;
  ++sleeps_;
  q.cv.wait(lk, [&q] { return q.pending_wakes > 0; });
  --q.pending_wakes;
  --q.waiters;
  if (q.waiters == 0 && q.pending_wakes == 0) queues_.erase(addr);
  return WaitResult::kWoken;
}

int UmtxTable::wake(std::uint64_t addr, int count) {
  std::lock_guard lk(mu_);
  const auto it = queues_.find(addr);
  if (it == queues_.end()) return 0;
  WaitQueue& q = it->second;
  const int to_wake = std::min(count, q.waiters - q.pending_wakes);
  if (to_wake <= 0) return 0;
  q.pending_wakes += to_wake;
  q.cv.notify_all();
  return to_wake;
}

std::uint64_t UmtxTable::sleeps() const {
  std::lock_guard lk(mu_);
  return sleeps_;
}

}  // namespace cherinet::host
