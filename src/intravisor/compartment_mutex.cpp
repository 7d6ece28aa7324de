#include "intravisor/compartment_mutex.hpp"

#include <stdexcept>

namespace cherinet::iv {

CompartmentMutex::CompartmentMutex(MuslLibc* libc, machine::CapView word)
    : libc_(libc), word_(word) {
  if (!word_.valid() || word_.size() < 4) {
    throw std::invalid_argument("CompartmentMutex: bad word view");
  }
}

std::uint32_t CompartmentMutex::cas(std::uint32_t expected,
                                    std::uint32_t desired) {
  return word_.mem().atomic_cas_u32(word_.cap(), word_.address(), expected,
                                    desired);
}

bool CompartmentMutex::try_lock() {
  if (cas(0, 1) == 0) {
    fast_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::uint32_t CompartmentMutex::exchange(std::uint32_t desired) {
  return word_.mem().atomic_exchange_u32(word_.cap(), word_.address(),
                                         desired);
}

void CompartmentMutex::lock(MuslLibc* libc) {
  // musl __pthread_mutex_lock's fast path: one CAS on a free word.
  if (cas(0, 1) == 0) {
    fast_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  contended_.fetch_add(1, std::memory_order_relaxed);
  // Slow path (Drepper, "Futexes Are Tricky", mutex 3): mark the word
  // contended and park while it was held. The exchange that finds it free
  // takes it still marked, so unlock() wakes whoever may be parked. Every
  // contended acquisition runs these same lines, however the threads
  // interleave.
  while (exchange(2) != 0) libc->futex_wait(word_, 2);
}

void CompartmentMutex::unlock(MuslLibc* libc) {
  if (exchange(0) == 2) libc->futex_wake(word_, 1);
}

}  // namespace cherinet::iv
