// Futex-based mutex on a shared tagged-memory word (musl pthread_mutex
// style).
//
// Scenario 2 serializes the F-Stack main loop against cross-compartment
// ff_* calls with exactly such a mutex (paper §III-A). The fast path is a
// user-space CAS on the shared word; contention escalates through musl's
// futex — which the Intravisor translates to CheriBSD _umtx_op — so a
// contended acquisition pays trampoline + kernel wake costs. That
// escalation is the entire story of the paper's Fig. 6 (~19 µs, ~152x).
//
// Word protocol (musl): 0 = unlocked, 1 = locked, 2 = locked with waiters.
#pragma once

#include <atomic>
#include <cstdint>

#include "intravisor/musl.hpp"
#include "machine/cap_view.hpp"

namespace cherinet::iv {

class CompartmentMutex {
 public:
  /// `word` must be a 4-byte RW view of shared memory, initialized to 0.
  CompartmentMutex(MuslLibc* libc, machine::CapView word);

  void lock() { lock(libc_); }
  void unlock() { unlock(libc_); }
  [[nodiscard]] bool try_lock();

  /// Variants for callers from *other* compartments: the futex escalation
  /// must go through the calling compartment's own musl/trampoline (each
  /// contender pays its own crossing, as on the real system).
  void lock(MuslLibc* libc);
  void unlock(MuslLibc* libc);

  [[nodiscard]] std::uint64_t fast_acquires() const noexcept {
    return fast_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t contended_acquires() const noexcept {
    return contended_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const machine::CapView& word() const noexcept { return word_; }

 private:
  std::uint32_t cas(std::uint32_t expected, std::uint32_t desired);

  MuslLibc* libc_;
  machine::CapView word_;
  std::atomic<std::uint64_t> fast_{0};
  std::atomic<std::uint64_t> contended_{0};
};

/// RAII guard (std::lock_guard needs BasicLockable on a reference).
class CompartmentLockGuard {
 public:
  explicit CompartmentLockGuard(CompartmentMutex& m, MuslLibc* libc = nullptr)
      : m_(m), libc_(libc) {
    if (libc_ != nullptr) {
      m_.lock(libc_);
    } else {
      m_.lock();
    }
  }
  ~CompartmentLockGuard() {
    if (libc_ != nullptr) {
      m_.unlock(libc_);
    } else {
      m_.unlock();
    }
  }
  CompartmentLockGuard(const CompartmentLockGuard&) = delete;
  CompartmentLockGuard& operator=(const CompartmentLockGuard&) = delete;

 private:
  CompartmentMutex& m_;
  MuslLibc* libc_;
};

}  // namespace cherinet::iv
