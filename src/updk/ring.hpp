// Bounded single-producer/single-consumer ring (rte_ring in its SP/SC
// mode).
//
// DPDK's rte_ring is the backbone of mempools and inter-core handoff; with
// RING_F_SP_ENQ | RING_F_SC_DEQ each side owns its index outright and no
// compare-and-swap is needed. Every rig here runs on one thread, so that
// is the mode the mempools use. Capacity is a power of two; one slot is
// never wasted because occupancy is tracked by index difference (indices
// wrap modulo 2^32).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace cherinet::updk {

template <typename T>
class Ring {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit Ring(std::size_t capacity) {
    std::size_t c = 1;
    while (c < capacity) c <<= 1;
    slots_.resize(c);
    mask_ = static_cast<std::uint32_t>(c - 1);
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t count() const noexcept { return tail_ - head_; }
  [[nodiscard]] bool empty() const noexcept { return count() == 0; }

  bool enqueue(const T& v) { return enqueue_burst({&v, 1}) == 1; }

  /// Enqueue up to in.size() items; returns how many were enqueued
  /// (as many as fit, DPDK "variable" semantics).
  std::size_t enqueue_burst(std::span<const T> in) {
    const std::uint32_t free_slots =
        static_cast<std::uint32_t>(slots_.size()) - (tail_ - head_);
    const auto take =
        std::min(static_cast<std::uint32_t>(in.size()), free_slots);
    for (std::uint32_t i = 0; i < take; ++i) {
      slots_[(tail_ + i) & mask_] = in[i];
    }
    tail_ += take;
    return take;
  }

  std::optional<T> dequeue() {
    T v{};
    return dequeue_burst({&v, 1}) == 1 ? std::optional<T>{v} : std::nullopt;
  }

  std::size_t dequeue_burst(std::span<T> out) {
    const auto take =
        std::min(static_cast<std::uint32_t>(out.size()), tail_ - head_);
    for (std::uint32_t i = 0; i < take; ++i) {
      out[i] = slots_[(head_ + i) & mask_];
    }
    head_ += take;
    return take;
  }

 private:
  std::vector<T> slots_;
  std::uint32_t mask_ = 0;
  std::uint32_t head_ = 0;  // next slot to dequeue
  std::uint32_t tail_ = 0;  // next slot to enqueue
};

}  // namespace cherinet::updk
