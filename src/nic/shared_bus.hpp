// Shared PCI-bus model for the dual-port 82576 card.
//
// The paper's dual-port bandwidth plateaus (658 Mbit/s per port receiving,
// 757 Mbit/s sending — attributed to "hardware limitations imposed by the
// PCI NIC") are modeled as direction-dependent aggregate serialization of
// DMA wire-bytes across both ports. Reservations are FIFO, which yields the
// round-robin fairness of the hardware's PCI bus arbitration, and lossless
// backpressure: a frame's wire transmission simply starts when its DMA slot
// completes, so TCP sees a clean rate limit rather than drops — matching
// the paper's loss-free plateaus.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/virtual_clock.hpp"

namespace cherinet::nic {

class SharedBus {
 public:
  /// Direction is relative to host memory: kRx = device-to-memory (frames
  /// being received), kTx = memory-to-device (frames being sent).
  enum class Dir : std::uint8_t { kRx, kTx };

  SharedBus(double rx_bits_per_sec, double tx_bits_per_sec)
      : rx_(rx_bits_per_sec), tx_(tx_bits_per_sec) {}

  /// Reserve a DMA slot for `wire_bytes` starting no earlier than `ready`.
  /// Returns the completion time of the transfer.
  sim::Ns reserve(Dir d, std::uint64_t wire_bytes, sim::Ns ready) {
    Lane& lane = d == Dir::kRx ? rx_ : tx_;
    return lane.reserve(wire_bytes, ready);
  }

  [[nodiscard]] std::uint64_t rx_bytes() const { return rx_.total_bytes(); }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_.total_bytes(); }

 private:
  class Lane {
   public:
    explicit Lane(double bits_per_sec) : bits_per_sec_(bits_per_sec) {}
    sim::Ns reserve(std::uint64_t wire_bytes, sim::Ns ready) {
      const double ns =
          static_cast<double>(wire_bytes) * 8.0 * 1e9 / bits_per_sec_;
      const sim::Ns start = std::max(ready, next_free_);
      next_free_ = start + sim::Ns{static_cast<std::int64_t>(ns)};
      bytes_ += wire_bytes;
      return next_free_;
    }
    [[nodiscard]] std::uint64_t total_bytes() const { return bytes_; }

   private:
    double bits_per_sec_;
    sim::Ns next_free_{0};
    std::uint64_t bytes_ = 0;
  };

  Lane rx_;
  Lane tx_;
};

}  // namespace cherinet::nic
