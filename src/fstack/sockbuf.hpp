// Socket buffers: byte rings over capability-bounded compartment memory.
//
// Bytes live in tagged memory behind an exactly-bounded capability (the
// data plane never leaves the CHERI world). Since the TCP send queue
// became a TxChain (tx_chain.hpp), SockBuf is the chain's COPY-PATH
// backing ring: plain ff_write payload lands here and stays until
// cumulatively acknowledged, interleaved in sequence order with the
// chain's zero-copy mbuf slices; the head of the ring is always the first
// unacked copied byte.
#pragma once

#include <cstdint>
#include <span>

#include "machine/cap_view.hpp"

namespace cherinet::fstack {

class SockBuf {
 public:
  SockBuf() = default;
  explicit SockBuf(machine::CapView mem) : mem_(mem), cap_(mem.size()) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  [[nodiscard]] std::size_t free() const noexcept { return cap_ - used_; }
  [[nodiscard]] bool empty() const noexcept { return used_ == 0; }

  /// Append from a caller capability (checked on both sides). Returns bytes
  /// actually written (bounded by free space). When `csum` is non-null the
  /// one's-complement partial sum of the admitted bytes (even-aligned
  /// relative to the first byte written, checksum_combine form) accumulates
  /// into it during the copy — the ONE pass the bytes make through the
  /// stack also prices their wire checksum, so emission never re-reads.
  std::size_t write_from(const machine::CapView& src, std::size_t src_off,
                         std::size_t n, std::uint32_t* csum = nullptr);

  /// Copy bytes out at logical offset `off` from the head, without
  /// consuming (TCP uses this to build segments from unacked data).
  void peek(std::size_t off, std::span<std::byte> out) const;

  /// Drop `n` bytes from the head (cumulative ACK).
  void consume(std::size_t n);

  /// The backing capability view (scatter-gather emission windows it to
  /// hand ring spans to the driver as indirect mbuf segments).
  [[nodiscard]] const machine::CapView& memory() const noexcept {
    return mem_;
  }

  /// Map logical [off, off+n) onto its <= 2 physical extents (the second
  /// only when the range wraps the ring edge). Returns the extent count.
  struct PhysSpan {
    std::size_t off = 0;
    std::size_t len = 0;
  };
  std::size_t phys_spans(std::size_t off, std::size_t n,
                         PhysSpan out[2]) const;

 private:
  machine::CapView mem_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // physical index of logical byte 0
  std::size_t used_ = 0;
};

}  // namespace cherinet::fstack
