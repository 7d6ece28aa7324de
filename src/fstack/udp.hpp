// UDP protocol control block: bounded datagram receive queue.
//
// v2 receive semantics: a datagram delivered from the RX burst is queued as
// a zero-copy *loan* of its mbuf data room (the pcb co-owns the buffer via
// Mempool::retain) whenever the payload lives in one data room; reassembled
// fragments fall back to copied storage. The queue has exactly two
// consumers, both FIFO and neither waiting for a batch to fill:
// ff_recvfrom copies one datagram out (clamped to the destination's
// bounds), and ff_zc_recv / OP_ZC_RECV pops whole datagrams as loans.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fstack/inet.hpp"
#include "updk/mempool.hpp"

namespace cherinet::fstack {

struct UdpDatagram {
  Ipv4Addr src;
  std::uint16_t src_port = 0;
  std::vector<std::byte> data;   // copy fallback (mbuf == nullptr)
  updk::Mbuf* mbuf = nullptr;    // loaned data room (one reference held)
  std::uint32_t off = 0;
  std::uint32_t len = 0;

  [[nodiscard]] std::size_t size() const noexcept {
    return mbuf != nullptr ? len : data.size();
  }
  /// Budget charge: a loaned datagram pins its whole data room, however
  /// few payload bytes it carries.
  [[nodiscard]] std::size_t charge() const noexcept {
    return mbuf != nullptr ? mbuf->room_size() : data.size();
  }
};

class UdpPcb {
 public:
  explicit UdpPcb(std::size_t max_queued_bytes = 256 * 1024)
      : max_bytes_(max_queued_bytes) {}
  UdpPcb(const UdpPcb&) = delete;
  UdpPcb& operator=(const UdpPcb&) = delete;
  ~UdpPcb() {
    while (!rx_.empty()) release(pop());
  }

  Ipv4Addr local_ip{};
  std::uint16_t local_port = 0;

  /// The mempool loaned datagrams recycle into (set by the owning stack).
  void set_pool(updk::Mempool* pool) noexcept { pool_ = pool; }
  [[nodiscard]] updk::Mempool* pool() const noexcept { return pool_; }

  /// Enqueue a received datagram; drops (and counts) when over budget —
  /// loans handed out through ff_zc_recv charge their whole data room
  /// against the budget until recycled, so a slow recycler throttles its
  /// own socket instead of pinning the shared mempool. A dropped loan is
  /// recycled on the spot.
  bool deliver(UdpDatagram d) {
    if (queued_charge_ + loaned_charge_ + d.charge() > max_bytes_) {
      ++drops_;
      release(std::move(d));
      return false;
    }
    queued_charge_ += d.charge();
    rx_.push_back(std::move(d));
    ++delivered_total_;
    return true;
  }

  /// Loan budget accounting (the owning stack calls these around the
  /// ff_zc_recv / ff_zc_recycle lifecycle).
  void charge_loan(std::size_t charge) noexcept { loaned_charge_ += charge; }
  void credit_loan(std::size_t charge) noexcept {
    loaned_charge_ = charge < loaned_charge_ ? loaned_charge_ - charge : 0;
  }
  [[nodiscard]] std::size_t loaned() const noexcept { return loaned_charge_; }

  [[nodiscard]] bool readable() const noexcept { return !rx_.empty(); }
  /// The oldest queued datagram (caller checked readable()) — lets the
  /// zc path attempt a bounce BEFORE popping, so a failed bounce leaves
  /// the datagram queued and -ENOBUFS retriable.
  [[nodiscard]] const UdpDatagram& front() const { return rx_.front(); }
  /// Monotonic deliveries — the readiness generation for multishot epoll.
  [[nodiscard]] std::uint64_t delivered_total() const noexcept {
    return delivered_total_;
  }
  [[nodiscard]] std::size_t queued() const noexcept { return rx_.size(); }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }

  /// Pop the oldest datagram (caller checked readable()). The caller now
  /// owns the loan reference: copy + release(), or hand it out as a
  /// ff_zc_recv token.
  [[nodiscard]] UdpDatagram pop() {
    UdpDatagram d = std::move(rx_.front());
    rx_.pop_front();
    queued_charge_ -= d.charge();
    return d;
  }

  /// Drop a popped datagram's loan reference (no-op for copy-backed ones).
  void release(UdpDatagram d) {
    if (d.mbuf != nullptr && pool_ != nullptr) pool_->recycle(d.mbuf);
  }

 private:
  std::size_t max_bytes_;
  std::size_t queued_charge_ = 0;
  std::size_t loaned_charge_ = 0;
  std::deque<UdpDatagram> rx_;
  std::uint64_t drops_ = 0;
  std::uint64_t delivered_total_ = 0;
  updk::Mempool* pool_ = nullptr;
};

}  // namespace cherinet::fstack
