// Fixed-size mbuf pool over an SP/SC ring (rte_mempool analogue).
//
// All data rooms are carved from the owning compartment's heap at pool
// creation, each as its own exactly-bounded capability. The pool region is
// also what the driver grants to the NIC DMA engine — so device writes are
// confined to packet memory even if a descriptor is corrupted.
//
// Besides the direct buffers the pool keeps an equal number of INDIRECT
// mbuf headers (no data room of their own): alloc_indirect attaches one to
// a window of another buffer's room under that buffer's refcount — the
// chained-frame segments scatter-gather emission hands the driver (see the
// driver ABI comment in mbuf.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/heap.hpp"
#include "updk/mbuf.hpp"
#include "updk/ring.hpp"

namespace cherinet::updk {

class Mempool {
 public:
  /// Create `n_mbufs` buffers of `data_room` bytes each from `heap` (plus
  /// `n_mbufs` room-less indirect headers, costing no heap memory).
  Mempool(machine::CompartmentHeap* heap, std::uint32_t n_mbufs,
          std::uint32_t data_room);

  /// Allocate one mbuf (refcnt=1, reset offsets). Null when exhausted.
  [[nodiscard]] Mbuf* alloc();

  /// Allocate up to `out.size()` mbufs in one call
  /// (rte_pktmbuf_alloc_bulk); unobtained tail slots are nulled. Returns
  /// the number obtained.
  [[nodiscard]] std::size_t alloc_bulk(std::span<Mbuf*> out);

  /// Attach an indirect mbuf onto [off, off+len) of `owner`'s data room
  /// (rte_pktmbuf_attach): the owner gains a reference held until the
  /// indirect segment is freed, so the slice stays live however the
  /// original holder releases its own reference. Null when the indirect
  /// ring is exhausted.
  [[nodiscard]] Mbuf* alloc_indirect(Mbuf* owner, std::uint32_t off,
                                     std::uint32_t len);

  /// Attach an indirect mbuf onto a raw bounded view (stack-internal
  /// memory with no refcount, e.g. a send-ring span). LIFETIME IS THE
  /// CALLER'S PROBLEM: the view must stay untouched until the chain is
  /// freed — the stack guarantees it by flushing staged frames before any
  /// write into ring memory.
  [[nodiscard]] Mbuf* alloc_indirect_view(const machine::CapView& view);

  /// Take an additional reference (shared ownership). The RX path uses this
  /// to loan a received data room onward — to a socket's RX chain or to the
  /// application as an OP_ZC_RECV loan — while the driver burst still holds
  /// its own reference.
  void retain(Mbuf* m);

  /// Drop one reference; returns the buffer to the ring at zero. Freeing
  /// an indirect mbuf detaches it (releasing its owner reference) and
  /// returns the header to the indirect ring.
  void free(Mbuf* m);

  /// Free a whole tx chain (head + every linked segment) — how the driver
  /// releases a fetched frame.
  void free_chain(Mbuf* head);

  /// Drop one reference from a *loan*: at zero the data room goes straight
  /// back onto the free ring. Buffers always enter the ring pre-reset
  /// (constructor/free/recycle), so alloc() hands them out untouched.
  /// Counted separately so the RX census can prove loaned buffers return
  /// through recycling and nothing else.
  void recycle(Mbuf* m);

  /// Free a whole burst (skips null entries) — how the stack's RX loop
  /// returns each rx_burst to the ring.
  void free_bulk(std::span<Mbuf* const> ms);

  /// Drop one reference from the TCP send queue (TxChain): a zc TX room
  /// held until cumulative ACK returns to the free ring pre-reset, exactly
  /// like an RX loan recycle, but counted on its own so the TX census can
  /// prove retained send buffers come back through acknowledgement (or
  /// teardown) and nothing else.
  void release_tx(Mbuf* m);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(mbufs_.size());
  }
  [[nodiscard]] std::uint32_t available() const noexcept {
    return static_cast<std::uint32_t>(free_ring_.count());
  }
  [[nodiscard]] std::uint32_t indirect_available() const noexcept {
    return static_cast<std::uint32_t>(indirect_ring_.count());
  }
  [[nodiscard]] std::uint32_t data_room() const noexcept {
    return data_room_;
  }
  [[nodiscard]] Mbuf& at(std::uint32_t i) { return mbufs_[i]; }

  struct Stats {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t alloc_failures = 0;
    std::uint64_t retains = 0;
    std::uint64_t recycles = 0;
    std::uint64_t tx_releases = 0;  // zc TX refs released (ACK / teardown)
    std::uint64_t indirect_allocs = 0;
    std::uint64_t indirect_frees = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Shared refcnt-zero path: direct buffers return to the free ring
  /// pre-reset; indirect headers detach and return to the indirect ring.
  void retire(Mbuf* m, std::uint64_t Stats::* counter);

  std::uint32_t data_room_;
  std::vector<Mbuf> mbufs_;
  std::vector<Mbuf> indirect_;
  Ring<std::uint32_t> free_ring_;
  Ring<std::uint32_t> indirect_ring_;
  Stats stats_;
};

}  // namespace cherinet::updk
