#include "updk/pmd_e82576.hpp"

#include <stdexcept>

namespace cherinet::updk {

using nic::kRxStatusDD;
using nic::kTxCmdEOP;
using nic::kTxCmdRS;
using nic::kTxStatusDD;
using nic::RxDesc;
using nic::TxDesc;

E82576Pmd::E82576Pmd(std::string name, nic::E82576Device* dev, int port,
                     std::uint32_t queue, machine::CompartmentHeap* heap,
                     Mempool* pool, sim::VirtualClock* clock,
                     const EthConf& conf)
    : name_(std::move(name)),
      dev_(dev),
      port_(port),
      queue_(queue),
      heap_(heap),
      pool_(pool),
      clock_(clock),
      conf_(conf) {
  if (conf_.rx_ring_size == 0 || conf_.tx_ring_size == 0) {
    throw std::invalid_argument("E82576Pmd: zero ring size");
  }
  if (queue_ >= dev_->port(port_).queue_count()) {
    throw std::invalid_argument("E82576Pmd: queue not configured on port");
  }
  // Negotiate offloads: the 82576 model implements every kOffload* bit, so
  // the effective set is exactly what the configuration requested.
  offloads_ = conf_.offloads & kOffloadAll;
  setup_rx_ring();
  setup_tx_ring();
  dev_->port(port_).enable();
}

void E82576Pmd::setup_rx_ring() {
  rx_ring_ = heap_->alloc_view(conf_.rx_ring_size * sizeof(RxDesc));
  rx_staged_.resize(conf_.rx_ring_size, nullptr);
  for (std::uint32_t i = 0; i < conf_.rx_ring_size; ++i) {
    Mbuf* m = pool_->alloc();
    if (m == nullptr) {
      throw std::runtime_error("E82576Pmd: pool too small for RX ring");
    }
    rx_staged_[i] = m;
    RxDesc d{};
    d.buffer_addr = m->room.address() + kMbufHeadroom;
    rx_ring_.store<RxDesc>(i * sizeof(RxDesc), d);
  }
  auto& p = dev_->port(port_);
  p.set_rx_ring(queue_, rx_ring_.address(), conf_.rx_ring_size,
                pool_->data_room() - kMbufHeadroom);
  // Leave one slot of slack: device fills up to (RDT - 1).
  p.write_rdt(queue_, conf_.rx_ring_size - 1);
}

void E82576Pmd::setup_tx_ring() {
  tx_ring_ = heap_->alloc_view(conf_.tx_ring_size * sizeof(TxDesc));
  tx_pending_.resize(conf_.tx_ring_size, nullptr);
  for (std::uint32_t i = 0; i < conf_.tx_ring_size; ++i) {
    TxDesc d{};
    d.status = kTxStatusDD;  // start reclaimable
    tx_ring_.store<TxDesc>(i * sizeof(TxDesc), d);
  }
  dev_->port(port_).set_tx_ring(queue_, tx_ring_.address(),
                                conf_.tx_ring_size);
}

std::size_t E82576Pmd::rx_burst(std::span<Mbuf*> out) {
  dev_->poll_queue(port_, queue_, clock_->now());
  std::size_t got = 0;
  while (got < out.size()) {
    RxDesc d = rx_ring_.load<RxDesc>(rx_next_ * sizeof(RxDesc));
    if ((d.status & kRxStatusDD) == 0) break;
    // Allocate the replacement *first*: if the pool is dry we leave the
    // descriptor staged (its buffer still belongs to the ring) and retry on
    // a later burst, exactly like DPDK's rx_nombuf handling.
    Mbuf* fresh = pool_->alloc();
    if (fresh == nullptr) break;
    Mbuf* filled = rx_staged_[rx_next_];
    filled->data_off = kMbufHeadroom;
    filled->data_len = d.length;
    // Translate the descriptor's checksum verdict write-back into mbuf
    // flags — only when this queue negotiated RX checksum offload, so a
    // masked-off queue's stack falls back to software verification.
    filled->ol_flags = 0;
    if ((offloads_ & kOffloadRxCsum) != 0) {
      if ((d.status & nic::kRxStatusIpCs) != 0) {
        filled->ol_flags |= (d.errors & nic::kRxErrorIpE) != 0 ? kRxCsumIpBad
                                                               : kRxCsumIpGood;
      }
      if ((d.status & nic::kRxStatusL4Cs) != 0) {
        filled->ol_flags |= (d.errors & nic::kRxErrorL4E) != 0 ? kRxCsumL4Bad
                                                               : kRxCsumL4Good;
      }
    }
    out[got++] = filled;
    stats_.ipackets++;
    stats_.ibytes += d.length;

    rx_staged_[rx_next_] = fresh;
    RxDesc nd{};
    nd.buffer_addr = fresh->room.address() + kMbufHeadroom;
    rx_ring_.store<RxDesc>(rx_next_ * sizeof(RxDesc), nd);
    // RDT chases the just-refilled slot (igb convention: device may fill
    // up to RDT-1, keeping one slot of slack).
    dev_->port(port_).write_rdt(queue_, rx_next_);
    rx_next_ = (rx_next_ + 1) % conf_.rx_ring_size;
  }
  stats_.imissed = dev_->port(port_).queue_stats(queue_).rx_no_desc;
  return got;
}

void E82576Pmd::reclaim_tx() {
  while (tx_clean_ != tx_next_) {
    TxDesc d = tx_ring_.load<TxDesc>(tx_clean_ * sizeof(TxDesc));
    if ((d.status & kTxStatusDD) == 0) break;
    if (tx_pending_[tx_clean_] != nullptr) {
      // The chain head is parked on its LAST descriptor slot: every
      // earlier segment of the frame was fetched before this one wrote
      // back, so the whole chain (indirect segments detaching their
      // attached rooms) can return now.
      pool_->free_chain(tx_pending_[tx_clean_]);
      tx_pending_[tx_clean_] = nullptr;
    }
    tx_clean_ = (tx_clean_ + 1) % conf_.tx_ring_size;
  }
}

std::size_t E82576Pmd::tx_burst(std::span<Mbuf*> in) {
  dev_->poll_queue(port_, queue_, clock_->now());
  reclaim_tx();
  std::size_t sent = 0;
  for (Mbuf* head : in) {
    // One descriptor per non-empty segment; frames are all-or-nothing
    // against the ring space (a torn chain must never reach the wire).
    std::uint32_t nsegs = 0;
    std::uint32_t bytes = 0;
    Mbuf* last = nullptr;
    for (Mbuf* s = head; s != nullptr; s = s->next) {
      if (s->data_len == 0) continue;
      ++nsegs;
      bytes += s->data_len;
      last = s;
    }
    if (nsegs == 0) {  // nothing to send: consume the frame anyway
      pool_->free_chain(head);
      ++sent;
      continue;
    }
    // Offload translation (head mbuf ol_flags → descriptor surface). TSO
    // frames reference a context descriptor; checksum-only frames use the
    // legacy IC/css/cso insertion on their first data descriptor.
    const bool tso = (head->ol_flags & kTxOffloadTso) != 0 &&
                     (offloads_ & kOffloadTxTso) != 0;
    const bool csum_tcp = (head->ol_flags & kTxOffloadTcpCsum) != 0 &&
                          (offloads_ & kOffloadTxTcpCsum) != 0;
    const bool csum_udp = (head->ol_flags & kTxOffloadUdpCsum) != 0 &&
                          (offloads_ & kOffloadTxUdpCsum) != 0;
    const bool csum = !tso && (csum_tcp || csum_udp);
    const bool need_ctx =
        tso && (!tx_ctx_cached_ || tx_ctx_cache_.l2_len != head->l2_len ||
                tx_ctx_cache_.l3_len != head->l3_len ||
                tx_ctx_cache_.l4_len != head->l4_len ||
                tx_ctx_cache_.mss != head->tso_segsz);
    const std::uint32_t slots = nsegs + (need_ctx ? 1u : 0u);
    if (slots > conf_.tx_ring_size - 1) {
      // The chain can NEVER fit this ring (even empty it has ring_size-1
      // usable slots): consume and drop it rather than wedge the queue.
      pool_->free_chain(head);
      stats_.oerrors++;
      ++sent;
      continue;
    }
    const std::uint32_t free_slots =
        (tx_clean_ + conf_.tx_ring_size - tx_next_ - 1) % conf_.tx_ring_size;
    if (slots > free_slots) break;  // ring full this burst: caller retries
    if (need_ctx) {
      nic::TxCtxDesc c{};
      c.l2_len = head->l2_len;
      c.l3_len = head->l3_len;
      c.l4_len = head->l4_len;
      c.olflags = nic::kTxCtxOlTso | nic::kTxCtxOlTcp | nic::kTxCtxOlIp;
      c.mss = head->tso_segsz;
      c.cmd = nic::kTxCmdCtx | nic::kTxCmdRS;
      tx_ring_.store<nic::TxCtxDesc>(tx_next_ * sizeof(nic::TxCtxDesc), c);
      tx_pending_[tx_next_] = nullptr;
      tx_next_ = (tx_next_ + 1) % conf_.tx_ring_size;
      tx_ctx_cache_ = c;
      tx_ctx_cached_ = true;
    }
    bool first = true;
    for (Mbuf* s = head; s != nullptr; s = s->next) {
      if (s->data_len == 0) continue;
      TxDesc d{};
      d.buffer_addr = s->data_addr();
      d.length = static_cast<std::uint16_t>(s->data_len);
      d.cmd = static_cast<std::uint8_t>(kTxCmdRS |
                                        (s == last ? kTxCmdEOP : 0));
      if (first && csum) {
        d.cmd |= nic::kTxCmdIC;
        d.css = static_cast<std::uint8_t>(head->l2_len + head->l3_len);
        d.cso = static_cast<std::uint8_t>(d.css + (csum_tcp ? 16 : 6));
      }
      if (first && tso) d.cmd |= nic::kTxCmdTse;
      first = false;
      tx_ring_.store<TxDesc>(tx_next_ * sizeof(TxDesc), d);
      // Park the chain on the frame's final slot (null elsewhere): its
      // write-back proves the device fetched every segment.
      tx_pending_[tx_next_] = s == last ? head : nullptr;
      tx_next_ = (tx_next_ + 1) % conf_.tx_ring_size;
    }
    stats_.opackets++;
    stats_.obytes += bytes;
    stats_.tx_segs += slots;
    if (tso) {
      const std::uint32_t hdr = static_cast<std::uint32_t>(head->l2_len) +
                                head->l3_len + head->l4_len;
      stats_.tso_frames++;
      stats_.tso_bytes += bytes > hdr ? bytes - hdr : 0;
    }
    ++sent;
  }
  if (sent > 0) stats_.tx_bursts++;  // only calls that carried frames
  dev_->port(port_).write_tdt(queue_, tx_next_);
  // Let the device fetch immediately (polling model), then reclaim.
  dev_->poll_queue(port_, queue_, clock_->now());
  reclaim_tx();
  return sent;
}

EthStats E82576Pmd::stats() const { return stats_; }

}  // namespace cherinet::updk
