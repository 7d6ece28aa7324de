#include "nic/e82576.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "nic/crc32.hpp"

namespace cherinet::nic {

namespace {

constexpr std::uint16_t be16_at(std::span<const std::byte> f, std::size_t i) {
  return static_cast<std::uint16_t>((std::to_integer<std::uint16_t>(f[i])
                                     << 8) |
                                    std::to_integer<std::uint16_t>(f[i + 1]));
}

constexpr std::uint32_t be32_at(std::span<const std::byte> f, std::size_t i) {
  return (std::to_integer<std::uint32_t>(f[i]) << 24) |
         (std::to_integer<std::uint32_t>(f[i + 1]) << 16) |
         (std::to_integer<std::uint32_t>(f[i + 2]) << 8) |
         std::to_integer<std::uint32_t>(f[i + 3]);
}

constexpr std::uint16_t kEthertypeIpv4 = 0x0800;

void put_be16_at(std::span<std::byte> f, std::size_t i, std::uint16_t v) {
  f[i] = static_cast<std::byte>(v >> 8);
  f[i + 1] = static_cast<std::byte>(v & 0xFF);
}

void put_be32_at(std::span<std::byte> f, std::size_t i, std::uint32_t v) {
  f[i] = static_cast<std::byte>(v >> 24);
  f[i + 1] = static_cast<std::byte>((v >> 16) & 0xFF);
  f[i + 2] = static_cast<std::byte>((v >> 8) & 0xFF);
  f[i + 3] = static_cast<std::byte>(v & 0xFF);
}

// One's-complement accumulation (RFC 1071) — the MAC's own adder, kept
// deliberately independent of the stack's composable checksum helpers so
// the offload property tests compare two implementations, not one with
// itself.
//
// Word-wide (RFC 1071 §2(B)/(C)): the native 32-bit halves of 8-byte loads
// go into two 64-bit accumulators, 16 bytes per iteration (each adds under
// 2^34, so neither can overflow on any frame), then the 8/4/2/1-byte tail.
// The one's-complement sum is byte-order independent: the total, folded
// once to 16 bits and byte-swapped once, has the same residue mod 0xFFFF
// as the big-endian pairwise sum, and is zero only when every byte is. The
// caller's `sum` (big-endian terms) and any pseudo-header terms added
// afterwards compose with it as before, so ocsum_fold gives the value the
// byte-pair loop did.
static_assert(std::endian::native == std::endian::little,
              "the word-wide adder byte-swaps a little-endian sum");

std::uint32_t ocsum(std::span<const std::byte> b, std::uint32_t sum = 0) {
  const std::byte* p = b.data();
  std::size_t n = b.size();
  const auto halves = [](const std::byte* q) {
    std::uint64_t w = 0;
    std::memcpy(&w, q, 8);
    return (w & 0xFFFFFFFFu) + (w >> 32);
  };
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  for (; n >= 16; p += 16, n -= 16) {
    a0 += halves(p);
    a1 += halves(p + 8);
  }
  std::uint64_t acc = a0 + a1;
  if (n >= 8) {
    acc += halves(p);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, p, 4);
    acc += w;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    std::uint16_t w = 0;
    std::memcpy(&w, p, 2);
    acc += w;
    p += 2;
    n -= 2;
  }
  // A trailing odd byte is the high byte of its big-endian word, the low
  // byte of its native one.
  if (n > 0) acc += std::to_integer<std::uint64_t>(*p);
  while ((acc >> 16) != 0) acc = (acc & 0xFFFF) + (acc >> 16);
  const auto f = static_cast<std::uint32_t>(acc);
  return sum + (((f & 0xFF) << 8) | (f >> 8));
}

std::uint16_t ocsum_fold(std::uint32_t sum) {
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

}  // namespace

E82576Device::E82576Device(cheri::TaggedMemory* mem, sim::VirtualClock* clock,
                           std::array<MacAddr, 2> macs)
    : mem_(mem), clock_(clock) {
  ports_[0].mac_ = macs[0];
  ports_[0].index_ = 0;
  ports_[1].mac_ = macs[1];
  ports_[1].index_ = 1;
}

void E82576Device::attach_dma(int port, cheri::Capability dma_cap) {
  dma_caps_.at(port) = dma_cap;
}

void E82576Device::connect(int port, Wire* wire, int side) {
  ports_.at(port).wire_ = wire;
  ports_.at(port).wire_side_ = side;
}

void E82576Device::poll(sim::Ns now) {
  for (auto& p : ports_) p.process(*this, now);
}

void E82576Port::configure_queues(std::uint32_t n) {
  const std::uint32_t count = std::clamp(n, 1u, kMaxQueues);
  queues_.assign(count, Queue{});
  reta_ = make_default_reta(count);
  l4_filters_.fill(L4Filter{});
}

void E82576Port::set_rx_ring(std::uint32_t q, std::uint64_t base,
                             std::uint32_t count, std::uint32_t buf_size) {
  Queue& qu = queues_.at(q);
  qu.rx_base = base;
  qu.rx_count = count;
  qu.rx_buf_size = buf_size;
  qu.rdh = 0;
  qu.rdt = 0;
}

void E82576Port::set_tx_ring(std::uint32_t q, std::uint64_t base,
                             std::uint32_t count) {
  Queue& qu = queues_.at(q);
  qu.tx_base = base;
  qu.tx_count = count;
  qu.tdh = 0;
  qu.tdt = 0;
}

void E82576Port::write_rdt(std::uint32_t q, std::uint32_t v) {
  Queue& qu = queues_.at(q);
  qu.rdt = v % std::max(1u, qu.rx_count);
}

void E82576Port::write_tdt(std::uint32_t q, std::uint32_t v) {
  Queue& qu = queues_.at(q);
  qu.tdt = v % std::max(1u, qu.tx_count);
}

std::uint32_t E82576Port::read_tdh(std::uint32_t q) const {
  return queues_.at(q).tdh;
}

void E82576Port::set_reta_entry(std::uint32_t idx, std::uint8_t queue) {
  reta_.at(idx) = queue;
}

RssReta E82576Port::reta() const {
  return reta_;
}

int E82576Port::set_l4_filter(std::uint8_t proto, std::uint16_t dst_port,
                              std::uint8_t queue) {
  // Re-steering an existing (proto, port) pair reuses its slot.
  for (std::size_t i = 0; i < l4_filters_.size(); ++i) {
    L4Filter& f = l4_filters_[i];
    if (f.valid && f.proto == proto && f.dst_port == dst_port) {
      f.queue = queue;
      return static_cast<int>(i);
    }
  }
  for (std::size_t i = 0; i < l4_filters_.size(); ++i) {
    L4Filter& f = l4_filters_[i];
    if (!f.valid) {
      f = L4Filter{true, proto, dst_port, queue};
      return static_cast<int>(i);
    }
  }
  return -1;
}

void E82576Port::clear_l4_filter(std::uint8_t proto, std::uint16_t dst_port) {
  for (L4Filter& f : l4_filters_) {
    if (f.valid && f.proto == proto && f.dst_port == dst_port) {
      f = L4Filter{};
    }
  }
}

std::uint32_t E82576Port::rx_queue_of(std::uint32_t src_ip,
                                      std::uint32_t dst_ip,
                                      std::uint16_t src_port,
                                      std::uint16_t dst_port,
                                      std::uint8_t proto) const {
  const auto nq = static_cast<std::uint32_t>(queues_.size());
  if (nq <= 1) return 0;
  for (const L4Filter& f : l4_filters_) {
    if (f.valid && f.proto == proto && f.dst_port == dst_port) {
      return f.queue % nq;
    }
  }
  const std::uint32_t hash =
      proto == 6 || proto == 17
          ? rss_hash_ipv4_l4(src_ip, dst_ip, src_port, dst_port)
          : rss_hash_ipv4(src_ip, dst_ip);
  return reta_lookup(reta_, hash) % nq;
}

E82576Port::Stats E82576Port::stats() const {
  Stats agg;
  for (const Queue& q : queues_) {
    agg.rx_packets += q.stats.rx_packets;
    agg.rx_bytes += q.stats.rx_bytes;
    agg.tx_packets += q.stats.tx_packets;
    agg.tx_bytes += q.stats.tx_bytes;
    agg.rx_no_desc += q.stats.rx_no_desc;
    agg.tso_frames += q.stats.tso_frames;
    agg.tso_bytes += q.stats.tso_bytes;
  }
  // Pre-classification rejects (CRC, length) are port-level.
  agg.rx_crc_errors = port_stats_.rx_crc_errors;
  agg.rx_length_errors = port_stats_.rx_length_errors;
  return agg;
}

E82576Port::Stats E82576Port::queue_stats(std::uint32_t q) const {
  return queues_.at(q).stats;
}

void E82576Port::process(E82576Device& dev, sim::Ns now) {
  if (!enabled_ || wire_ == nullptr) return;
  for (Queue& q : queues_) process_tx(dev, q, now);
  process_rx(dev);
}

void E82576Port::process_queue(E82576Device& dev, std::uint32_t q,
                               sim::Ns now) {
  if (!enabled_ || wire_ == nullptr) return;
  process_tx(dev, queues_.at(q), now);
  process_rx(dev);
}

void E82576Port::process_tx(E82576Device& dev, Queue& q, sim::Ns now) {
  const cheri::Capability& auth = dev.dma_cap(index_);
  auto& mem = dev.mem();
  while (q.tx_count != 0 && q.tdh != q.tdt) {
    const std::uint64_t daddr =
        q.tx_base + std::uint64_t{q.tdh} * sizeof(TxDesc);
    TxDesc d = mem.load_scalar<TxDesc>(auth, daddr);
    if ((d.cmd & kTxCmdCtx) != 0) {
      // Context descriptor: latch the queue's offload state (persists until
      // the next context descriptor), write back DD, fetch no buffer.
      TxCtxDesc c = mem.load_scalar<TxCtxDesc>(auth, daddr);
      q.tx_ctx = c;
      q.tx_ctx_valid = true;
      c.status |= kTxStatusDD;
      mem.store_scalar<TxCtxDesc>(auth, daddr, c);
      q.tdh = (q.tdh + 1) % q.tx_count;
      continue;
    }
    if (d.length > 0) {
      // Fetch this segment through the DMA capability (bounds-checked per
      // descriptor): a descriptor without EOP extends the frame, so the
      // device gathers chained-mbuf segments straight from their rooms.
      const std::size_t at = q.tx_accum.size();
      q.tx_accum.resize(at + d.length);
      mem.load(auth, d.buffer_addr,
               std::span<std::byte>{q.tx_accum.data() + at, d.length});
    }
    // Any descriptor of the frame may arm the offload latches; the PMD puts
    // them on the first one.
    if ((d.cmd & kTxCmdIC) != 0) {
      q.tx_ic = true;
      q.tx_css = d.css;
      q.tx_cso = d.cso;
    }
    if ((d.cmd & kTxCmdTse) != 0) q.tx_tse = true;
    if ((d.cmd & kTxCmdEOP) != 0) {
      if (!q.tx_accum.empty()) emit_tx_frame(q, now);
      q.tx_accum.clear();
      q.tx_ic = false;
      q.tx_tse = false;
    }
    // Descriptor write-back.
    d.status |= kTxStatusDD;
    mem.store_scalar<TxDesc>(auth, daddr, d);
    q.tdh = (q.tdh + 1) % q.tx_count;
  }
}

void E82576Port::emit_wire_frame(Queue& q, std::span<const std::byte> frame,
                                 sim::Ns now) {
  // Append the FCS the MAC computes. The wire carries the frame linearized
  // — the receive side always lands whole frames into single descriptor
  // buffers (RX linearization rule).
  Frame f;
  f.data.resize(frame.size() + 4);
  std::memcpy(f.data.data(), frame.data(), frame.size());
  const std::uint32_t fcs = crc32_ieee(frame);
  std::memcpy(f.data.data() + frame.size(), &fcs, 4);
  q.stats.tx_packets++;
  q.stats.tx_bytes += frame.size();
  wire_->transmit(wire_side_, std::move(f), now);
}

void E82576Port::emit_tx_frame(Queue& q, sim::Ns now) {
  std::span<std::byte> frame{q.tx_accum};
  const TxCtxDesc& c = q.tx_ctx;
  const std::size_t hdr =
      std::size_t{c.l2_len} + c.l3_len + c.l4_len;
  const bool tso = q.tx_tse && q.tx_ctx_valid &&
                   (c.olflags & kTxCtxOlTso) != 0 &&
                   (c.olflags & kTxCtxOlTcp) != 0 && c.mss > 0 &&
                   frame.size() > hdr;
  if (!tso) {
    // Legacy checksum insertion: one's-complement-sum [css, end of frame)
    // — the driver-seeded pseudo-header partial sits in the 16-bit field
    // at cso and contributes to the sum like any other word (cso - css is
    // even for TCP and UDP) — then insert the inverted fold at cso.
    if (q.tx_ic && std::size_t{q.tx_css} < frame.size() &&
        std::size_t{q.tx_cso} + 2 <= frame.size()) {
      const auto ck = static_cast<std::uint16_t>(
          ~ocsum_fold(ocsum(frame.subspan(q.tx_css))) & 0xFFFF);
      put_be16_at(frame, q.tx_cso, ck);
    }
    emit_wire_frame(q, frame, now);
    return;
  }
  // TSO: slice the payload into mss-sized wire frames, replaying the
  // gathered headers with per-slice fixups. The driver seeded the TCP
  // checksum field with the folded pseudo-header sum EXCLUDING the length
  // term (it differs per slice); the device adds each slice's l4 length
  // before folding — the DPDK/igb TSO convention.
  const std::size_t l3off = c.l2_len;
  const std::size_t l4off = l3off + c.l3_len;
  const std::size_t payload_len = frame.size() - hdr;
  const std::uint16_t base_id = be16_at(frame, l3off + 4);
  const std::uint32_t base_seq = be32_at(frame, l4off + 4);
  const auto base_flags = std::to_integer<std::uint8_t>(frame[l4off + 13]);
  std::vector<std::byte> slice(hdr + c.mss);
  std::size_t off = 0;
  std::uint16_t idx = 0;
  while (off < payload_len) {
    const std::size_t n = std::min<std::size_t>(c.mss, payload_len - off);
    const bool last = off + n == payload_len;
    std::span<std::byte> s{slice.data(), hdr + n};
    std::memcpy(s.data(), frame.data(), hdr);
    std::memcpy(s.data() + hdr, frame.data() + hdr + off, n);
    // IPv4 fixup: per-slice total length, advancing identification, fresh
    // header checksum.
    put_be16_at(s, l3off + 2,
                static_cast<std::uint16_t>(c.l3_len + c.l4_len + n));
    put_be16_at(s, l3off + 4, static_cast<std::uint16_t>(base_id + idx));
    put_be16_at(s, l3off + 10, 0);
    put_be16_at(s, l3off + 10,
                static_cast<std::uint16_t>(
                    ~ocsum_fold(ocsum(s.subspan(l3off, c.l3_len))) & 0xFFFF));
    // TCP fixup: sequence advances by the payload already emitted; FIN and
    // PSH ride only the last slice.
    put_be32_at(s, l4off + 4,
                base_seq + static_cast<std::uint32_t>(off));
    std::uint8_t fl = base_flags;
    if (!last) fl &= static_cast<std::uint8_t>(~(0x01u | 0x08u));  // FIN|PSH
    s[l4off + 13] = std::byte{fl};
    // Checksum: the copied header still carries the driver's seed in the
    // checksum field; sum the slice's L4 range and add its length term.
    const auto l4_total = static_cast<std::uint32_t>(c.l4_len + n);
    const std::uint32_t sum = ocsum(s.subspan(l4off), l4_total);
    put_be16_at(s, l4off + 16,
                static_cast<std::uint16_t>(~ocsum_fold(sum) & 0xFFFF));
    emit_wire_frame(q, s, now);
    q.stats.tso_frames++;
    q.stats.tso_bytes += n;
    off += n;
    ++idx;
  }
}

std::optional<std::uint32_t> E82576Port::classify_rx(
    std::span<const std::byte> f) const {
  if (queues_.size() <= 1) return 0;
  // Non-IPv4 (ARP and friends) replicates to every queue: each shard's
  // stack resolves neighbours independently.
  if (f.size() < kEtherHdrLen + 20) return std::nullopt;
  if (be16_at(f, 12) != kEthertypeIpv4) return std::nullopt;
  const auto vihl = std::to_integer<std::uint8_t>(f[kEtherHdrLen]);
  if ((vihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(vihl & 0x0F) * 4;
  if (ihl < 20 || f.size() < kEtherHdrLen + ihl) return std::nullopt;
  const auto proto = std::to_integer<std::uint8_t>(f[kEtherHdrLen + 9]);
  const std::uint32_t src = be32_at(f, kEtherHdrLen + 12);
  const std::uint32_t dst = be32_at(f, kEtherHdrLen + 16);
  // MF set or a nonzero fragment offset: ports are only in fragment 0, so
  // every fragment of a datagram hashes the IP pair — reassembly stays on
  // one queue.
  const bool fragmented = (be16_at(f, kEtherHdrLen + 6) & 0x3FFF) != 0;
  std::uint32_t hash = 0;
  if (!fragmented && (proto == 6 || proto == 17) &&
      f.size() >= kEtherHdrLen + ihl + 4) {
    const std::uint16_t sport = be16_at(f, kEtherHdrLen + ihl);
    const std::uint16_t dport = be16_at(f, kEtherHdrLen + ihl + 2);
    for (const L4Filter& fl : l4_filters_) {
      if (fl.valid && fl.proto == proto && fl.dst_port == dport) {
        return fl.queue % queues_.size();
      }
    }
    hash = rss_hash_ipv4_l4(src, dst, sport, dport);
  } else {
    hash = rss_hash_ipv4(src, dst);
  }
  return reta_lookup(reta_, hash) % queues_.size();
}

void E82576Port::deliver_rx(E82576Device& dev, Queue& q,
                            std::span<const std::byte> payload) {
  const cheri::Capability& auth = dev.dma_cap(index_);
  auto& mem = dev.mem();
  // Ring occupancy: the device may fill up to (but not including) RDT.
  if (q.rx_count == 0 || q.rdh == q.rdt) {
    q.stats.rx_no_desc++;
    return;
  }
  const std::uint64_t daddr = q.rx_base + std::uint64_t{q.rdh} * sizeof(RxDesc);
  RxDesc d = mem.load_scalar<RxDesc>(auth, daddr);
  if (payload.size() > q.rx_buf_size) {
    port_stats_.rx_length_errors++;  // oversize for configured buffer
    return;
  }
  mem.store(auth, d.buffer_addr, payload);
  d.length = static_cast<std::uint16_t>(payload.size());
  d.status = kRxStatusDD | kRxStatusEOP;
  d.errors = 0;
  // Checksum verdict write-back (§7.1.5): the device verifies the IPv4
  // header sum and — for unfragmented TCP/UDP it can parse whole — the L4
  // sum, reporting "checked" in status and "failed" in errors. Frames it
  // cannot parse (non-IP, truncated, UDP checksum 0) carry no verdict and
  // stay the driver's problem.
  if (payload.size() >= kEtherHdrLen + 20 &&
      be16_at(payload, 12) == kEthertypeIpv4) {
    const auto vihl = std::to_integer<std::uint8_t>(payload[kEtherHdrLen]);
    const std::size_t ihl = static_cast<std::size_t>(vihl & 0x0F) * 4;
    if ((vihl >> 4) == 4 && ihl >= 20 &&
        payload.size() >= kEtherHdrLen + ihl) {
      d.status |= kRxStatusIpCs;
      const bool ip_ok =
          ocsum_fold(ocsum(payload.subspan(kEtherHdrLen, ihl))) == 0xFFFF;
      if (!ip_ok) d.errors |= kRxErrorIpE;
      const auto proto = std::to_integer<std::uint8_t>(
          payload[kEtherHdrLen + 9]);
      const std::uint16_t total_len = be16_at(payload, kEtherHdrLen + 2);
      const bool fragmented =
          (be16_at(payload, kEtherHdrLen + 6) & 0x3FFF) != 0;
      if (ip_ok && !fragmented && (proto == 6 || proto == 17) &&
          total_len >= ihl + (proto == 6 ? 20u : 8u) &&
          payload.size() >= kEtherHdrLen + total_len) {
        const std::size_t l4off = kEtherHdrLen + ihl;
        const auto l4len = static_cast<std::uint16_t>(total_len - ihl);
        // UDP checksum 0 means "not used": nothing to verify.
        if (proto != 17 || be16_at(payload, l4off + 6) != 0) {
          std::uint32_t sum = ocsum(payload.subspan(l4off, l4len));
          const std::uint32_t src = be32_at(payload, kEtherHdrLen + 12);
          const std::uint32_t dst = be32_at(payload, kEtherHdrLen + 16);
          sum += (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF);
          sum += proto;
          sum += l4len;
          d.status |= kRxStatusL4Cs;
          if (ocsum_fold(sum) != 0xFFFF) d.errors |= kRxErrorL4E;
        }
      }
    }
  }
  mem.store_scalar<RxDesc>(auth, daddr, d);
  q.stats.rx_packets++;
  q.stats.rx_bytes += payload.size();
  q.rdh = (q.rdh + 1) % q.rx_count;
}

void E82576Port::process_rx(E82576Device& dev) {
  for (Frame& f : wire_->poll(wire_side_)) {
    if (f.data.size() < kEtherHdrLen + 4) {
      port_stats_.rx_length_errors++;  // runt
      continue;
    }
    // Verify and strip the FCS.
    const std::size_t payload_len = f.data.size() - 4;
    std::uint32_t fcs = 0;
    std::memcpy(&fcs, f.data.data() + payload_len, 4);
    if (fcs !=
        crc32_ieee(std::span<const std::byte>{f.data.data(), payload_len})) {
      port_stats_.rx_crc_errors++;
      // Attribute the reject to the queue the frame was steered toward so a
      // shard can see ITS flow suffering corruption. A payload bit flip
      // leaves the classification headers intact; a frame too damaged to
      // classify uniquely stays a port-level-only reject.
      if (const auto bad = classify_rx(
              std::span<const std::byte>{f.data.data(), payload_len});
          bad.has_value()) {
        queues_[*bad].stats.rx_crc_errors++;
      }
      continue;
    }
    const std::span<const std::byte> payload{f.data.data(), payload_len};
    const std::optional<std::uint32_t> target = classify_rx(payload);
    if (target.has_value()) {
      deliver_rx(dev, queues_[*target], payload);
    } else {
      for (Queue& q : queues_) deliver_rx(dev, q, payload);
    }
  }
}

}  // namespace cherinet::nic
