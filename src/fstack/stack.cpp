#include "fstack/stack.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "fstack/checksum.hpp"

namespace cherinet::fstack {

namespace {
constexpr std::size_t kRxBurst = 32;
constexpr std::size_t kFrameScratch = 1664;  // MTU + headers + slack
// Most source extents one emitted frame may gather (header mbuf + this
// many indirect payload segments). A range more fragmented than this
// linearizes into the frame instead — a 9-descriptor chain stops paying.
constexpr std::size_t kMaxTxPieces = 8;
// A TSO super-segment spans up to tso_max_segs MSS of payload, so its
// gather budget scales with the slice count (worst case: every MSS its own
// zc slice plus ring-wrap splits). The descriptor cost is amortized over
// the whole super-segment, so the 8-piece economy bound does not apply.
constexpr std::size_t kMaxTsoPieces = 40;
}  // namespace

FfStack::FfStack(StackConfig cfg, updk::EthDev* dev, updk::Mempool* pool,
                 machine::CompartmentHeap* heap, sim::VirtualClock* clock)
    : cfg_(std::move(cfg)),
      dev_(dev),
      pool_(pool),
      heap_(heap),
      clock_(clock),
      iss_state_(cfg_.iss_seed) {
  // Negotiate offloads once at attach: the device reports its effective
  // per-queue capability set and the stack never requests past it, so a
  // masked-off queue runs the pure software path with no per-packet branch
  // ever consulting the device again.
  offloads_neg_ = dev_->offloads();
  tx_tcp_csum_ = (offloads_neg_ & updk::kOffloadTxTcpCsum) != 0;
  tx_udp_csum_ = (offloads_neg_ & updk::kOffloadTxUdpCsum) != 0;
  tso_ = (offloads_neg_ & updk::kOffloadTxTso) != 0;
  // Without TSO every PCB stays on per-MSS emission, whatever the config
  // requested — a super-segment without a slicing device would hit the
  // over-MTU fragmentation fallback on every send.
  if (!tso_) cfg_.tcp.tso_max_segs = 1;
}

FfStack::~FfStack() {
  // Release zero-copy reservations the application never submitted and
  // loans it never recycled; drop staged frames and ARP-parked frames
  // back to the pool (nothing transmits during teardown).
  for (auto& [token, res] : zc_pending_) pool_->free(res.m);
  for (auto& [token, loan] : zc_rx_loans_) pool_->recycle(loan.m);
  for (updk::Mbuf* m : qos_.drain_all()) pool_->free_chain(m);
  for (updk::Mbuf* m : arp_.take_all_parked()) pool_->free_chain(m);
}

// ===========================================================================
// Main loop
// ===========================================================================

bool FfStack::run_once() {
  bool progress = false;

  updk::Mbuf* rx[kRxBurst];
  const std::size_t n = dev_->rx_burst({rx, kRxBurst});
  for (std::size_t i = 0; i < n; ++i) {
    std::byte scratch[kFrameScratch];
    const std::size_t len =
        std::min<std::size_t>(rx[i]->data_len, sizeof scratch);
    rx[i]->data().read(0, std::span<std::byte>{scratch, len});
    stats_.rx_frames++;
    // The scratch read above is the emulated capability-checked load of
    // the frame for HEADER parsing (on hardware the stack reads the same
    // bytes through the mbuf capability); the copy the zero-copy pipeline
    // eliminates — and the RX census counts — is the per-byte transfer of
    // PAYLOAD into socket buffers. While this frame is in flight, protocol
    // handlers convert payload spans back into (mbuf, offset) slices and
    // queue them zero-copy.
    rx_cur_ = rx[i];
    rx_cur_base_ = scratch;
    rx_cur_len_ = len;
    rx_cur_ol_ = rx[i]->ol_flags;  // the driver's checksum verdicts
    ether_input(std::span<const std::byte>{scratch, len});
    rx_cur_ = nullptr;
    rx_cur_base_ = nullptr;
    rx_cur_len_ = 0;
    rx_cur_ol_ = 0;
  }
  // Return the burst in one pass; data rooms queued onward as loans stay
  // alive through their extra reference and return via Mempool::recycle.
  pool_->free_bulk({rx, n});
  progress |= n > 0;

  // Expire DUE timers only: the hierarchical wheel replaces the old
  // every-PCB deadline walk (ARP pending-TTL drops ride the same wheel
  // under the reserved cookie).
  process_timers(clock_->now(), progress);

  if (!pending_output_.empty()) {
    for (TcpPcb* pcb : pending_output_) {
      progress |= pcb->output();
      timer_sync(pcb);
    }
    pending_output_.clear();
  }

  // Drain every attached ff_uring: consume submissions, publish
  // completions, service multishot accept arms — zero crossings per op.
  progress |= drain_urings();

  // Everything this turn emitted leaves in ONE driver burst: the doorbell
  // amortizes per iteration like the compartment boundary already does.
  progress |= flush_tx() > 0;

  reap_closed();
  publish_multishot();
  return progress;
}

std::optional<MbufSlice> FfStack::rx_slice_of(
    std::span<const std::byte> bytes) const {
  if (rx_cur_ == nullptr || bytes.empty()) return std::nullopt;
  const std::byte* base = rx_cur_base_;
  if (bytes.data() < base || bytes.data() + bytes.size() > base + rx_cur_len_) {
    return std::nullopt;  // reassembled or stack-synthesized bytes
  }
  const auto off = static_cast<std::uint32_t>(bytes.data() - base);
  return MbufSlice{rx_cur_, rx_cur_->data_off + off,
                   static_cast<std::uint32_t>(bytes.size())};
}

std::optional<MbufSlice> FfStack::tcp_rx_loan(
    std::span<const std::byte> payload) {
  return rx_slice_of(payload);
}

std::optional<sim::Ns> FfStack::next_deadline() const {
  // O(1)-ish: the wheel's first non-empty slot stands in for every armed
  // PCB deadline and the ARP pending TTL — no per-PCB scan. The wheel
  // reports the TICK BOUNDARY at or after the earliest real deadline
  // (never earlier than a firing time), so advancing the virtual clock to
  // it always makes at least one timer due.
  std::optional<sim::Ns> d = dev_->next_event();
  const auto w = wheel_.next_deadline();
  if (w && (!d || *w < *d)) d = w;
  // Token-bucket pacing: a frame waiting on a QoS bucket becomes eligible
  // at a known virtual instant — the driver must wake then or a paced
  // class stalls until unrelated traffic happens to arrive.
  const auto q = qos_.next_release(clock_->now());
  if (q && (!d || *q < *d)) d = q;
  // GRO ack-flush deadlines are reported EXACTLY (no tick ceiling): the
  // driver must wake µs after an arrival pause or the flush degrades
  // into the delack it exists to pre-empt.
  for (const TcpPcb* pcb : ack_flush_) {
    const auto f = pcb->ack_flush_deadline();
    if (f && (!d || *f < *d)) d = f;
  }
  return d;
}

void FfStack::timer_sync(TcpPcb* pcb) {
  // The µs-scale GRO ack-flush deadline rides a side list with EXACT
  // reporting (see ack_flush_ in stack.hpp); membership is lazily pruned
  // in process_timers once the deadline disarms.
  if (pcb->ack_flush_deadline() && !pcb->flush_listed) {
    ack_flush_.push_back(pcb);
    pcb->flush_listed = true;
  }
  const auto d = pcb->next_deadline();
  if (d == pcb->wheel_deadline) return;  // registration already accurate
  if (pcb->wheel_id != TimerWheel::kInvalidId) {
    wheel_.cancel(pcb->wheel_id);
    pcb->wheel_id = TimerWheel::kInvalidId;
  }
  pcb->wheel_deadline = d;
  if (d) {
    pcb->wheel_id =
        wheel_.arm(*d, static_cast<std::uint64_t>(
                           reinterpret_cast<std::uintptr_t>(pcb)));
  }
}

void FfStack::arp_timer_sync() {
  const auto d = arp_.next_expiry();
  if (d == arp_wheel_deadline_) return;
  if (arp_wheel_id_ != TimerWheel::kInvalidId) {
    wheel_.cancel(arp_wheel_id_);
    arp_wheel_id_ = TimerWheel::kInvalidId;
  }
  arp_wheel_deadline_ = d;
  if (d) arp_wheel_id_ = wheel_.arm(*d, 0);  // cookie 0: the ARP sentinel
}

void FfStack::process_timers(sim::Ns now, bool& progress) {
  bool any = false;
  wheel_.expire(now, [&](std::uint64_t cookie) {
    if (cookie == 0) {
      // Unresolvable hops must not pin pool buffers: frames parked past
      // the ARP pending TTL drop here (their senders' protocols recover).
      arp_wheel_id_ = TimerWheel::kInvalidId;
      arp_wheel_deadline_.reset();
      for (updk::Mbuf* m : arp_.take_expired(now)) {
        credit_parked_frame(m);
        pool_->free_chain(m);
        any = true;
      }
      arp_timer_sync();  // hops still younger than the TTL re-register
      return;
    }
    auto* pcb =
        reinterpret_cast<TcpPcb*>(static_cast<std::uintptr_t>(cookie));
    pcb->wheel_id = TimerWheel::kInvalidId;  // the entry just fired
    pcb->wheel_deadline.reset();
    any |= pcb->on_timer(now);
    timer_sync(pcb);  // re-register whatever deadline survives the fire
  });
  // GRO ack-flush sweep: fire due idle-flush ACKs, prune entries whose
  // deadline disarmed (the ACK piggybacked on data, or the count trigger
  // sent it first). Swap-erase keeps the sweep allocation-free.
  for (std::size_t i = 0; i < ack_flush_.size();) {
    TcpPcb* pcb = ack_flush_[i];
    if (pcb->ack_flush_deadline()) {
      any |= pcb->fire_ack_flush(now);
      timer_sync(pcb);
    }
    if (!pcb->ack_flush_deadline()) {
      pcb->flush_listed = false;
      ack_flush_[i] = ack_flush_.back();
      ack_flush_.pop_back();
    } else {
      ++i;
    }
  }
  progress |= any;
}

void FfStack::reap_closed() {
  if (detached_.empty()) return;
  for (auto it = detached_.begin(); it != detached_.end();) {
    TcpPcb* pcb = *it;
    if (pcb->closed()) {
      // Outstanding loans outlive their connection: detach them from the
      // dying PCB so recycling degrades to a pure pool return.
      for (auto& [token, loan] : zc_rx_loans_) {
        if (loan.pcb == pcb) loan.pcb = nullptr;
      }
      if (pcb->wheel_id != TimerWheel::kInvalidId) {
        wheel_.cancel(pcb->wheel_id);  // no wheel cookie may dangle
        pcb->wheel_id = TimerWheel::kInvalidId;
      }
      if (pcb->flush_listed) std::erase(ack_flush_, pcb);
      pending_output_.erase(pcb);
      port_unref(pcb->tuple().local_port);
      accumulate_reaped(*pcb);  // recovery history survives the reap
      tcp_pcbs_.erase(pcb->tuple());
      it = detached_.erase(it);
    } else {
      ++it;
    }
  }
}

void FfStack::accumulate_reaped(const TcpPcb& pcb) {
  const TcpPcb::Counters& c = pcb.counters();
  reaped_counters_.rexmits += c.rexmits;
  reaped_counters_.fast_rexmits += c.fast_rexmits;
  reaped_counters_.rto_expirations += c.rto_expirations;
  reaped_counters_.tlp_probes += c.tlp_probes;
  reaped_counters_.spurious_rexmit_bytes += c.spurious_rexmit_bytes;
}

FfStack::TcpRecoveryStats FfStack::tcp_recovery_stats() const {
  TcpRecoveryStats out;
  const auto add = [&out](const TcpPcb::Counters& c) {
    out.rexmits += c.rexmits;
    out.fast_rexmits += c.fast_rexmits;
    out.rto_expirations += c.rto_expirations;
    out.tlp_probes += c.tlp_probes;
    out.spurious_rexmit_bytes += c.spurious_rexmit_bytes;
  };
  add(reaped_counters_);
  for (const auto& [tuple, pcb] : tcp_pcbs_) add(pcb->counters());
  for (const auto& [port, pcb] : tcp_listeners_) add(pcb->counters());
  return out;
}

std::uint64_t FfStack::sock_rx_activity(int fd) const {
  const Socket* s = socks_.get(fd);
  if (s == nullptr) return 0;
  switch (s->kind) {
    case SockKind::kTcp:
      if (s->pcb == nullptr) return 0;
      if (s->listening) return s->pcb->accept_ready_total;
      return s->pcb->counters().bytes_in;
    case SockKind::kUdp:
      return s->udp->delivered_total();
    case SockKind::kEpoll:
      break;
  }
  return 0;
}

int FfStack::publish_ready(EpollInstance& ep) {
  int published = 0;
  for (const auto& [fd, interest] : ep.interest()) {
    const std::uint32_t ready =
        sock_readiness(fd) & (interest.events | kEpollErr | kEpollHup);
    if (ep.publish(fd, ready, sock_rx_activity(fd))) {
      api_.multishot_events++;
      ++published;
    }
  }
  return published;
}

void FfStack::publish_multishot() {
  socks_.for_each([this](Socket& s) {
    if (s.kind == SockKind::kEpoll && s.epoll && s.epoll->armed()) {
      publish_ready(*s.epoll);
    }
  });
}

// ===========================================================================
// Input path
// ===========================================================================

void FfStack::ether_input(std::span<const std::byte> frame) {
  const auto eh = EtherHeader::parse(frame);
  if (!eh) {
    stats_.rx_dropped++;
    return;
  }
  const auto payload = frame.subspan(EtherHeader::kSize);
  switch (eh->ethertype) {
    case kEtherTypeArp:
      arp_input(payload);
      break;
    case kEtherTypeIpv4:
      ipv4_input(payload);
      break;
    default:
      stats_.rx_dropped++;
      break;
  }
}

void FfStack::arp_input(std::span<const std::byte> payload) {
  const auto ah = ArpHeader::parse(payload);
  if (!ah) {
    stats_.rx_dropped++;
    return;
  }
  const sim::Ns now = clock_->now();
  arp_.insert(ah->spa, ah->sha, now);

  // Flush anything parked on this resolution: the Ethernet header the
  // frames were parked without finally prepends into their headroom.
  for (updk::Mbuf* pkt : arp_.take_parked(ah->spa)) {
    credit_parked_frame(pkt);  // the frame leaves park: unpin its budget
    if (prepend_ether(pkt, ah->sha, kEtherTypeIpv4)) stage_frame(pkt);
  }
  arp_timer_sync();  // the resolved hop's pending-TTL deadline is gone

  if (ah->oper == ArpHeader::kOpRequest && ah->tpa == cfg_.netif.ip) {
    send_arp(ArpHeader::kOpReply, ah->sha, ah->spa);
  }
}

void FfStack::ipv4_input(std::span<const std::byte> packet) {
  // Trust the descriptor's IP checksum verdict when the device rendered
  // one: a Bad verdict kills the frame before any field is interpreted,
  // a Good verdict skips the software header sum entirely. Frames without
  // a verdict (offload masked off, non-IP) verify in software as always.
  if ((rx_cur_ol_ & updk::kRxCsumIpBad) != 0) {
    stats_.csum_errors++;
    return;
  }
  const bool ip_checked = (rx_cur_ol_ & updk::kRxCsumIpGood) != 0;
  const auto ih = Ipv4Header::parse(packet, /*verify_checksum=*/!ip_checked);
  if (!ih) {
    stats_.csum_errors++;
    return;
  }
  if (packet.size() < ih->total_len || ih->total_len < ih->header_len()) {
    stats_.rx_dropped++;
    return;
  }
  if (ih->dst != cfg_.netif.ip && !ih->dst.is_broadcast()) {
    stats_.rx_dropped++;
    return;
  }
  std::span<const std::byte> l4 =
      packet.subspan(ih->header_len(), ih->total_len - ih->header_len());

  std::vector<std::byte> reassembled;
  if (ih->more_fragments() || ih->frag_offset_bytes() != 0) {
    auto whole = reasm_.input(*ih, l4, clock_->now());
    if (!whole) return;
    reassembled = std::move(*whole);
    l4 = reassembled;
    // Any L4 verdict covered ONE fragment's bytes, not the reassembled
    // datagram: invalidate it so the L4 handlers verify in software.
    rx_cur_ol_ &= ~(updk::kRxCsumL4Good | updk::kRxCsumL4Bad);
  }

  switch (ih->proto) {
    case kIpProtoIcmp:
      icmp_input(*ih, l4);
      break;
    case kIpProtoTcp:
      tcp_input_seg(*ih, l4);
      break;
    case kIpProtoUdp:
      udp_input(*ih, l4);
      break;
    default:
      stats_.rx_dropped++;
      break;
  }
}

void FfStack::icmp_input(const Ipv4Header& ih,
                         std::span<const std::byte> l4) {
  const auto icmp = IcmpHeader::parse(l4);
  if (!icmp) return;
  if (checksum(l4) != 0) {
    stats_.csum_errors++;
    return;
  }
  if (icmp->type == IcmpHeader::kEchoRequest) {
    const auto reply = build_icmp_echo(IcmpHeader::kEchoReply, icmp->id,
                                       icmp->seq,
                                       l4.subspan(IcmpHeader::kSize));
    send_ipv4(ih.src, kIpProtoIcmp, reply);
  } else if (icmp->type == IcmpHeader::kEchoReply) {
    pings_.on_reply(icmp->id, icmp->seq);
  }
}

void FfStack::udp_input(const Ipv4Header& ih, std::span<const std::byte> l4) {
  const auto uh = UdpHeader::parse(l4);
  if (!uh || uh->length < UdpHeader::kSize || l4.size() < uh->length) return;
  // Device L4 verdict: Bad drops (a corrupted datagram that somehow kept a
  // valid FCS still dies here), Good skips the software walk. No verdict
  // (offload off, checksum-0 datagram, reassembled) verifies in software.
  if ((rx_cur_ol_ & updk::kRxCsumL4Bad) != 0) {
    stats_.csum_errors++;
    return;
  }
  if (uh->checksum != 0 && (rx_cur_ol_ & updk::kRxCsumL4Good) == 0) {
    std::uint32_t sum =
        checksum_pseudo(ih.src, ih.dst, kIpProtoUdp, uh->length);
    sum = checksum_partial(l4.subspan(0, uh->length), sum);
    if (checksum_finish(sum) != 0) {
      stats_.csum_errors++;
      return;
    }
  }
  const auto it = udp_binds_.find(uh->dst_port);
  if (it == udp_binds_.end()) return;
  UdpDatagram d;
  d.src = ih.src;
  d.src_port = uh->src_port;
  const auto body = l4.subspan(UdpHeader::kSize, uh->length - UdpHeader::kSize);
  // Queue the datagram as a loan of the RX data room whenever the payload
  // sits in one mbuf; reassembled fragments fall back to a copy. The
  // queue's budget charges loans at data-room granularity (UdpDatagram::
  // charge), so a small-datagram flood throttles its own socket instead
  // of pinning the shared pool.
  if (const auto slice = rx_slice_of(body); slice.has_value()) {
    pool_->retain(slice->m);
    d.mbuf = slice->m;
    d.off = slice->off;
    d.len = slice->len;
    rx_stats_.loaned_segs++;
    rx_stats_.loaned_bytes += slice->len;
  } else {
    d.data.assign(body.begin(), body.end());
    rx_stats_.fallback_bytes += body.size();
  }
  it->second->deliver(std::move(d));
}

void FfStack::tcp_input_seg(const Ipv4Header& ih,
                            std::span<const std::byte> l4) {
  const auto th = TcpHeader::parse(l4);
  if (!th) return;
  // Same verdict contract as udp_input: Bad is fatal, Good elides the
  // software verification walk, absent falls back to software.
  if ((rx_cur_ol_ & updk::kRxCsumL4Bad) != 0) {
    stats_.csum_errors++;
    return;
  }
  if ((rx_cur_ol_ & updk::kRxCsumL4Good) == 0) {
    std::uint32_t sum = checksum_pseudo(
        ih.src, ih.dst, kIpProtoTcp, static_cast<std::uint16_t>(l4.size()));
    sum = checksum_partial(l4, sum);
    if (checksum_finish(sum) != 0) {
      stats_.csum_errors++;
      return;
    }
  }
  const TcpOptions opts =
      TcpOptions::parse(l4.subspan(TcpHeader::kSize,
                                   th->header_len() - TcpHeader::kSize));
  const auto payload = l4.subspan(th->header_len());

  const FourTuple tuple{ih.dst, th->dst_port, ih.src, th->src_port};
  if (const auto it = tcp_pcbs_.find(tuple); it != tcp_pcbs_.end()) {
    it->second->input(*th, opts, payload);
    timer_sync(it->second.get());
    return;
  }
  if (const auto lit = tcp_listeners_.find(th->dst_port);
      lit != tcp_listeners_.end() &&
      (lit->second->tuple().local_ip == ih.dst ||
       lit->second->tuple().local_ip == Ipv4Addr{})) {
    lit->second->pending_remote_ip = ih.src;
    lit->second->input(*th, opts, payload);
    // A spawned child armed its SYN-ACK retransmit inside input_listen:
    // register the fresh PCB's deadline before the loop sleeps on it.
    if (const auto cit = tcp_pcbs_.find(tuple); cit != tcp_pcbs_.end()) {
      timer_sync(cit->second.get());
    }
    return;
  }
  if (!th->has(tcpflag::kRst)) send_tcp_rst(ih, *th, payload.size());
}

void FfStack::send_tcp_rst(const Ipv4Header& ih, const TcpHeader& th,
                           std::size_t payload_len) {
  TcpHeader rst;
  rst.src_port = th.dst_port;
  rst.dst_port = th.src_port;
  if (th.has(tcpflag::kAck)) {
    rst.seq = th.ack;
    rst.flags = tcpflag::kRst;
  } else {
    rst.seq = 0;
    rst.ack = th.seq + static_cast<std::uint32_t>(payload_len) +
              (th.has(tcpflag::kSyn) ? 1 : 0) +
              (th.has(tcpflag::kFin) ? 1 : 0);
    rst.flags = tcpflag::kRst | tcpflag::kAck;
  }
  std::byte seg[TcpHeader::kSize];
  rst.serialize(seg);
  std::uint32_t sum =
      checksum_pseudo(ih.dst, ih.src, kIpProtoTcp, TcpHeader::kSize);
  sum = checksum_partial(seg, sum);
  put_be16(seg + 16, checksum_finish(sum));
  send_ipv4(ih.src, kIpProtoTcp, seg);
  stats_.tcp_rst_out++;
}

// ===========================================================================
// Output path
// ===========================================================================

Ipv4Addr FfStack::next_hop_for(Ipv4Addr dst) const {
  if (dst.same_subnet(cfg_.netif.ip, cfg_.netif.netmask) ||
      cfg_.netif.gateway == Ipv4Addr{}) {
    return dst;
  }
  return cfg_.netif.gateway;
}

bool FfStack::send_ipv4(Ipv4Addr dst, std::uint8_t proto,
                        std::span<const std::byte> l4, std::uint8_t cls,
                        const TxOffloadMeta* ol, int tenant) {
  const std::uint16_t id = ip_id_++;
  const auto plan = plan_fragments(l4.size(), cfg_.netif.mtu,
                                   Ipv4Header::kSize);
  // Offload metadata only rides unfragmented packets: the device checksums
  // whole L4 messages, never fragments (callers guarantee this by checking
  // the MTU before seeding, so a fragmented ol != nullptr is a logic bug
  // we neutralize rather than ship a bad frame).
  if (plan.size() != 1) ol = nullptr;
  const Ipv4Addr hop = next_hop_for(dst);
  bool ok = true;
  for (const FragmentPlan& f : plan) {
    std::vector<std::byte> pkt(Ipv4Header::kSize + f.payload_len);
    Ipv4Header h;
    h.total_len = static_cast<std::uint16_t>(pkt.size());
    h.id = id;
    h.proto = proto;
    h.src = cfg_.netif.ip;
    h.dst = dst;
    h.flags_frag = static_cast<std::uint16_t>(f.payload_off / 8);
    if (f.more_fragments) h.flags_frag |= Ipv4Header::kFlagMF;
    if (plan.size() == 1 && proto == kIpProtoTcp) {
      h.flags_frag |= Ipv4Header::kFlagDF;
    }
    h.serialize(pkt);
    std::copy_n(l4.begin() + f.payload_off, f.payload_len,
                pkt.begin() + Ipv4Header::kSize);
    ok &= transmit_ip_packet(pkt, hop, cls, ol, tenant);
  }
  return ok;
}

bool FfStack::transmit_ip_packet(std::span<const std::byte> ip_packet,
                                 Ipv4Addr next_hop, std::uint8_t cls,
                                 const TxOffloadMeta* ol, int tenant) {
  // Copy-path packets (ICMP, RST, fragmented/ARP-pending UDP) land in one
  // owned mbuf and join the same staged chain pipeline as gathered frames.
  updk::Mbuf* m = pool_->alloc();
  if (m == nullptr) return false;
  try {
    m->append(static_cast<std::uint32_t>(ip_packet.size()))
        .write(0, ip_packet);
  } catch (const cheri::CapFault&) {
    pool_->free(m);
    return false;
  }
  if (ol != nullptr) {
    m->ol_flags = ol->ol_flags;
    m->l2_len = EtherHeader::kSize;
    m->l3_len = Ipv4Header::kSize;
    m->l4_len = ol->l4_len;
  }
  return transmit_ip_chain(m, next_hop, cls, tenant);
}

bool FfStack::transmit_ip_chain(updk::Mbuf* head, Ipv4Addr next_hop,
                                std::uint8_t cls, int tenant) {
  const sim::Ns now = clock_->now();
  const auto mac = arp_.lookup(next_hop, now);
  if (!mac) {
    if (arp_.should_request(next_hop, now)) {
      send_arp(ArpHeader::kOpRequest, nic::MacAddr{}, next_hop);
    }
    // Park until the hop resolves. A CHAIN may reference live send-queue
    // memory (ring spans stay valid only until the next ring write), so a
    // parked frame is first linearized into one owned mbuf; a frame that
    // is already a single direct buffer parks as-is.
    updk::Mbuf* flat = head;
    if (head->next != nullptr || head->indirect) {
      flat = linearize_chain(head);
      pool_->free_chain(head);
      if (flat == nullptr) return false;
    }
    // A parked frame pins a pool buffer against the OWNER's budget: an
    // over-budget tenant's frame drops here (its protocol retransmits or
    // reports the loss) while neighbours' frames keep parking.
    if (tenant != 0 && !tenants_.charge_parked(tenant)) {
      pool_->free(flat);
      return false;
    }
    if (!arp_.park(next_hop, flat, now)) {  // hop queue capped: counted drop
      if (tenant != 0) tenants_.credit_parked(tenant);
      pool_->free(flat);
      return false;
    }
    if (tenant != 0) parked_tenant_.emplace(flat, tenant);
    arp_timer_sync();  // a fresh hop's pending TTL enters the wheel
    return true;
  }
  if (!prepend_ether(head, *mac, kEtherTypeIpv4)) return false;
  stage_frame(head, cls);
  return true;
}

bool FfStack::prepend_ether(updk::Mbuf* head, const nic::MacAddr& dst,
                            std::uint16_t ethertype) {
  EtherHeader eh;
  eh.dst = dst;
  eh.src = dev_->mac();
  eh.ethertype = ethertype;
  std::byte ehb[EtherHeader::kSize];
  eh.serialize(ehb);
  try {
    head->prepend(EtherHeader::kSize).write(0, ehb);
  } catch (const cheri::CapFault&) {
    pool_->free_chain(head);
    return false;
  }
  return true;
}

updk::Mbuf* FfStack::linearize_chain(updk::Mbuf* head) {
  updk::Mbuf* flat = pool_->alloc();
  if (flat == nullptr) return nullptr;
  std::byte scratch[512];
  try {
    for (const updk::Mbuf* s = head; s != nullptr; s = s->next) {
      if (s->data_len == 0) continue;
      machine::cap_copy(flat->append(s->data_len), 0,
                        s->room.window(s->data_off, s->data_len), 0,
                        s->data_len, scratch);
    }
  } catch (const cheri::CapFault&) {
    pool_->free(flat);
    return nullptr;
  }
  // A parked offload frame keeps its checksum/TSO request: the flattening
  // changed the segment layout, not the frame the metadata describes.
  flat->ol_flags = head->ol_flags;
  flat->l2_len = head->l2_len;
  flat->l3_len = head->l3_len;
  flat->l4_len = head->l4_len;
  flat->tso_segsz = head->tso_segsz;
  // Counted apart from emit_payload_reads: this copy serves ARP parking
  // (headers included), not segment emission — the gated metric stays a
  // pure payload-re-read census.
  tx_stats_.park_linearized_bytes += flat->data_len;
  return flat;
}

void FfStack::stage_frame(updk::Mbuf* head, std::uint8_t cls) {
  std::uint32_t bytes = 0;
  for (const updk::Mbuf* s = head; s != nullptr; s = s->next) {
    bytes += s->data_len;
  }
  if (qos_.enqueue(cls, head, bytes)) return;
  flush_tx();
  if (qos_.enqueue(cls, head, bytes)) return;
  // The class queue is still full after a flush (token-paced class, or the
  // device made no progress at all): drop the class's OLDEST staged frame
  // rather than overflow — a genuine loss, counted apart from deferrals,
  // and confined to the offending class.
  if (updk::Mbuf* oldest = qos_.evict_oldest(cls)) {
    pool_->free_chain(oldest);
    stats_.tx_stage_drops++;
    if (qos_.enqueue(cls, head, bytes)) return;
  }
  pool_->free_chain(head);  // unreachable unless queue_cap is pathological
  stats_.tx_stage_drops++;
}

std::size_t FfStack::flush_tx() {
  // DRR over the class queues fills each driver burst (highest class first
  // within a round, token buckets honored); bursts repeat while they make
  // progress, so a small TX ring still absorbs a large stage in a few
  // calls. Frames the ring cannot take THIS flush are handed back to the
  // scheduler with their tokens/deficit refunded (backpressure, not loss)
  // and retry at the next flush point; token-paced frames stay queued
  // until virtual time refills their bucket (next_deadline wakes the
  // driver at that instant).
  std::size_t total = 0;
  const sim::Ns now = clock_->now();
  while (qos_.staged() > 0) {
    std::array<QosScheduler::Picked, kTxStageCap> picks;
    const std::size_t k = qos_.select(now, picks);
    if (k == 0) break;  // everything left is waiting on a token bucket
    std::array<updk::Mbuf*, kTxStageCap> burst;
    for (std::size_t i = 0; i < k; ++i) burst[i] = picks[i].chain;
    std::size_t off = 0;
    while (off < k) {
      const std::size_t sent = dev_->tx_burst({burst.data() + off, k - off});
      if (sent == 0) break;
      off += sent;
    }
    total += off;
    if (off < k) {
      stats_.tx_stage_deferred += k - off;
      qos_.unselect(std::span<const QosScheduler::Picked>{picks.data() + off,
                                                          k - off});
      break;
    }
  }
  stats_.tx_frames += total;
  return total;
}

bool FfStack::transmit_frame(const nic::MacAddr& dst, std::uint16_t ethertype,
                             std::span<const std::byte> payload,
                             std::uint8_t cls) {
  updk::Mbuf* m = pool_->alloc();
  if (m == nullptr) return false;
  try {
    m->append(static_cast<std::uint32_t>(payload.size())).write(0, payload);
  } catch (const cheri::CapFault&) {
    pool_->free(m);
    return false;
  }
  if (!prepend_ether(m, dst, ethertype)) return false;
  stage_frame(m, cls);
  return true;
}

void FfStack::send_arp(std::uint16_t oper, const nic::MacAddr& tha,
                       Ipv4Addr tpa) {
  ArpHeader ah;
  ah.oper = oper;
  ah.sha = dev_->mac();
  ah.spa = cfg_.netif.ip;
  ah.tha = tha;
  ah.tpa = tpa;
  std::byte buf[ArpHeader::kSize];
  ah.serialize(buf);
  const nic::MacAddr dst =
      oper == ArpHeader::kOpRequest ? nic::MacAddr::broadcast() : tha;
  transmit_frame(dst, kEtherTypeArp, buf);
}

// ===========================================================================
// TcpEnv
// ===========================================================================

bool FfStack::tcp_emit(TcpPcb& pcb, const TcpHeader& hdr,
                       const TcpOptions& opts, std::size_t payload_off,
                       std::size_t payload_len) {
  // Headers serialize into a small stack scratch; PAYLOAD never does — it
  // leaves as indirect mbufs chained over the live send-queue stores.
  std::byte hdrb[TcpHeader::kSize + 44];
  TcpHeader h = hdr;
  h.serialize({hdrb, TcpHeader::kSize});
  const std::size_t opt_len = opts.serialize(
      std::span<std::byte>{hdrb + TcpHeader::kSize, 44});
  const std::size_t hlen = TcpHeader::kSize + opt_len;
  hdrb[12] = static_cast<std::byte>((hlen / 4) << 4);
  const std::size_t total = hlen + payload_len;

  // A segment larger than one MTU leaves as a TSO super-segment when the
  // queue negotiated slicing (the device restores per-MSS wire frames with
  // per-slice header fixups); tso_max_segs is pinned to 1 otherwise, so a
  // non-TSO stack only ever sees this for over-MTU peer configurations.
  const bool tso_frame =
      tso_ && payload_len > 0 && Ipv4Header::kSize + total > cfg_.netif.mtu;

  // Decompose the payload over the live chain stores. A range more
  // fragmented than the piece budget linearizes instead (one bounded copy
  // beats a 9+-descriptor chain); super-segments get the larger TSO budget.
  TxPiece pieces[kMaxTsoPieces];
  std::size_t npieces = 0;
  bool linearize = false;
  if (payload_len > 0) {
    npieces = pcb.gather_send(
        payload_off, payload_len,
        {pieces, tso_frame ? kMaxTsoPieces : kMaxTxPieces});
    linearize = npieces == 0;
  }

  if ((!tso_frame && Ipv4Header::kSize + total > cfg_.netif.mtu) ||
      (tso_frame && linearize)) {
    // Over-MTU segment without (usable) TSO: the legacy linearizing path
    // still fragments correctly, software-checksummed — IP fragments carry
    // partial L4 messages the device cannot checksum.
    std::vector<std::byte> seg(total);
    std::copy_n(hdrb, hlen, seg.begin());
    if (payload_len > 0) {
      pcb.peek_send(payload_off,
                    std::span<std::byte>{seg.data() + hlen, payload_len});
      tx_stats_.emit_payload_reads += payload_len;
      tx_stats_.stack_checksum_bytes += payload_len;
    }
    std::uint32_t fsum = checksum_pseudo(pcb.tuple().local_ip,
                                         pcb.tuple().remote_ip, kIpProtoTcp,
                                         static_cast<std::uint16_t>(total));
    fsum = checksum_partial(seg, fsum);
    put_be16(seg.data() + 16, checksum_finish(fsum));
    return send_ipv4(pcb.tuple().remote_ip, kIpProtoTcp, seg, pcb.tclass(),
                     nullptr, pcb.tenant());
  }

  std::byte lin[kFrameScratch];
  if (tx_tcp_csum_) {
    // Hardware checksum insertion: the composed-checksum walk disappears
    // entirely. The checksum field carries the folded, NON-inverted
    // pseudo-header sum as the device's seed — with the length term for
    // single-frame insertion, WITHOUT it for TSO (each slice's length
    // differs; the device adds it per frame, the DPDK/igb convention).
    const std::uint32_t ps = checksum_pseudo(
        pcb.tuple().local_ip, pcb.tuple().remote_ip, kIpProtoTcp,
        tso_frame ? 0 : static_cast<std::uint16_t>(total));
    put_be16(hdrb + 16, checksum_fold16(ps));
    if (linearize && payload_len > 0) {
      pcb.peek_send(payload_off, std::span<std::byte>{lin, payload_len});
      tx_stats_.emit_payload_reads += payload_len;
    }
  } else {
    // Software path. Checksum: pseudo-header + serialized headers + payload
    // COMPOSED from the chain's cached partials — checksum_combine folds
    // each slice sum in at its packet offset, O(#slices) with zero payload
    // re-reads on the aligned path (hlen is a multiple of 4, so payload
    // parity == rel&1).
    std::uint32_t sum = checksum_pseudo(pcb.tuple().local_ip,
                                        pcb.tuple().remote_ip, kIpProtoTcp,
                                        static_cast<std::uint16_t>(total));
    sum = checksum_partial(std::span<const std::byte>{hdrb, hlen}, sum);
    if (linearize) {
      pcb.peek_send(payload_off, std::span<std::byte>{lin, payload_len});
      tx_stats_.emit_payload_reads += payload_len;
      tx_stats_.stack_checksum_bytes += payload_len;
      sum = checksum_partial_at({lin, payload_len}, 0, sum);
    } else {
      std::size_t rel = 0;
      for (std::size_t i = 0; i < npieces; ++i) {
        const TxPiece& p = pieces[i];
        if (p.csum_ok) {
          sum = checksum_combine(sum, p.csum, rel);
        } else {
          // No cached sum covers this exact range (a window-split or
          // head-trimmed slice): one capability walk, counted.
          const std::uint32_t part =
              p.m != nullptr ? checksum_cap_partial(p.m->room, p.off, p.len)
                             : checksum_cap_partial(p.view, 0, p.len);
          sum = checksum_combine(sum, part, rel);
          tx_stats_.emit_payload_reads += p.len;
          tx_stats_.stack_checksum_bytes += p.len;
        }
        rel += p.len;
      }
    }
    put_be16(hdrb + 16, checksum_finish(sum));
  }

  // Header mbuf: TCP header/options at data start, headroom kept for the
  // IP and Ethernet prepends (DPDK-style); payload chained behind it.
  updk::Mbuf* head = pool_->alloc();
  if (head == nullptr) return false;
  try {
    head->append(static_cast<std::uint32_t>(hlen))
        .write(0, std::span<const std::byte>{hdrb, hlen});
    if (linearize && payload_len > 0) {
      head->append(static_cast<std::uint32_t>(payload_len))
          .write(0, std::span<const std::byte>{lin, payload_len});
    } else {
      for (std::size_t i = 0; i < npieces; ++i) {
        const TxPiece& p = pieces[i];
        updk::Mbuf* seg =
            p.m != nullptr ? pool_->alloc_indirect(p.m, p.off, p.len)
                           : pool_->alloc_indirect_view(p.view);
        if (seg == nullptr) {
          // Indirect headers exhausted mid-chain: copy the remaining
          // extents into one direct segment so frame byte order holds.
          updk::Mbuf* copyseg = pool_->alloc();
          if (copyseg == nullptr) {
            pool_->free_chain(head);
            return false;
          }
          std::byte scratch[512];
          for (; i < npieces; ++i) {
            const TxPiece& q = pieces[i];
            const machine::CapView src =
                q.m != nullptr ? q.m->room.window(q.off, q.len) : q.view;
            machine::cap_copy(copyseg->append(q.len), 0, src, 0, q.len,
                              scratch);
            tx_stats_.emit_payload_reads += q.len;
          }
          head->chain(copyseg);
          break;
        }
        head->chain(seg);
      }
    }
  } catch (const cheri::CapFault&) {
    pool_->free_chain(head);
    return false;
  }

  // IPv4 header prepended into the headroom.
  Ipv4Header ih;
  ih.total_len = static_cast<std::uint16_t>(Ipv4Header::kSize + total);
  ih.id = ip_id_++;
  ih.flags_frag = Ipv4Header::kFlagDF;
  ih.proto = kIpProtoTcp;
  ih.src = cfg_.netif.ip;
  ih.dst = pcb.tuple().remote_ip;
  std::byte ihb[Ipv4Header::kSize];
  ih.serialize(ihb);
  try {
    head->prepend(Ipv4Header::kSize).write(0, ihb);
  } catch (const cheri::CapFault&) {
    pool_->free_chain(head);
    return false;
  }
  if (tx_tcp_csum_) {
    // Offload request on the chain head (driver ABI, updk/mbuf.hpp): the
    // PMD translates this to IC/css/cso descriptors (single frame) or a
    // context descriptor + TSE tagging (super-segment).
    head->ol_flags = updk::kTxOffloadTcpCsum;
    if (tso_frame) head->ol_flags |= updk::kTxOffloadTso;
    head->l2_len = EtherHeader::kSize;
    head->l3_len = Ipv4Header::kSize;
    head->l4_len = static_cast<std::uint8_t>(hlen);
    head->tso_segsz =
        tso_frame ? static_cast<std::uint16_t>(pcb.mss_eff()) : 0;
  }
  return transmit_ip_chain(head, next_hop_for(pcb.tuple().remote_ip),
                           pcb.tclass(), pcb.tenant());
}

TcpPcb* FfStack::tcp_spawn_child(TcpPcb& listener, const FourTuple& tuple) {
  if (tcp_pcbs_.contains(tuple)) return nullptr;
  auto pcb = std::unique_ptr<TcpPcb>(make_pcb());
  TcpPcb* raw = pcb.get();
  raw->set_tclass(listener.tclass());  // children ride the listener's class
  raw->set_tenant(listener.tenant());  // ...and bill the listener's tenant
  tcp_pcbs_.emplace(tuple, std::move(pcb));
  port_ref(tuple.local_port);
  return raw;
}

void FfStack::tcp_accept_ready(TcpPcb& listener, TcpPcb& child) {
  listener.accept_queue.push_back(&child);
  listener.accept_ready_total++;
}

TcpPcb* FfStack::make_pcb() {
  // The send side interleaves the copy ring with retained zc mbuf slices
  // (TxChain) — OP_ZC_SEND payload is never byte-copied; the receive side
  // is a loan chain over RX mbufs. With TCP checksum insertion negotiated
  // the chain skips admission-time partial sums (the device prices the
  // wire checksum), so no TX byte is ever software-summed.
  TxChain snd(SockBuf(heap_->alloc_view(cfg_.tcp.sndbuf_bytes)), pool_,
              &tx_stats_, /*cache_csums=*/!tx_tcp_csum_);
  RxChain rcv(cfg_.tcp.rcvbuf_bytes, pool_, &rx_stats_);
  return new TcpPcb(this, cfg_.tcp, std::move(snd), std::move(rcv));
}

std::uint32_t FfStack::new_iss() {
  iss_state_ = iss_state_ * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<std::uint32_t>(iss_state_ >> 32);
}

void FfStack::port_ref(std::uint16_t p) { tcp_ports_[p]++; }

void FfStack::port_unref(std::uint16_t p) {
  const auto it = tcp_ports_.find(p);
  if (it == tcp_ports_.end()) return;
  if (--it->second == 0) tcp_ports_.erase(it);
}

std::uint16_t FfStack::alloc_ephemeral_port(Ipv4Addr peer_ip,
                                            std::uint16_t peer_port) {
  // O(1) per candidate: the used-port set (tcp_ports_, maintained on PCB
  // insert/erase) replaces the old scan over every live PCB — allocation
  // stays constant-time with thousands of connections.
  //
  // On a multi-queue port (stack sharding) a connect()-time allocation
  // additionally requires the peer's replies to RSS-hash back to THIS
  // shard's queue: with N queues, 1-in-N candidates qualify on average, so
  // the steered scan stays O(N) expected per allocation.
  const auto steering = dev_->rx_steering();
  const bool steered = steering.queue_count > 1 && peer_port != 0;
  for (int tries = 0; tries < 16384; ++tries) {
    const std::uint16_t p = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 65535 ? 49152 : next_ephemeral_ + 1;
    if (!udp_binds_.contains(p) && !tcp_listeners_.contains(p) &&
        !tcp_ports_.contains(p)) {
      if (steered &&
          dev_->rx_queue_of(peer_ip.value, peer_port, cfg_.netif.ip.value, p,
                            6) != steering.queue_id) {
        continue;
      }
      return p;
    }
  }
  return 0;
}

// ===========================================================================
// Socket operations
// ===========================================================================

int FfStack::sock_socket(SockKind kind) {
  Socket* s = socks_.create(kind);
  if (s == nullptr) return -EMFILE;
  if (s->kind == SockKind::kUdp) s->udp->set_pool(pool_);
  return s->fd;
}

int FfStack::sock_bind(int fd, Ipv4Addr ip, std::uint16_t port) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr) return -EBADF;
  if (s->bound) return -EINVAL;
  // The socket's bound state changes only on success: a losing bind must
  // leave it unbound, free to retry, and not owning the winner's port.
  const std::uint16_t p = port != 0 ? port : alloc_ephemeral_port();
  if (p == 0) return -EADDRINUSE;
  if (s->kind == SockKind::kUdp && udp_binds_.contains(p)) return -EADDRINUSE;
  s->local_ip = ip == Ipv4Addr{} ? cfg_.netif.ip : ip;
  s->local_port = p;
  s->bound = true;
  if (s->kind == SockKind::kUdp) {
    s->udp->local_ip = s->local_ip;
    s->udp->local_port = s->local_port;
    udp_binds_[s->local_port] = s->udp.get();
    // Datagram flows have no SYN to steer by: pin the bound port to this
    // shard's queue so its datagrams never land on a sibling.
    dev_->steer_local_port(17, s->local_port);
  }
  return 0;
}

int FfStack::sock_listen(int fd, int backlog) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind != SockKind::kTcp) return -EBADF;
  if (!s->bound) return -EINVAL;
  if (tcp_listeners_.contains(s->local_port)) return -EADDRINUSE;
  // A connecting or connected fd is bound by its ephemeral port but owns
  // that connection's PCB: listen(2) refuses it rather than orphan it.
  if (s->pcb != nullptr) return -EINVAL;
  auto pcb = std::make_unique<TcpPcb>(this, cfg_.tcp, TxChain{}, RxChain{});
  pcb->open_listen(s->local_ip, s->local_port);
  pcb->backlog = std::max(backlog, 1);
  pcb->set_tenant(s->tenant);  // children spawned here bill this tenant
  s->pcb = pcb.get();
  s->listening = true;
  tcp_listeners_.emplace(s->local_port, std::move(pcb));
  // Pin inbound SYNs (and everything after) for this port to our shard's
  // RX queue: accepted children inherit the listener's shard, so a
  // connection's lifetime is single-shard. No-op on single-queue devices.
  dev_->steer_local_port(6, s->local_port);
  return 0;
}

int FfStack::sock_accept(int fd, FourTuple* peer_out) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || !s->listening || s->pcb == nullptr) return -EBADF;
  auto& q = s->pcb->accept_queue;
  while (!q.empty()) {
    TcpPcb* child = q.front();
    q.pop_front();
    if (child->closed()) {  // died (reset) before accept
      detached_.insert(child);
      continue;
    }
    // The child bills the listener's tenant; past the tenant's socket cap
    // the connection aborts HERE (the offender's accept fails) rather than
    // occupying a table slot its neighbours could use.
    if (!tenants_.charge_socket(child->tenant())) {
      child->abort(ECONNABORTED);
      timer_sync(child);
      detached_.insert(child);
      return -EMFILE;
    }
    Socket* cs = socks_.create(SockKind::kTcp);
    if (cs == nullptr) {
      tenants_.credit_socket(child->tenant());
      child->abort(ECONNABORTED);
      timer_sync(child);
      detached_.insert(child);
      return -EMFILE;
    }
    cs->pcb = child;
    cs->tclass = child->tclass();  // inherited from the listener at spawn
    cs->tenant = child->tenant();
    cs->bound = true;
    cs->local_ip = child->tuple().local_ip;
    cs->local_port = child->tuple().local_port;
    if (peer_out != nullptr) *peer_out = child->tuple();
    return cs->fd;
  }
  return -EAGAIN;
}

int FfStack::sock_connect(int fd, Ipv4Addr ip, std::uint16_t port) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind != SockKind::kTcp) return -EBADF;
  if (s->pcb != nullptr) return -EISCONN;
  if (!s->bound) {
    // Peer-aware ephemeral bind: the candidate port must hash the reply
    // direction onto this shard's RX queue (no-op on single-queue ports).
    s->local_ip = cfg_.netif.ip;
    s->local_port = alloc_ephemeral_port(ip, port);
    if (s->local_port == 0) return -EADDRINUSE;
    s->bound = true;
  }
  const FourTuple tuple{s->local_ip, s->local_port, ip, port};
  if (tcp_pcbs_.contains(tuple)) return -EADDRINUSE;
  auto pcb = std::unique_ptr<TcpPcb>(make_pcb());
  TcpPcb* raw = pcb.get();
  tcp_pcbs_.emplace(tuple, std::move(pcb));
  port_ref(tuple.local_port);
  s->pcb = raw;
  raw->set_tenant(s->tenant);  // protocol emissions (SYN parks) bill us
  raw->open_connect(tuple, new_iss());
  timer_sync(raw);  // the SYN's retransmit deadline enters the wheel
  sync_flush();  // the SYN leaves before the call returns
  return -EINPROGRESS;
}

int FfStack::sock_set_class(int fd, std::uint32_t cls) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind == SockKind::kEpoll) return -EBADF;
  if (cls >= kQosClasses) return -EINVAL;
  s->tclass = static_cast<std::uint8_t>(cls);
  // TCP: the PCB carries the authoritative class so pure-protocol
  // emissions (ACKs, retransmits) classify too. On a listener this is the
  // class future accepted children inherit; already-queued children keep
  // the class they spawned with.
  if (s->kind == SockKind::kTcp && s->pcb != nullptr) {
    s->pcb->set_tclass(static_cast<std::uint8_t>(cls));
  }
  return 0;
}

std::int64_t FfStack::sock_write(int fd, const machine::CapView& buf,
                                 std::size_t n) {
  // v1 thin wrapper: a one-element batch through the v2 machinery.
  api_.v1_calls++;
  const FfIovec one{buf, n};
  return writev_impl(fd, {&one, 1});
}

std::int64_t FfStack::sock_writev(int fd, std::span<const FfIovec> iov) {
  api_.batch_calls++;
  api_.batched_items += iov.size();
  return writev_impl(fd, iov);
}

std::int64_t FfStack::writev_impl(int fd, std::span<const FfIovec> iov) {
  TcpPcb* pcb = nullptr;
  if (const std::int64_t r = tcp_sender(fd, pcb)) return r;
  if (const std::int64_t r = admit(Op::kWritev, iov)) return r;
  return tcp_enqueue(*pcb, iov);
}

std::int64_t FfStack::tcp_sender(int fd, TcpPcb*& pcb) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind != SockKind::kTcp || s->pcb == nullptr) {
    return -EBADF;
  }
  pcb = s->pcb;
  if (pcb->error() != 0) return -pcb->error();
  if (!pcb->connected()) {
    return pcb->state() == TcpState::kSynSent ? -EAGAIN : -ENOTCONN;
  }
  return 0;
}

std::int64_t FfStack::tcp_enqueue(TcpPcb& pcb, std::span<const FfIovec> iov) {
  bool any_bytes = false;
  for (const FfIovec& e : iov) any_bytes |= e.len != 0;
  if (!any_bytes) return 0;  // empty batch / all zero-length: no-op
  // Staged frames may hold indirect references into send-ring memory:
  // flush them to the driver BEFORE this call writes into the ring, so a
  // span freed by an earlier ACK cannot be overwritten while a staged
  // frame still gathers from it. If this flow's class could not drain
  // (device wedged, or its token bucket is pacing it), admitting bytes
  // would break that lifetime contract — backpressure the caller instead.
  // Scoped to the flow's OWN class: frames staged by other classes gather
  // from other flows' memory, and a token-paced bulk backlog must not
  // starve a higher class's writes at the API boundary.
  flush_tx();
  if (qos_.staged(pcb.tclass()) != 0) return -EAGAIN;
  const std::size_t queued = pcb.app_writev(iov);
  if (queued == 0) return -EAGAIN;
  // One TCP push services the whole batch.
  if (cfg_.inline_tcp_output) {
    pcb.output();
  } else {
    pending_output_.insert(&pcb);
  }
  timer_sync(&pcb);
  sync_flush();  // synchronous progress: the batch's segments leave now
  return static_cast<std::int64_t>(queued);
}

std::int64_t FfStack::sock_read(int fd, const machine::CapView& buf,
                                std::size_t n) {
  api_.v1_calls++;
  const FfIovec one{buf, n};
  return readv_impl(fd, {&one, 1});
}

std::int64_t FfStack::sock_readv(int fd, std::span<const FfIovec> iov) {
  api_.batch_calls++;
  api_.batched_items += iov.size();
  return readv_impl(fd, iov);
}

std::int64_t FfStack::readv_impl(int fd, std::span<const FfIovec> iov) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind != SockKind::kTcp || s->pcb == nullptr) {
    return -EBADF;
  }
  TcpPcb* pcb = s->pcb;
  if (const std::int64_t r = admit(Op::kReadv, iov)) return r;
  std::size_t total = 0;
  bool any_bytes = false;
  for (const FfIovec& e : iov) {
    if (e.len == 0) continue;
    any_bytes = true;
    const std::size_t got = pcb->app_read(e.buf, e.len);
    total += got;
    if (got < e.len) break;  // receive buffer drained mid-batch
  }
  if (total > 0) {
    if (cfg_.inline_tcp_output) pcb->output();
    timer_sync(pcb);
    // app_read may have emitted a window-reopening ACK even in deferred
    // mode: it leaves before the call returns.
    flush_tx();
    return static_cast<std::int64_t>(total);
  }
  if (!any_bytes) return 0;
  if (pcb->eof()) return 0;
  if (pcb->error() != 0) return -pcb->error();
  return -EAGAIN;
}

std::int64_t FfStack::udp_emit_dgram(Socket* s, const machine::CapView& buf,
                                     std::size_t n, Ipv4Addr ip,
                                     std::uint16_t port) {
  std::vector<std::byte> seg(UdpHeader::kSize + n);
  UdpHeader uh;
  uh.src_port = s->local_port;
  uh.dst_port = port;
  uh.length = static_cast<std::uint16_t>(seg.size());
  uh.checksum = 0;
  uh.serialize(seg);
  buf.read(0, std::span<std::byte>{seg.data() + UdpHeader::kSize, n});
  tx_stats_.copied_bytes += n;  // app payload copied into the TX datagram
  if (tx_udp_csum_ && Ipv4Header::kSize + seg.size() <= cfg_.netif.mtu) {
    // Hardware insertion: seed the checksum field with the folded,
    // non-inverted pseudo sum and let the device walk the bytes. Only for
    // single-frame datagrams — fragments carry partial L4 messages.
    const std::uint32_t ps =
        checksum_pseudo(cfg_.netif.ip, ip, kIpProtoUdp, uh.length);
    put_be16(seg.data() + 6, checksum_fold16(ps));
    const TxOffloadMeta ol{updk::kTxOffloadUdpCsum, UdpHeader::kSize};
    send_ipv4(ip, kIpProtoUdp, seg, s->tclass, &ol, s->tenant);
    return static_cast<std::int64_t>(n);
  }
  std::uint32_t sum = checksum_pseudo(cfg_.netif.ip, ip, kIpProtoUdp,
                                      uh.length);
  sum = checksum_partial(seg, sum);
  tx_stats_.stack_checksum_bytes += n;
  std::uint16_t ck = checksum_finish(sum);
  if (ck == 0) ck = 0xFFFF;  // RFC 768: 0 means "no checksum"
  put_be16(seg.data() + 6, ck);
  send_ipv4(ip, kIpProtoUdp, seg, s->tclass, nullptr, s->tenant);
  return static_cast<std::int64_t>(n);
}

std::int64_t FfStack::sock_sendto(int fd, const machine::CapView& buf,
                                  std::size_t n, Ipv4Addr ip,
                                  std::uint16_t port) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind != SockKind::kUdp) return -EBADF;
  if (n > 65535 - UdpHeader::kSize) return -EMSGSIZE;
  const FfIovec arg{buf, n};
  if (const std::int64_t r = admit(Op::kSendto, {&arg, 1})) return r;
  if (!s->bound) {
    const int r = sock_bind(fd, Ipv4Addr{}, 0);
    if (r != 0) return r;
  }
  api_.v1_calls++;
  const std::int64_t r = udp_emit_dgram(s, buf, n, ip, port);
  flush_tx();
  return r;
}

std::int64_t FfStack::sock_recvfrom(int fd, const machine::CapView& buf,
                                    std::size_t n, FourTuple* from_out) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind != SockKind::kUdp) return -EBADF;
  if (!s->udp->readable()) return -EAGAIN;
  // The byte count clamps to the destination's bounds (v1 read semantics:
  // a datagram shorter than the claimed length still lands), and the check
  // runs BEFORE the pop: a fault mid-copy would destroy the datagram and
  // strand its data room.
  const FfIovec arg{buf, n};
  if (const std::int64_t r = admit(Op::kRecvfrom, {&arg, 1})) return r;
  const std::size_t room = std::min<std::size_t>(n, buf.size());
  api_.v1_calls++;
  UdpDatagram d = s->udp->pop();
  const std::size_t copy = std::min(room, d.size());
  if (d.mbuf != nullptr) {
    std::byte scratch[512];
    machine::cap_copy(buf, 0, d.mbuf->room.window(d.off, copy), 0, copy,
                      scratch);
  } else {
    buf.write(0, std::span<const std::byte>{d.data.data(), copy});
  }
  rx_stats_.copied_bytes += copy;
  if (from_out != nullptr) {
    from_out->remote_ip = d.src;
    from_out->remote_port = d.src_port;
    from_out->local_ip = s->local_ip;
    from_out->local_port = s->local_port;
  }
  s->udp->release(std::move(d));
  return static_cast<std::int64_t>(copy);
}

// ===========================================================================
// Zero-copy TX (TCP): the application writes its payload through a bounded
// capability straight into the mbuf data room; send queues the room itself
// as a retained slice of the send chain — no copy through the socket layer
// (the per-call memcpy ff_write pays).
// ===========================================================================

int FfStack::sock_zc_alloc(std::size_t len, FfZcBuf* out) {
  if (len == 0) return -EINVAL;
  const std::size_t max_payload =
      cfg_.netif.mtu - Ipv4Header::kSize - UdpHeader::kSize;
  if (len > max_payload) return -EMSGSIZE;  // one reservation, one frame
  // Keep a driver reserve: TCP zc reservations can now sit in send queues
  // until cumulatively ACKed, and a sender allowed to pin the WHOLE pool
  // would starve the RX burst of the very buffers that receive its ACKs —
  // a self-inflicted deadlock no backoff could clear. -ENOBUFS is
  // retriable; the reserve (an eighth of the pool, capped at 64 rooms)
  // guarantees the datapath keeps moving.
  const std::uint32_t reserve = std::min<std::uint32_t>(64, pool_->size() / 8);
  if (pool_->available() <= reserve) return -ENOBUFS;
  // The reservation bills the active tenant BEFORE the room is
  // pinned: an over-budget tenant's alloc fails while the pool still has
  // rooms for its neighbours.
  const int tenant = active_tenant_;
  if (!tenants_.charge_zc_reservation(tenant)) return -ENOBUFS;
  updk::Mbuf* m = pool_->alloc();
  if (m == nullptr) {
    tenants_.credit_zc_reservation(tenant);
    return -ENOBUFS;
  }
  if (m->tailroom() < len) {
    tenants_.credit_zc_reservation(tenant);
    pool_->free(m);
    return -EMSGSIZE;
  }
  out->data = m->append(static_cast<std::uint32_t>(len));
  out->token = next_zc_token_++;
  zc_pending_.emplace(out->token, ZcTxRes{m, tenant});
  api_.zc_allocs++;
  return 0;
}

std::int64_t FfStack::sock_zc_send(int fd, std::uint64_t token,
                                   std::size_t len) {
  // TCP only. A datagram fd answers -EBADF before the token is looked at,
  // so the reservation stays live for OP_ZC_ABORT.
  Socket* s = scoped_sock(fd);
  if (s == nullptr || s->kind != SockKind::kTcp) return -EBADF;
  // Token lifecycle BEFORE anything else mutates: a replayed or forged
  // token must answer -EINVAL while every byte of protocol state — TCP
  // sequence space included — is still exactly as it was.
  const auto it = zc_pending_.find(token);
  if (token == 0 || it == zc_pending_.end()) {
    return -EINVAL;  // double submit / send after abort / forged token
  }
  // A tenant may only spend tokens IT reserved: a replayed neighbour token
  // (guessed or leaked) answers -EINVAL without touching the reservation.
  if (foreign_tenant(it->second.tenant)) return -EINVAL;
  updk::Mbuf* m = it->second.m;
  if (len > m->data_len) return -EMSGSIZE;  // reservation kept for retry

  // The slice joins the send queue as a retained reference — no byte
  // store; tcp_output gathers segments straight from the data room and
  // cumulative ACK releases it.
  TcpPcb* pcb = s->pcb;
  if (pcb == nullptr || s->listening) return -EBADF;
  if (pcb->error() != 0) {
    // The connection is DEAD (reset / timed out): this payload can never
    // be submitted, so the reservation is consumed and the buffer freed —
    // a caller need not keep an abort path for a peer it can no longer
    // talk to (and a retry pipeline must not leak one room per attempt).
    const int err = pcb->error();
    pool_->free(m);
    end_zc_reservation(it);
    return -err;
  }
  if (!pcb->connected()) {
    return pcb->state() == TcpState::kSynSent ? -EAGAIN : -ENOTCONN;
  }
  // The slice's checksum is priced HERE, once, as the bytes enter the
  // stack (one capability walk, no bounce buffer): emission — first
  // transmission and every retransmission — composes cached sums and
  // never reads the payload again. With checksum insertion negotiated
  // even this walk disappears: the device sums the bytes on the wire
  // path, and the stack never touches them at all.
  std::uint32_t csum = 0;
  if (!tx_tcp_csum_) {
    csum = checksum_cap_partial(m->room, m->data_off, len);
    tx_stats_.stack_checksum_bytes += len;
  }
  if (!pcb->app_zc_send(m, m->data_off, static_cast<std::uint32_t>(len),
                        csum)) {
    return -EAGAIN;  // send window full: reservation kept for retry
  }
  // Ownership moved to the send chain; the token is consumed.
  end_zc_reservation(it);
  api_.zc_sends++;
  if (cfg_.inline_tcp_output) {
    pcb->output();
  } else {
    pending_output_.insert(pcb);
  }
  timer_sync(pcb);
  sync_flush();  // synchronous progress for the inline path
  return static_cast<std::int64_t>(len);
}

int FfStack::sock_zc_abort(std::uint64_t token) {
  const auto it = zc_pending_.find(token);
  if (token == 0 || it == zc_pending_.end()) return -EINVAL;
  if (foreign_tenant(it->second.tenant)) {
    return -EINVAL;  // a neighbour's token aborts nothing
  }
  pool_->free(it->second.m);
  end_zc_reservation(it);
  api_.zc_aborts++;
  return 0;
}

void FfStack::end_zc_reservation(
    std::unordered_map<std::uint64_t, ZcTxRes>::iterator it) {
  tenants_.credit_zc_reservation(it->second.tenant);
  zc_pending_.erase(it);
}

// ===========================================================================
// Zero-copy RX: pop queued mbuf slices as exactly-bounded read-only loans.
// The loan's data room returns to the pool ONLY through sock_zc_recycle —
// the token table and the per-socket window accounting both outlive the
// connection that produced the bytes.
// ===========================================================================

void FfStack::zc_issue_loan(FfZcRxBuf& o, const MbufSlice& slice,
                            std::size_t charge, const FfSockAddrIn& from,
                            TcpPcb* pcb, UdpPcb* udp, int tenant) {
  const std::uint64_t token = next_zc_rx_token_++;
  zc_rx_loans_.emplace(token,
                       ZcRxLoan{slice.m, pcb, udp,
                                static_cast<std::uint32_t>(charge), tenant});
  if (udp != nullptr) udp->charge_loan(charge);
  o.token = token;
  o.data = slice.m->loan(slice.off, slice.len);
  o.from = from;
  api_.zc_rx_loans++;
}

std::int64_t FfStack::udp_pop_loan(Socket* s, FfZcRxBuf& o) {
  if (!s->udp->readable()) return -EAGAIN;
  // The loan pins a whole data room against the owner's budget; charging
  // BEFORE the pop keeps an over-budget rejection retriable (the datagram
  // stays queued until the tenant recycles).
  const int tenant = effective_tenant(s);
  if (!tenants_.charge_loan(tenant)) return -ENOBUFS;
  if (s->udp->front().mbuf == nullptr) {
    // Copy-backed datagram (reassembled): bounce through a fresh mbuf so
    // the recycle lifecycle stays uniform. A datagram too large for any
    // data room can NEVER bounce — report -EMSGSIZE (receive it with the
    // copy path instead) rather than an -ENOBUFS no recycling could ever
    // clear. Within-room bounces happen BEFORE the pop, so -ENOBUFS
    // leaves the datagram queued and genuinely retriable.
    if (s->udp->front().data.size() + updk::kMbufHeadroom >
        pool_->data_room()) {
      tenants_.credit_loan(tenant);
      return -EMSGSIZE;
    }
    updk::Mbuf* fresh =
        bounce_into_mbuf(pool_, s->udp->front().data, &rx_stats_);
    if (fresh == nullptr) {
      tenants_.credit_loan(tenant);
      return -ENOBUFS;
    }
    const UdpDatagram d = s->udp->pop();
    zc_issue_loan(o,
                  MbufSlice{fresh, fresh->data_off,
                            static_cast<std::uint32_t>(d.data.size())},
                  fresh->room_size(), {d.src, d.src_port}, nullptr,
                  s->udp.get(), tenant);
  } else {
    // The queue's reference transfers to the loan table; the loan pins
    // (and charges) the whole data room until recycled.
    UdpDatagram d = s->udp->pop();
    zc_issue_loan(o, MbufSlice{d.mbuf, d.off, d.len}, d.mbuf->room_size(),
                  {d.src, d.src_port}, nullptr, s->udp.get(), tenant);
  }
  return 1;
}

std::int64_t FfStack::sock_zc_recv(int fd, std::span<FfZcRxBuf> out) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr) return -EBADF;
  if (out.empty()) return 0;
  api_.batch_calls++;
  api_.batched_items += out.size();

  std::int64_t filled = 0;
  if (s->kind == SockKind::kTcp) {
    if (s->pcb == nullptr || s->listening) return -EBADF;
    TcpPcb* pcb = s->pcb;
    const int tenant = effective_tenant(s);
    const FfSockAddrIn peer{pcb->tuple().remote_ip, pcb->tuple().remote_port};
    for (FfZcRxBuf& o : out) {
      // Over-budget mid-batch keeps the partial fill; a first-loan
      // rejection is -ENOBUFS the tenant clears by recycling.
      if (!tenants_.charge_loan(tenant)) {
        if (filled > 0) break;
        return -ENOBUFS;
      }
      const bool had_data = pcb->rx_used() > 0;
      std::size_t charge = 0;
      const auto slice = pcb->zc_rx_pop(&charge);
      if (!slice.has_value()) {
        tenants_.credit_loan(tenant);
        if (had_data) return filled > 0 ? filled : -ENOBUFS;  // bounce failed
        break;
      }
      zc_issue_loan(o, *slice, charge, peer, pcb, nullptr, tenant);
      ++filled;
    }
    if (filled > 0) return filled;
    if (pcb->eof()) return 0;
    if (pcb->error() != 0) return -pcb->error();
    return -EAGAIN;
  }
  if (s->kind == SockKind::kUdp) {
    for (FfZcRxBuf& o : out) {
      const std::int64_t r = udp_pop_loan(s, o);
      if (r == -EAGAIN) break;
      if (r != 1) return filled > 0 ? filled : r;
      ++filled;
    }
    return filled > 0 ? filled : -EAGAIN;
  }
  return -EBADF;
}

int FfStack::sock_zc_recycle(FfZcRxBuf& zc) {
  const auto it = zc_rx_loans_.find(zc.token);
  if (zc.token == 0 || it == zc_rx_loans_.end()) {
    return -EINVAL;  // double recycle / forged token
  }
  if (foreign_tenant(it->second.tenant)) {
    return -EINVAL;  // a neighbour's loan cannot be recycled out from under it
  }
  const ZcRxLoan loan = it->second;
  zc_rx_loans_.erase(it);
  pool_->recycle(loan.m);
  tenants_.credit_loan(loan.tenant);
  if (loan.pcb != nullptr) {
    loan.pcb->zc_rx_credit(loan.charge);
    timer_sync(loan.pcb);  // the credit may have emitted a window ACK
  }
  if (loan.udp != nullptr) loan.udp->credit_loan(loan.charge);
  zc.token = 0;
  zc.data = machine::CapView{};
  api_.zc_rx_recycles++;
  sync_flush();  // a reopened-window ACK leaves before the call returns
  return 0;
}

int FfStack::sock_close(int fd) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr) return -EBADF;
  switch (s->kind) {
    case SockKind::kTcp:
      if (s->listening) {
        if (s->pcb != nullptr) {
          // Abort queued children and any half-open (SYN_RCVD or not yet
          // accepted) connection spawned by this listener: nobody will ever
          // accept them (FreeBSD drops the syncache the same way).
          for (auto& [t, pcb] : tcp_pcbs_) {
            if (pcb->listener == s->pcb) {
              pcb->listener = nullptr;
              if (!detached_.contains(pcb.get())) {
                pcb->abort(ECONNABORTED);
                detached_.insert(pcb.get());
              }
              timer_sync(pcb.get());
            }
          }
          s->pcb->accept_queue.clear();
          if (s->pcb->wheel_id != TimerWheel::kInvalidId) {
            wheel_.cancel(s->pcb->wheel_id);
          }
          accumulate_reaped(*s->pcb);
          tcp_listeners_.erase(s->local_port);
          dev_->unsteer_local_port(6, s->local_port);
        }
        // A dying listener ends its multishot accept arms.
        for (auto& [id, r] : urings_) {
          std::erase_if(r.accept_arms,
                        [fd](const UringReg::AcceptArm& a) {
                          return a.fd == fd;
                        });
        }
      } else if (s->pcb != nullptr) {
        s->pcb->app_close();
        timer_sync(s->pcb);
        detached_.insert(s->pcb);
      }
      uring_forget_fd(fd);  // the fd's connect arm ends with it
      break;
    case SockKind::kUdp:
      udp_binds_.erase(s->local_port);
      dev_->unsteer_local_port(17, s->local_port);
      // The UdpPcb dies with the fd; outstanding loans detach from its
      // budget and recycle as pure pool returns.
      for (auto& [token, loan] : zc_rx_loans_) {
        if (loan.udp == s->udp.get()) loan.udp = nullptr;
      }
      break;
    case SockKind::kEpoll:
      // The fd may be reused: forget uring CQ sinks armed through it so a
      // later detach cannot disarm an unrelated successor instance.
      for (auto& [id, r] : urings_) std::erase(r.epoll_arms, fd);
      break;
  }
  // The fd leaves every interest set with it, as on Linux: a successor
  // that reuses the number must not inherit a stale watch or cookie.
  socks_.for_each([fd](Socket& e) {
    if (e.kind == SockKind::kEpoll && e.epoll) {
      (void)e.epoll->ctl(EpollOp::kDel, fd, 0, 0);
    }
  });
  tenants_.credit_socket(s->tenant);
  socks_.release(fd);
  sync_flush();  // FIN/RST emission is synchronous with the close
  return 0;
}

std::uint32_t FfStack::sock_readiness(int fd) const {
  const Socket* s = socks_.get(fd);
  if (s == nullptr) return kEpollErr | kEpollHup;
  std::uint32_t m = 0;
  switch (s->kind) {
    case SockKind::kTcp: {
      if (s->pcb == nullptr) break;
      if (s->listening) {
        if (!s->pcb->accept_queue.empty()) m |= kEpollIn;
        break;
      }
      if (s->pcb->readable()) m |= kEpollIn;
      if (s->pcb->writable()) m |= kEpollOut;
      if (s->pcb->error() != 0) m |= kEpollErr;
      if (s->pcb->eof() || s->pcb->closed()) m |= kEpollHup | kEpollIn;
      break;
    }
    case SockKind::kUdp:
      if (s->udp->readable()) m |= kEpollIn;
      m |= kEpollOut;
      break;
    case SockKind::kEpoll:
      break;
  }
  return m;
}

int FfStack::epoll_create() { return sock_socket(SockKind::kEpoll); }

int FfStack::epoll_ctl(int epfd, EpollOp op, int fd, std::uint32_t events,
                       std::uint64_t data) {
  Socket* e = scoped_sock(epfd);
  if (e == nullptr || e->kind != SockKind::kEpoll) return -EBADF;
  if (scoped_sock(fd) == nullptr) return -EBADF;
  return e->epoll->ctl(op, fd, events, data);
}

int FfStack::epoll_wait(int epfd, std::span<FfEpollEvent> out) {
  Socket* e = scoped_sock(epfd);
  if (e == nullptr || e->kind != SockKind::kEpoll) return -EBADF;
  int n = 0;
  for (const auto& [fd, interest] : e->epoll->interest()) {
    if (n == static_cast<int>(out.size())) break;
    const std::uint32_t ready =
        sock_readiness(fd) & (interest.events | kEpollErr | kEpollHup);
    if (ready != 0) {
      out[n].events = ready;
      out[n].data = interest.data;
      ++n;
    }
  }
  return n;
}

// ===========================================================================
// ff_uring: the submission/completion ring boundary. One arming
// crossing delegates the ring capability; from then on the main loop drains
// the SQ every iteration — ONE validation sweep over the whole pending
// window (amortized over every entry it covers), per-entry verdicts that
// never poison the rest of the sweep, and CQ backpressure that defers
// (never drops) completions.
// ===========================================================================

namespace {

/// One decoded submission, produced by the per-drain validation sweep.
struct DecodedSqe {
  UringOp op{};
  int fd = -1;
  std::uint64_t user_data = 0;
  std::array<std::uint64_t, 4> a{};
  std::uint32_t ncaps = 0;
  // The payload views as iovecs, each over its view's whole size.
  std::array<FfIovec, FfUringSqe::kMaxCaps> iov{};
  std::array<std::uint64_t, FfUringSqe::kMaxTokens> tokens{};
  std::int64_t err = 0;  // sweep verdict: 0 ok, else -EINVAL
};

/// Per-iteration drain budget: bounds the work one loop turn absorbs
/// however deep the applications sized their SQs. The budget is shared by
/// ALL attached rings, split fair-share with unused shares redistributed
/// (drain_urings) — a heavy ring cannot starve a light one within an
/// iteration.
constexpr std::uint32_t kUringDrainBudget = 64;

void decode_sqe(const machine::CapView& mem, std::uint64_t off,
                DecodedSqe& d) {
  d.op = static_cast<UringOp>(mem.load<std::uint32_t>(off));
  d.fd = mem.load<std::int32_t>(off + 4);
  d.user_data = mem.load<std::uint64_t>(off + 8);
  for (std::size_t i = 0; i < 4; ++i) {
    d.a[i] = mem.load<std::uint64_t>(off + 16 + i * 8);
  }
  d.ncaps = std::min(mem.load<std::uint32_t>(off + 48),
                     static_cast<std::uint32_t>(FfUringSqe::kMaxCaps));
  if (d.op == UringOp::kRecycle) {
    for (std::size_t i = 0; i < FfUringSqe::kMaxTokens; ++i) {
      d.tokens[i] =
          mem.load<std::uint64_t>(off + FfUring::kSqePayloadOff + i * 8);
    }
  } else {
    for (std::uint32_t i = 0; i < d.ncaps; ++i) {
      const machine::CapView v =
          mem.load_cap(off + FfUring::kSqePayloadOff + i * 16u);
      d.iov[i] = {v, static_cast<std::size_t>(v.size())};
    }
  }
}

/// The per-entry half of the drain's validation sweep: an unknown opcode,
/// a reserved argument, or a payload its row refuses (check_args through
/// Door::kRing) earns THIS entry -EINVAL; its neighbours are untouched.
std::int64_t sqe_verdict(const DecodedSqe& d) {
  switch (d.op) {
    case UringOp::kNop:
    case UringOp::kWritev:
    case UringOp::kZcSend:
    case UringOp::kZcRecv:
    case UringOp::kZcAlloc:
    case UringOp::kRecycle:
    case UringOp::kEpollArm:
    case UringOp::kConnect:
    case UringOp::kClose:
    case UringOp::kEpollCtl:
    case UringOp::kSetClass:
    case UringOp::kZcAbort: {
      const std::optional<Op> op = ring_op(d.op);
      return op ? check_args(Door::kRing, *op, {d.iov.data(), d.ncaps}) : 0;
    }
    case UringOp::kAcceptMultishot:
      return d.a[0] != 0 ? -EINVAL : 0;  // a0 is reserved
  }
  return -EINVAL;  // unknown opcode (2 is retired OP_SENDMSG_BATCH)
}

}  // namespace

int FfStack::uring_attach(const machine::CapView& mem,
                          std::uint32_t sq_capacity,
                          std::uint32_t cq_capacity) {
  if (!FfUring::valid_capacity(sq_capacity) ||
      !FfUring::valid_capacity(cq_capacity)) {
    return -EINVAL;
  }
  const std::size_t need = FfUring::bytes_for(sq_capacity, cq_capacity);
  if (mem.size() < need) return -EINVAL;
  // The arming crossing is the ONE whole-ring check this attachment ever
  // pays, never per operation: a bad grant is refused now, not mid-drain.
  const FfIovec region{mem, need};
  if (const std::int64_t r = admit(Op::kUringAttach, {&region, 1})) {
    return static_cast<int>(r);
  }
  if (mem.load<std::uint32_t>(FfUring::kSqCapacity) != sq_capacity ||
      mem.load<std::uint32_t>(FfUring::kCqCapacity) != cq_capacity) {
    return -EINVAL;  // header not initialized (FfUring ctor does that)
  }
  const int id = next_uring_id_++;
  urings_.emplace(id,
                  UringReg{mem, sq_capacity, cq_capacity, {}, {}, {}, {}});
  // A ring attached while the loop is between park and wake still gets an
  // accurate doorbell hint.
  if (urings_parked_) mem.atomic_store_u32(FfUring::kStackState, kStackParked);
  api_.uring_attaches++;
  return id;
}

int FfStack::uring_detach(int id) {
  const auto it = urings_.find(id);
  if (it == urings_.end()) return -EBADF;
  for (const int epfd : it->second.epoll_arms) {
    Socket* e = socks_.get(epfd);
    if (e != nullptr && e->kind == SockKind::kEpoll && e->epoll) {
      e->epoll->disarm();
    }
  }
  urings_.erase(it);
  return 0;
}

int FfStack::uring_doorbell(int id) {
  const auto it = urings_.find(id);
  if (it == urings_.end()) return -EBADF;
  api_.uring_doorbells++;
  if (tenants_.valid(it->second.tenant)) {
    tenants_.mutable_stats(it->second.tenant).doorbells++;
  }
  // A doorbell is the one ring's own crossing: it gets the full budget
  // (fair-sharing applies to the loop's per-iteration drain, where every
  // attached ring competes) — unless its own CQ is full with work pending,
  // in which case ringing the bell harder must not buy a drain the fair
  // loop would have skipped.
  const std::uint32_t consumed =
      uring_cq_stalled(it->second)
          ? 0
          : uring_drain_sqes(it->second, kUringDrainBudget);
  uring_service_accept(it->second);
  uring_service_connect(it->second);
  flush_tx();  // the doorbell's drain must make synchronous wire progress
  // The doorbell runs on the CALLER's sealed jump; the main loop may well
  // still be parked. Leave the header telling the truth, or the next
  // empty->non-empty push would wrongly skip its doorbell and sit until
  // the heartbeat — the lost wakeup the bell exists to prevent.
  it->second.mem.atomic_store_u32(
      FfUring::kStackState, urings_parked_ ? kStackParked : kStackPolling);
  return static_cast<int>(consumed);
}

void FfStack::urings_set_parked(bool parked) {
  for (auto& [id, r] : urings_) {
    r.mem.atomic_store_u32(FfUring::kStackState,
                           parked ? kStackParked : kStackPolling);
  }
  urings_parked_ = parked;
}

bool FfStack::drain_urings() {
  if (urings_parked_) urings_set_parked(false);  // transition store only
  bool progress = false;
  if (!urings_.empty()) {
    // Fair-share the per-iteration budget across attached rings: every
    // ring gets a slice of the 64-SQE allowance proportional to its
    // tenant's DRR weight each pass (untenanted rings weigh 1), and a
    // pass's unused remainder redistributes to rings that still have
    // pending submissions — a saturated ring can take at most the leftover
    // after every light ring drained its share. A ring whose CQ is full
    // while work is pending is SKIPPED — its backpressure confines to it.
    std::uint32_t total_w = 0;
    for (auto& [id, r] : urings_) total_w += tenants_.drain_weight(r.tenant);
    std::uint32_t budget = kUringDrainBudget;
    bool spent_any = true;
    while (budget > 0 && spent_any) {
      spent_any = false;
      for (auto& [id, r] : urings_) {
        if (budget == 0) break;
        if (uring_cq_stalled(r)) continue;
        const std::uint32_t w = tenants_.drain_weight(r.tenant);
        const auto share = std::max<std::uint32_t>(
            1, kUringDrainBudget * w / std::max<std::uint32_t>(1, total_w));
        const std::uint32_t allotted = std::min(share, budget);
        const std::uint32_t spent = uring_drain_sqes(r, allotted);
        budget -= spent;
        spent_any |= spent > 0;
        progress |= spent > 0;
        // A ring cut off by its share with submissions still queued was
        // THROTTLED by weight, not starved by neighbours: count it so the
        // census can tell scheduling pressure from stack failure.
        if (spent == allotted && spent > 0 && uring_sq_pending(r) > 0) {
          api_.sq_drain_throttled++;
          if (tenants_.valid(r.tenant)) {
            tenants_.mutable_stats(r.tenant).sq_drain_throttled++;
          }
        }
      }
    }
  }
  for (auto& [id, r] : urings_) {
    progress |= uring_service_accept(r);
    progress |= uring_service_connect(r);
  }
  return progress;
}

std::uint32_t FfStack::uring_cq_space(const UringReg& r) const {
  const std::uint32_t head = r.mem.atomic_load_u32(FfUring::kCqHead);
  const std::uint32_t tail = r.mem.atomic_load_u32(FfUring::kCqTail);
  return r.cq_cap - (tail - head);
}

std::uint32_t FfStack::uring_sq_pending(const UringReg& r) const {
  return r.mem.atomic_load_u32(FfUring::kSqTail) -
         r.mem.atomic_load_u32(FfUring::kSqHead);
}

bool FfStack::uring_cq_stalled(UringReg& r) {
  if (uring_cq_space(r) > 0) {
    r.cq_stall_rounds = 0;
    return false;
  }
  // CQ completely full. Only count a STALL when this ring actually has
  // work the full CQ is blocking — a quiet ring whose app reaps lazily is
  // not deferring anything.
  const bool work_pending = uring_sq_pending(r) > 0 ||
                            !r.accept_arms.empty() || !r.connect_arms.empty();
  if (!work_pending) return true;  // nothing to defer, nothing to charge
  api_.cq_deferrals++;
  if (tenants_.valid(r.tenant)) tenants_.mutable_stats(r.tenant).cq_deferrals++;
  r.cq_stall_rounds++;
  // Past the tenant's stall allowance the ring's RE-DERIVABLE subscription
  // state is evicted: multishot accept arms can be re-armed by the app
  // once it reaps, but until then they are the only stack-side state a
  // never-reaping ring forces the stack to retain and re-walk.
  // Queued SQEs are NOT touched — they live in the tenant's own ring
  // memory, bounded by its sq_cap, not by stack-side memory.
  const std::uint32_t cap =
      tenants_.valid(r.tenant) ? tenants_.quota(r.tenant).max_cq_stall_rounds
                               : 0;
  if (cap != 0 && r.cq_stall_rounds > cap && !r.accept_arms.empty()) {
    r.accept_arms.clear();
    api_.cq_deferral_evictions++;
    tenants_.mutable_stats(r.tenant).cq_deferral_evictions++;
  }
  return true;
}

void FfStack::note_sqe_error(const UringReg& r) {
  api_.uring_sqe_errors++;
  if (tenants_.valid(r.tenant)) tenants_.mutable_stats(r.tenant).sqe_errors++;
}

bool FfStack::uring_cq_emit(UringReg& r, std::uint64_t user_data,
                            std::int64_t result, UringOp op,
                            std::uint32_t flags, std::uint64_t aux0,
                            std::uint64_t aux1,
                            const machine::CapView* cap) {
  const std::uint32_t head = r.mem.atomic_load_u32(FfUring::kCqHead);
  const std::uint32_t tail = r.mem.atomic_load_u32(FfUring::kCqTail);
  if (tail - head >= r.cq_cap) {  // full: defer (retry later), never drop
    r.mem.atomic_store_u32(FfUring::kCqOverflow,
                           r.mem.atomic_load_u32(FfUring::kCqOverflow) + 1);
    return false;
  }
  const std::uint64_t off =
      FfUring::cqe_off(r.sq_cap, tail & (r.cq_cap - 1));
  r.mem.store<std::uint64_t>(off, user_data);
  r.mem.store<std::int64_t>(off + 8, result);
  r.mem.store<std::uint32_t>(off + 16, static_cast<std::uint32_t>(op));
  r.mem.store<std::uint32_t>(off + 20, flags);
  r.mem.store<std::uint64_t>(off + 24, aux0);
  r.mem.store<std::uint64_t>(off + 32, aux1);
  if (cap != nullptr) {
    r.mem.store_cap(off + FfUring::kCqeCapOff, *cap);
  }
  r.mem.atomic_store_u32(FfUring::kCqTail, tail + 1);  // release: payload 1st
  api_.uring_cqes++;
  return true;
}

std::uint32_t FfStack::uring_drain_sqes(UringReg& r, std::uint32_t budget) {
  std::uint32_t consumed = 0;
  // Ops executed by the drain defer their tail flushes (sync_flush) to the
  // ONE flush the caller performs after the whole window — per-SQE driver
  // doorbells would undo the amortization the ring exists for. The safety
  // flush before send-ring writes is not affected.
  in_uring_drain_ = true;
  // Ops executed from this ring charge its tenant: zc reservations, loans
  // and token-table lookups all read the adopted context.
  const TenantScope tenant_scope(*this, r.tenant, Door::kRing);
  budget = std::min(budget, kUringDrainBudget);  // decode scratch bound
  const std::uint32_t tail = r.mem.atomic_load_u32(FfUring::kSqTail);
  std::uint32_t head = r.mem.atomic_load_u32(FfUring::kSqHead);
  std::uint32_t pending = tail - head;
  if (pending > 0 && budget > 0) {
    // Peek the HEAD entry's completion demand before committing to a
    // sweep: the drain is FIFO, so if the head cannot complete, nothing
    // can — skip entirely rather than re-decode the same window every
    // iteration (and inflate the very sweep counters the census gates on).
    const std::uint64_t hoff =
        FfUring::sqe_off(r.sq_cap, head & (r.sq_cap - 1));
    std::uint32_t head_need = 1;
    const auto head_op =
        static_cast<UringOp>(r.mem.load<std::uint32_t>(hoff));
    if (head_op == UringOp::kZcRecv || head_op == UringOp::kZcAlloc) {
      head_need = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
          r.mem.load<std::uint64_t>(hoff + 16), 1,
          std::min<std::uint32_t>(FfUringSqe::kMaxCaps, r.cq_cap)));
    }
    if (uring_cq_space(r) < head_need) {
      r.mem.atomic_store_u32(
          FfUring::kCqOverflow,
          r.mem.atomic_load_u32(FfUring::kCqOverflow) + 1);
      // A partially-full CQ that cannot take the head's multi-CQE burst is
      // the same deferral the stall check counts for a fully-full one.
      api_.cq_deferrals++;
      if (tenants_.valid(r.tenant)) {
        tenants_.mutable_stats(r.tenant).cq_deferrals++;
      }
      pending = 0;
    }
  }
  if (pending > 0 && budget > 0) {
    pending = std::min(pending, budget);
    // Pass 1: ONE validation sweep over the whole pending window, amortized
    // over every entry it covers. Verdicts are per entry.
    // The decode scratch persists per thread: constructing (zeroing) 64
    // entries of CapView arrays on every drain would tax the hot loop;
    // decode_sqe fully rewrites every field it later reads.
    static thread_local std::array<DecodedSqe, kUringDrainBudget> win;
    for (std::uint32_t i = 0; i < pending; ++i) {
      decode_sqe(r.mem,
                 FfUring::sqe_off(r.sq_cap, (head + i) & (r.sq_cap - 1)),
                 win[i]);
      win[i].err = sqe_verdict(win[i]);
    }
    api_.validation_sweeps++;

    // Pass 2: execute in order. An entry whose completions don't fit the
    // CQ stops the drain BEFORE executing (backpressure: it stays queued
    // and re-runs next iteration; the stack never drops a CQE).
    for (std::uint32_t i = 0; i < pending; ++i) {
      DecodedSqe& d = win[i];
      std::uint32_t need_cq = 1;
      if ((d.op == UringOp::kZcRecv || d.op == UringOp::kZcAlloc) &&
          d.err == 0) {
        need_cq = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
            d.a[0], 1, std::min<std::uint32_t>(FfUringSqe::kMaxCaps,
                                               r.cq_cap)));
      }
      if (uring_cq_space(r) < need_cq) {
        r.mem.atomic_store_u32(
            FfUring::kCqOverflow,
            r.mem.atomic_load_u32(FfUring::kCqOverflow) + 1);
        break;
      }
      if (d.err != 0) {  // sweep verdict: this entry alone fails
        uring_cq_emit(r, d.user_data, d.err, d.op, 0, 0, 0, nullptr);
        note_sqe_error(r);
      } else {
        switch (d.op) {
          case UringOp::kNop:
            uring_cq_emit(r, d.user_data, 0, d.op, 0, 0, 0, nullptr);
            break;
          case UringOp::kWritev: {
            // The sweep ran the check; the fd's state answers next.
            api_.batch_calls++;
            api_.batched_items += d.ncaps;
            TcpPcb* pcb = nullptr;
            std::int64_t res = tcp_sender(d.fd, pcb);
            if (res == 0) res = tcp_enqueue(*pcb, {d.iov.data(), d.ncaps});
            uring_cq_emit(r, d.user_data, res, d.op, 0, 0, 0, nullptr);
            break;
          }
          case UringOp::kZcSend: {
            const std::int64_t res = sock_zc_send(d.fd, d.a[0], d.a[1]);
            uring_cq_emit(r, d.user_data, res, d.op, 0, 0, 0, nullptr);
            if (res < 0) note_sqe_error(r);  // forged tokens land here
            break;
          }
          case UringOp::kZcAlloc: {
            // Ring-native zc TX reservations: each CQE hands back a token
            // plus a WRITABLE exactly-bounded capability into a fresh mbuf
            // data room — the app fills its payload in place and submits
            // OP_ZC_SEND, with zero crossings for the whole round trip.
            FfZcBuf bufs[FfUringSqe::kMaxCaps];
            std::uint32_t got = 0;
            std::int64_t err = 0;
            for (; got < need_cq; ++got) {
              const int rc = sock_zc_alloc(d.a[1], &bufs[got]);
              if (rc != 0) {
                err = rc;
                break;
              }
            }
            if (got == 0) {
              uring_cq_emit(r, d.user_data, err, d.op, 0, 0, 0, nullptr);
              note_sqe_error(r);
            } else {
              for (std::uint32_t k = 0; k < got; ++k) {
                uring_cq_emit(r, d.user_data,
                              static_cast<std::int64_t>(bufs[k].data.size()),
                              d.op, k + 1 < got ? kCqeMore : 0,
                              bufs[k].token, 0, &bufs[k].data);
              }
            }
            break;
          }
          case UringOp::kZcRecv: {
            FfZcRxBuf loans[FfUringSqe::kMaxCaps];
            const std::int64_t res = sock_zc_recv(d.fd, {loans, need_cq});
            if (res > 0) {
              for (std::int64_t k = 0; k < res; ++k) {
                FfZcRxBuf& ln = loans[k];
                uring_cq_emit(
                    r, d.user_data,
                    static_cast<std::int64_t>(ln.data.size()), d.op,
                    k + 1 < res ? kCqeMore : 0, ln.token,
                    uring_pack_addr(ln.from), &ln.data);
              }
            } else {
              // EOF carries its own flag: result 0 alone could also be a
              // legal zero-length datagram loan (token in aux0).
              uring_cq_emit(r, d.user_data, res, d.op,
                            res == 0 ? kCqeEof : 0, 0, 0, nullptr);
            }
            break;
          }
          case UringOp::kRecycle: {
            const auto cnt = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(d.a[0], FfUringSqe::kMaxTokens));
            std::int64_t ok = 0;
            for (std::uint32_t k = 0; k < cnt; ++k) {
              FfZcRxBuf z;
              z.token = d.tokens[k];
              if (sock_zc_recycle(z) == 0) ++ok;
            }
            // Forged/replayed tokens are per-token rejections (aux0 counts
            // them); an entry with NOTHING valid answers -EINVAL.
            if (cnt > 0 && ok == 0) {
              uring_cq_emit(r, d.user_data, -EINVAL, d.op, 0, cnt, 0,
                            nullptr);
              note_sqe_error(r);
            } else {
              uring_cq_emit(r, d.user_data, ok, d.op, 0, cnt - ok, 0,
                            nullptr);
            }
            break;
          }
          case UringOp::kAcceptMultishot: {
            Socket* s = scoped_sock(d.fd);
            if (s == nullptr || s->kind != SockKind::kTcp ||
                !s->listening) {
              uring_cq_emit(r, d.user_data, -EBADF, d.op, 0, 0, 0, nullptr);
              break;
            }
            // Arm (or re-arm) the listener: every accepted connection from
            // here on posts a CQE carrying the new fd — no ack CQE on
            // success, exactly io_uring's multishot accept discipline.
            std::erase_if(r.accept_arms,
                          [&d](const UringReg::AcceptArm& a) {
                            return a.fd == d.fd;
                          });
            r.accept_arms.push_back({d.fd, d.user_data});
            break;
          }
          case UringOp::kConnect: {
            const FfSockAddrIn to = uring_unpack_addr(d.a[0]);
            const std::int64_t res = sock_connect(d.fd, to.ip, to.port);
            if (res == -EINPROGRESS) {
              // The CQE posts when the handshake resolves — the app never
              // polls or re-crosses for connection establishment.
              r.connect_arms.push_back({d.fd, d.user_data});
            } else {
              uring_cq_emit(r, d.user_data, res, d.op, 0,
                            static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(d.fd)),
                            0, nullptr);
              if (res < 0) note_sqe_error(r);
            }
            break;
          }
          case UringOp::kClose: {
            const std::int64_t res = sock_close(d.fd);
            uring_cq_emit(r, d.user_data, res, d.op, 0,
                          static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(d.fd)),
                          0, nullptr);
            if (res < 0) note_sqe_error(r);
            break;
          }
          case UringOp::kEpollCtl: {
            const auto op_code = static_cast<std::uint64_t>(d.a[0]);
            std::int64_t res = -EINVAL;
            if (op_code >= 1 && op_code <= 3) {
              res = epoll_ctl(d.fd, static_cast<EpollOp>(op_code),
                              static_cast<int>(d.a[1]),
                              static_cast<std::uint32_t>(d.a[2]), d.a[3]);
            }
            uring_cq_emit(r, d.user_data, res, d.op, 0, 0, 0, nullptr);
            if (res < 0) note_sqe_error(r);
            break;
          }
          case UringOp::kSetClass: {
            // Immediate verdict, like OP_EPOLL_CTL: class changes are
            // control-plane ops that ride the ring with zero crossings.
            const std::int64_t res =
                sock_set_class(d.fd, static_cast<std::uint32_t>(d.a[0]));
            uring_cq_emit(r, d.user_data, res, d.op, 0,
                          static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(d.fd)),
                          0, nullptr);
            if (res < 0) note_sqe_error(r);
            break;
          }
          case UringOp::kZcAbort: {
            // Drop an unsent reservation: the data room goes back to the
            // pool and the tenant's reservation gauge is credited.
            const std::int64_t res = sock_zc_abort(d.a[0]);
            uring_cq_emit(r, d.user_data, res, d.op, 0, 0, 0, nullptr);
            if (res < 0) note_sqe_error(r);
            break;
          }
          case UringOp::kEpollArm: {
            Socket* e = scoped_sock(d.fd);
            if (e == nullptr || e->kind != SockKind::kEpoll || !e->epoll) {
              uring_cq_emit(r, d.user_data, -EBADF, d.op, 0, 0, 0, nullptr);
              break;
            }
            // Re-arming moves ownership: no other ring may keep a claim
            // on this epfd (its detach would disarm OUR delivery).
            uring_forget_epoll_arm(d.fd);
            UringReg* reg = &r;  // std::map references are stable
            const std::uint64_t ud = d.user_data;
            e->epoll->arm_sink(
                [this, reg, ud](std::uint32_t ready, std::uint64_t data) {
                  return uring_cq_emit(*reg, ud,
                                       static_cast<std::int64_t>(ready),
                                       UringOp::kEpollArm, kCqeMore, data, 0,
                                       nullptr);
                });
            if (std::find(r.epoll_arms.begin(), r.epoll_arms.end(), d.fd) ==
                r.epoll_arms.end()) {
              r.epoll_arms.push_back(d.fd);
            }
            api_.multishot_arms++;
            publish_ready(*e->epoll);  // immediate readiness snapshot
            break;
          }
        }
      }
      ++head;
      ++consumed;
      api_.uring_sqes++;
    }
    r.mem.atomic_store_u32(FfUring::kSqHead, head);  // release consumed
  }
  in_uring_drain_ = false;
  return consumed;
}

void FfStack::uring_forget_epoll_arm(int epfd) {
  for (auto& [id, reg] : urings_) std::erase(reg.epoll_arms, epfd);
}

bool FfStack::uring_service_accept(UringReg& r) {
  bool progress = false;
  for (auto it = r.accept_arms.begin(); it != r.accept_arms.end();) {
    Socket* s = socks_.get(it->fd);
    if (s == nullptr || s->kind != SockKind::kTcp || !s->listening ||
        s->pcb == nullptr) {
      it = r.accept_arms.erase(it);  // listener died: the arm ends
      continue;
    }
    while (true) {
      if (uring_cq_space(r) == 0) {
        if (!s->pcb->accept_queue.empty()) {
          // Connections stay queued; defer (never drop) the CQEs.
          r.mem.atomic_store_u32(
              FfUring::kCqOverflow,
              r.mem.atomic_load_u32(FfUring::kCqOverflow) + 1);
        }
        break;
      }
      FourTuple peer;
      const int nfd = sock_accept(it->fd, &peer);
      if (nfd < 0) break;
      uring_cq_emit(r, it->user_data, nfd, UringOp::kAcceptMultishot,
                    kCqeMore,
                    uring_pack_addr({peer.remote_ip, peer.remote_port}), 0,
                    nullptr);
      progress = true;
    }
    ++it;
  }
  return progress;
}

bool FfStack::uring_service_connect(UringReg& r) {
  bool progress = false;
  for (auto it = r.connect_arms.begin(); it != r.connect_arms.end();) {
    // sock_close drops a fd's arm (uring_forget_fd) and sock_listen refuses
    // a fd that has a PCB, so an armed fd is still open and holds the PCB
    // its connect created.
    const TcpPcb* pcb = socks_.get(it->fd)->pcb;
    std::int64_t res = 1;  // sentinel: still in flight, no CQE yet
    if (pcb->error() != 0) {
      res = -pcb->error();
    } else if (pcb->connected()) {
      res = 0;
    } else if (pcb->closed()) {
      res = -ECONNABORTED;
    }
    if (res == 1) {
      ++it;  // SYN_SENT/SYN_RCVD: the rexmit machinery is still trying
      continue;
    }
    if (uring_cq_space(r) == 0) {  // defer (never drop) the verdict
      r.mem.atomic_store_u32(
          FfUring::kCqOverflow,
          r.mem.atomic_load_u32(FfUring::kCqOverflow) + 1);
      break;
    }
    uring_cq_emit(r, it->user_data, res, UringOp::kConnect, 0,
                  static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(it->fd)),
                  0, nullptr);
    if (res < 0) note_sqe_error(r);
    it = r.connect_arms.erase(it);
    progress = true;
  }
  return progress;
}

void FfStack::uring_forget_fd(int fd) {
  for (auto& [id, reg] : urings_) {
    std::erase_if(reg.connect_arms,
                  [fd](const UringReg::ConnectArm& a) { return a.fd == fd; });
  }
}

TcpPcb* FfStack::find_pcb(const FourTuple& t) {
  const auto it = tcp_pcbs_.find(t);
  return it != tcp_pcbs_.end() ? it->second.get() : nullptr;
}

const TcpPcb* FfStack::find_listener(std::uint16_t port) const {
  const auto it = tcp_listeners_.find(port);
  return it != tcp_listeners_.end() ? it->second.get() : nullptr;
}

void FfStack::send_ping(Ipv4Addr dst, std::uint16_t id, std::uint16_t seq,
                        std::size_t payload_len) {
  std::vector<std::byte> payload(payload_len, std::byte{0xA5});
  const auto msg =
      build_icmp_echo(IcmpHeader::kEchoRequest, id, seq, payload);
  send_ipv4(dst, kIpProtoIcmp, msg);
  flush_tx();
}

}  // namespace cherinet::fstack
