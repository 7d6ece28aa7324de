// TCP segment arrival processing (RFC 793 event processing; RFC 5681
// congestion control, where a duplicate ACK carries no data (§2) and a
// segment that fills a hole is ACKed at once (§4.2), with the next ones
// after it (a quick-ACK window); RFC 7323 timestamps;
// RFC 2018 SACK blocks in and out; RFC 6675 SACK-based loss recovery and
// RFC 8985 RACK loss detection, whose tail-loss probe lives in
// tcp_timer.cpp).
#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "fstack/tcp_pcb.hpp"

namespace cherinet::fstack {

namespace {
/// GRO/LRO-style ACK coalescing: force an immediate ACK only every Nth
/// in-order segment (modern stacks behind aggregating NICs stretch well
/// past RFC 1122's every-second-segment SHOULD); the ack-flush timeout
/// (TcpConfig::ack_flush_timeout, 50 µs) sends a shorter stretch once
/// arrivals pause. An out-of-order segment, a duplicate, a
/// window-reopening read and the quick-ACK window below still ACK at once.
/// Fewer ACKs is also what lets the SENDER amortize its TX doorbell:
/// each ACK-clocked wakeup emits a whole stretch of segments in one staged
/// tx_burst. Congestion control counts acked BYTES (RFC 3465) in slow
/// start and congestion avoidance alike, so stretch ACKs do not starve
/// cwnd growth.
constexpr std::uint32_t kAckCoalesceSegments = 8;
/// Quick-ACK window (Linux's TCP_MAX_QUICKACKS): a segment that fills a
/// hole and the next kQuickAcks - 1 in-order segments are each ACKed at
/// once. Recovery has just halved cwnd, often below kAckCoalesceSegments,
/// and a stretch the sender's window cannot fill would leave every
/// window's ACK to the flush timeout (RFC 2525 §2.13, the stretch ACK
/// violation). A larger window ACKs more of the regrowth at once but also
/// clocks out bigger bursts into a lossy path (32 gave a Gilbert-Elliott
/// burst profile an RTO where 16 gave none).
constexpr std::uint32_t kQuickAcks = 16;
/// Out-of-order segments held for reassembly; later ones past a hole are
/// dropped (and retransmitted by the sender).
constexpr std::size_t kMaxOooSegments = 64;
}  // namespace

void TcpPcb::input(const TcpHeader& h, const TcpOptions& opts,
                   std::span<const std::byte> payload) {
  counters_.segs_in++;

  switch (state_) {
    case TcpState::kClosed:
      return;  // the stack answers no-PCB segments with RST
    case TcpState::kListen:
      input_listen(h, opts);
      return;
    case TcpState::kSynSent:
      input_syn_sent(h, opts);
      return;
    default:
      break;
  }

  // ---- sequence acceptability (RFC 793 p.69) ----
  const auto rcv_wnd_now = static_cast<std::uint32_t>(rx_.window_free());
  const auto seg_len = static_cast<std::uint32_t>(payload.size()) +
                       (h.has(tcpflag::kFin) ? 1u : 0u);
  const std::uint32_t seg_end = h.seq + seg_len;
  const bool acceptable =
      seq_lt(h.seq, rcv_nxt_ + std::max(rcv_wnd_now, 1u)) &&
      seq_ge(seg_end, rcv_nxt_);
  if (!acceptable) {
    if (!h.has(tcpflag::kRst)) {
      ack_now_ = true;
      output();
    }
    return;
  }

  if (opts.timestamps && ts_on_) {
    // PAWS-lite: remember the most recent in-window timestamp for echoing.
    if (seq_le(h.seq, rcv_nxt_)) ts_recent_ = opts.timestamps->first;
  }

  if (h.has(tcpflag::kRst)) {
    error_ = ECONNRESET;
    set_state(TcpState::kClosed);
    snd_.release_all();  // RST teardown frees every retained zc TX ref
    return;
  }

  if (h.has(tcpflag::kSyn)) {
    // SYN in window on a synchronized connection: reset (RFC 793).
    abort(ECONNRESET);
    return;
  }

  if (!h.has(tcpflag::kAck)) return;

  if (state_ == TcpState::kSynReceived) {
    if (seq_le(h.ack, snd_una_) || seq_gt(h.ack, snd_nxt_)) {
      send_control(tcpflag::kRst | tcpflag::kAck);
      return;
    }
    set_state(TcpState::kEstablished);
    snd_wnd_ = std::uint32_t{h.window} << (ws_on_ ? snd_wscale_ : 0);
    snd_wl1_ = h.seq;
    snd_wl2_ = h.ack;
    if (listener != nullptr) env_->tcp_accept_ready(*listener, *this);
  }

  process_ack(h, opts, payload.size());
  if (state_ == TcpState::kClosed) return;  // RST sent by ack processing
  process_payload(h, payload);
  process_fin(h, payload.size());
  output();
}

void TcpPcb::input_listen(const TcpHeader& h, const TcpOptions& opts) {
  if (h.has(tcpflag::kRst) || h.has(tcpflag::kAck) || !h.has(tcpflag::kSyn)) {
    return;  // stray segment to a listener
  }
  FourTuple child_tuple;
  child_tuple.local_ip = tuple_.local_ip;
  child_tuple.local_port = tuple_.local_port;
  // The stack fills remote ip from the IP header; ports from TCP.
  child_tuple.remote_port = h.src_port;
  child_tuple.remote_ip = pending_remote_ip;
  if (static_cast<int>(accept_queue.size()) >= std::max(backlog, 1)) {
    ++syn_backlog_drops;  // accept queue full: peer retries later
    return;
  }
  // Bounded embryonic queue: half-open children count against the backlog
  // too, so a SYN flood (or a burst arriving faster than handshakes
  // complete) cannot spawn unbounded PCBs. Dropping the SYN is safe — the
  // peer's rexmit machinery retries once earlier handshakes drain.
  if (syn_backlog >= std::max(backlog, 1)) {
    ++syn_backlog_drops;
    return;
  }

  TcpPcb* child = env_->tcp_spawn_child(*this, child_tuple);
  if (child == nullptr) return;
  child->listener = this;
  child->tuple_ = child_tuple;
  child->irs_ = h.seq;
  child->rcv_nxt_ = h.seq + 1;
  child->negotiate_options(opts, /*we_offered=*/true);
  child->iss_ = child->env_->tcp_ts_now() * 2654435761u;  // deterministic ISS
  child->snd_una_ = child->iss_;
  child->snd_nxt_ = child->iss_;
  child->rack_fack_ = child->iss_;
  child->snd_wnd_ = h.window;  // not scaled in SYN
  child->snd_wl1_ = h.seq;
  child->snd_wl2_ = h.seq;
  child->set_state(TcpState::kSynReceived);
  child->send_control(tcpflag::kSyn | tcpflag::kAck);
  child->arm_rexmit();
}

void TcpPcb::input_syn_sent(const TcpHeader& h, const TcpOptions& opts) {
  const bool ack_ok = h.has(tcpflag::kAck) && h.ack == iss_ + 1;
  if (h.has(tcpflag::kRst)) {
    if (ack_ok) {
      error_ = ECONNREFUSED;
      set_state(TcpState::kClosed);
    }
    return;
  }
  if (!h.has(tcpflag::kSyn) || !ack_ok) return;

  irs_ = h.seq;
  rcv_nxt_ = h.seq + 1;
  negotiate_options(opts, /*we_offered=*/true);
  snd_una_ = h.ack;
  syn_acked_ = true;
  snd_wnd_ = h.window;  // SYN windows are unscaled
  snd_wl1_ = h.seq;
  snd_wl2_ = h.ack;
  set_state(TcpState::kEstablished);
  rexmit_deadline_.reset();
  rexmit_shift_ = 0;
  ack_now_ = true;
  output();
}

void TcpPcb::process_ack(const TcpHeader& h, const TcpOptions& opts,
                         std::size_t payload_len) {
  const std::uint32_t ack = h.ack;

  if (seq_gt(ack, snd_nxt_)) {  // acks data never sent
    ack_now_ = true;
    return;
  }

  // Window update (RFC 793 SND.WL1/WL2 rule) — before dup-ack detection so
  // pure window updates are not miscounted as dupacks.
  const bool window_update =
      seq_lt(snd_wl1_, h.seq) ||
      (snd_wl1_ == h.seq && seq_le(snd_wl2_, ack));
  if (window_update) {
    const auto new_wnd = std::uint32_t{h.window} << (ws_on_ ? snd_wscale_ : 0);
    if (new_wnd > 0) persist_deadline_.reset();
    snd_wnd_ = new_wnd;
    snd_wl1_ = h.seq;
    snd_wl2_ = ack;
  }
  const sim::Ns now = env_->tcp_now();

  if (seq_le(ack, snd_una_)) {
    process_sack(opts, now);
    // Duplicate ACK detection (RFC 5681 §2): no payload, window unchanged,
    // data outstanding. A data segment that repeats the ACK is the peer
    // sending, not a signal of loss; counting it would fast-retransmit a
    // bidirectional stream that lost nothing.
    const bool dup = payload_len == 0 && ack == snd_una_ &&
                     snd_una_ != snd_nxt_ &&
                     h.window == (snd_wnd_ >> (ws_on_ ? snd_wscale_ : 0));
    if (dup) {
      counters_.dup_acks_in++;
      ++dupacks_;
      if (!sack_on_) {
        // Without SACK a dupack says one segment left the network above
        // the hole; the head itself stays unaccounted for.
        const std::uint32_t out = data_in_flight();
        reno_sacked_ = std::min(reno_sacked_ + mss_eff_,
                                out > mss_eff_ ? out - mss_eff_ : 0u);
      }
    }
    detect_loss(now);
    return;
  }

  // ---- new data acknowledged ----
  std::uint32_t acked = ack - snd_una_;
  if (!syn_acked_) {
    syn_acked_ = true;
    acked -= 1;  // SYN phantom byte
  }
  bool fin_now_acked = false;
  if (fin_sent_ && !fin_acked_ && ack == snd_nxt_) {
    fin_now_acked = true;
    acked -= 1;  // FIN phantom byte
  }
  const std::size_t consume = std::min<std::size_t>(acked, snd_.used());
  if (consume > 0) snd_.consume(consume);
  counters_.bytes_acked += consume;
  snd_una_ = ack;
  rexmit_shift_ = 0;
  sb_.ack(ack, [this, now](const SackScoreboard::Range& r) {
    rack_advance(r, now);
  });
  if (seq_lt(rack_fack_, ack)) rack_fack_ = ack;

  // RTT sampling: prefer timestamp echo (per-ACK), fall back to timed seq.
  if (ts_on_ && opts.timestamps && opts.timestamps->second != 0) {
    const std::uint32_t ecr = opts.timestamps->second;
    const std::uint32_t now_us = env_->tcp_ts_now();
    const std::uint32_t delta_us = now_us - ecr;
    if (delta_us < 60'000'000u) {
      rtt_sample(sim::Ns{static_cast<std::int64_t>(delta_us) * 1000});
    }
    rtt_timing_ = false;
  } else if (rtt_timing_ && seq_gt(ack, rtt_seq_)) {
    rtt_sample(now - rtt_started_);
    rtt_timing_ = false;
  }
  process_sack(opts, now);

  if (tlp_end_ && seq_ge(ack, *tlp_end_)) {
    // The probe's episode is over (RFC 8985 §7.4). With no D-SACK to say
    // the original arrived too, a probe that resent data repaired a loss:
    // respond to it as to any other.
    if (tlp_retrans_ && recovery_ == Recovery::kNone) {
      ssthresh_ = std::max(cwnd_ / 2, 2u * mss_eff_);
      cwnd_ = ssthresh_;
    }
    tlp_end_.reset();
  }

  if (recovery_ == Recovery::kFast && seq_lt(ack, recover_)) {
    // Partial ACK: cwnd holds at ssthresh while the pipe drains (RFC 6675).
    // Without SACK the next hole starts where this ACK stopped (RFC 6582).
    if (!sack_on_) {
      reno_sacked_ -= std::min(reno_sacked_,
                               acked > mss_eff_ ? acked - mss_eff_ : 0u);
      sb_.mark_lost(snd_una_, mss_eff_);
    }
  } else {
    if (recovery_ == Recovery::kFast) {
      cwnd_ = ssthresh_;  // full recovery: deflate to ssthresh
    } else {
      cc_on_new_ack(acked);  // also slow start after an RTO
    }
    if (recovery_ == Recovery::kNone || seq_ge(ack, recover_)) {
      recovery_ = Recovery::kNone;
      dupacks_ = 0;
      reno_sacked_ = 0;
    }
  }

  if (snd_una_ == snd_nxt_) {
    rexmit_deadline_.reset();
  } else {
    arm_rexmit();  // restart for the remaining outstanding data
  }
  detect_loss(now);

  if (fin_now_acked) {
    fin_acked_ = true;
    switch (state_) {
      case TcpState::kFinWait1:
        if (fin_received_) {
          enter_time_wait();
        } else {
          set_state(TcpState::kFinWait2);
        }
        break;
      case TcpState::kClosing:
        enter_time_wait();
        break;
      case TcpState::kLastAck:
        set_state(TcpState::kClosed);
        break;
      default:
        break;
    }
  }
}

void TcpPcb::process_sack(const TcpOptions& opts, sim::Ns now) {
  if (!sack_on_) return;
  for (std::size_t k = 0; k < opts.sack_count; ++k) {
    sb_.sack(opts.sack[k], [this, now](const SackScoreboard::Range& r) {
      rack_advance(r, now);
    });
  }
}

void TcpPcb::rack_advance(const SackScoreboard::Range& r, sim::Ns now) {
  // Delivered without ever being resent, below what was delivered before:
  // the network reordered it (RFC 8985 §6.2 step 3).
  if (!r.has(SackScoreboard::kRetrans) && seq_lt(r.end, rack_fack_)) {
    reordering_seen_ = true;
  }
  if (seq_lt(rack_fack_, r.end)) rack_fack_ = r.end;
  const sim::Ns rtt = now - r.xmit;
  // A resent range delivered sooner than any round trip was delivered by
  // an earlier copy: its time says nothing (RFC 8985 §6.2 step 2).
  if (r.has(SackScoreboard::kRetrans) && rtt < min_rtt_) return;
  if (!rack_valid_ || r.xmit > rack_xmit_ ||
      (r.xmit == rack_xmit_ && seq_gt(r.end, rack_end_))) {
    rack_valid_ = true;
    rack_xmit_ = r.xmit;
    rack_end_ = r.end;
    rack_rtt_ = rtt;
  }
}

sim::Ns TcpPcb::rack_reo_wnd() const {
  // No reordering seen: once in recovery or with more than DupThresh - 1
  // segments SACKed above it, a hole is lost at once (RFC 8985 §6.2 step 4).
  if (!reordering_seen_ &&
      (recovery_ != Recovery::kNone ||
       sb_.sacked_bytes() > (kDupThresh - 1) * mss_eff_)) {
    return sim::Ns{0};
  }
  return std::min(min_rtt_ / 4, srtt_);
}

sim::Ns TcpPcb::rack_detect_loss(sim::Ns now) {
  if (!rack_valid_) return sim::Ns{0};
  const sim::Ns reo_wnd = rack_reo_wnd();
  sim::Ns wait{0};
  const auto ranges = sb_.ranges();
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const SackScoreboard::Range& r = ranges[i];
    if (r.has(SackScoreboard::kSacked | SackScoreboard::kLost)) continue;
    // Only what left before the newest delivered transmission can be lost.
    if (r.xmit > rack_xmit_ ||
        (r.xmit == rack_xmit_ && seq_gt(r.end, rack_end_))) {
      continue;
    }
    const sim::Ns remaining = r.xmit + rack_rtt_ + reo_wnd - now;
    if (remaining.count() <= 0) {
      sb_.mark_lost_at(i);
    } else {
      wait = std::max(wait, remaining);
    }
  }
  return wait;
}

void TcpPcb::detect_loss(sim::Ns now) {
  if (sb_.empty()) return;
  sim::Ns reo_wait{0};
  if (sack_on_) {
    if (recovery_ == Recovery::kNone && sb_.sacked_bytes() == 0) return;
    reo_wait = rack_detect_loss(now);
  } else if (recovery_ == Recovery::kNone && dupacks_ >= kDupThresh) {
    sb_.mark_lost(snd_una_, mss_eff_);
  }
  if (recovery_ == Recovery::kNone && sb_.lost_bytes() > 0) {
    // Enter fast recovery (RFC 6675 §5): halve, then let the pipe decide.
    ssthresh_ = std::max((snd_nxt_ - snd_una_) / 2, 2u * mss_eff_);
    cwnd_ = ssthresh_;
    recovery_ = Recovery::kFast;
    recover_ = snd_una_ + data_in_flight();
    send_lost(/*fast_rexmit=*/true);
  }
  if (reo_wait.count() > 0) {
    // Wait out the reordering window before calling the rest lost (§6.3);
    // the RTO takes over again when it fires.
    rexmit_deadline_ = now + reo_wait;
    xmit_timer_ = XmitTimer::kReo;
  } else if (xmit_timer_ == XmitTimer::kReo ||
             (xmit_timer_ == XmitTimer::kTlp && !tlp_eligible())) {
    arm_rto();
  }
}

void TcpPcb::process_payload(const TcpHeader& h,
                             std::span<const std::byte> payload) {
  if (payload.empty()) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinWait1 &&
      state_ != TcpState::kFinWait2) {
    return;
  }
  std::uint32_t seq = h.seq;
  std::span<const std::byte> data = payload;

  if (seq_lt(seq, rcv_nxt_)) {  // head-trim retransmitted overlap
    const std::uint32_t skip = rcv_nxt_ - seq;
    if (skip >= data.size()) {
      counters_.spurious_rexmit_bytes += data.size();
      ack_now_ = true;  // full duplicate: re-ACK immediately
      return;
    }
    counters_.spurious_rexmit_bytes += skip;
    data = data.subspan(skip);
    seq = rcv_nxt_;
  }

  if (seq == rcv_nxt_) {
    // In-order delivery queues a zero-copy loan of the RX mbuf when the
    // bytes live in a single data room; reassembled fragments (and PCBs
    // with no delivering stack) fall back to a copy into the chain. Small
    // segments still loan — the room-granular window charge makes a
    // sliver flood throttle itself instead of pinning the shared pool.
    std::size_t n;
    if (const auto loan = env_->tcp_rx_loan(data); loan.has_value()) {
      n = rx_.push_loan(*loan);
    } else {
      n = rx_.push_bytes(data);
    }
    rcv_nxt_ += static_cast<std::uint32_t>(n);
    counters_.bytes_in += n;
    // With out-of-order data queued, this segment fills all or part of the
    // hole: it opens a quick-ACK window (kQuickAcks), whose first ACK is
    // its own (RFC 5681 §4.2), so the sender's recovery sees the repair
    // and its halved window regrows without waiting out a flush. Outside
    // the window, the Nth in-order segment (kAckCoalesceSegments) ACKs
    // and the ack-flush timeout bounds the wait for any shorter tail.
    if (!ooo_.empty()) quick_acks_ = kQuickAcks;
    absorb_ooo();
    if (++segs_since_ack_ >= kAckCoalesceSegments || quick_acks_ > 0) {
      if (quick_acks_ > 0) --quick_acks_;
      ack_now_ = true;
    } else {
      schedule_ack();
    }
  } else {
    // Future segment: buffer for reassembly, signal the hole with a dupack
    // whose first SACK block reports this arrival.
    counters_.ooo_segs++;
    if (ooo_.size() < kMaxOooSegments && !ooo_.contains(seq)) {
      ooo_.emplace(seq, std::vector<std::byte>(data.begin(), data.end()));
      sack_newest_ = seq;
    }
    ack_now_ = true;
  }
}

bool TcpPcb::absorb_ooo() {
  const std::uint32_t before = rcv_nxt_;
  while (!ooo_.empty()) {
    // Find any stored segment that now reaches rcv_nxt (every entry is
    // checked, so a sequence wrap inside the map's raw-seq order is fine).
    auto it = ooo_.begin();
    while (it != ooo_.end() && !seq_le(it->first, rcv_nxt_)) ++it;
    if (it == ooo_.end()) break;
    const std::uint32_t seq = it->first;
    const auto len = static_cast<std::uint32_t>(it->second.size());
    if (seq_gt(seq + len, rcv_nxt_)) {
      const std::uint32_t skip = rcv_nxt_ - seq;
      const std::size_t n = rx_.push_bytes(
          std::span<const std::byte>{it->second}.subspan(skip));
      rcv_nxt_ += static_cast<std::uint32_t>(n);
      counters_.bytes_in += n;
      // The receive buffer is full: keep the rest. It was SACKed, and
      // dropping it now would renege on that (RFC 2018 §8); the next
      // read absorbs it.
      if (skip + n < len) break;
    }
    ooo_.erase(it);
  }
  return rcv_nxt_ != before;
}

void TcpPcb::sack_blocks(TcpOptions& opts, std::size_t len) const {
  // A data segment carries only the blocks that fit beside a full MSS.
  std::size_t room = TcpOptions::kMaxSackBlocksOut;
  if (len > 0) {
    const std::size_t spare = len < mss_eff_ ? mss_eff_ - len : 0;
    room = spare < 10 ? 0 : std::min(room, (spare - 2) / 8);
  }
  if (room == 0) return;
  // ooo_ is keyed on raw seq, which a sequence wrap scrambles: order the
  // held bytes by their distance from rcv_nxt instead, then merge.
  struct Span {
    std::uint32_t off, end;
  };
  std::array<Span, kMaxOooSegments> spans;
  std::size_t n = 0;
  for (const auto& [seq, bytes] : ooo_) {
    // An entry reaching rcv_nxt is the next in-order data, held back only
    // because the buffer is full: a block must start above a hole (RFC
    // 2018 §3), and the sender would take one at snd_una for reneging.
    if (!seq_gt(seq, rcv_nxt_)) continue;
    spans[n++] = {seq - rcv_nxt_,
                  seq + static_cast<std::uint32_t>(bytes.size()) - rcv_nxt_};
  }
  std::sort(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(n),
            [](const Span& a, const Span& b) { return a.off < b.off; });
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (blocks > 0 && spans[i].off <= spans[blocks - 1].end) {
      spans[blocks - 1].end = std::max(spans[blocks - 1].end, spans[i].end);
    } else {
      spans[blocks++] = spans[i];
    }
  }
  // RFC 2018 §4: the block holding the newest arrival goes first, then the
  // others nearest the hole.
  const std::uint32_t newest = sack_newest_ - rcv_nxt_;
  std::size_t first = 0;
  while (first + 1 < blocks && spans[first].end <= newest) ++first;
  const auto put = [&](const Span& sp) {
    opts.sack[opts.sack_count++] =
        SackBlock{rcv_nxt_ + sp.off, rcv_nxt_ + sp.end};
  };
  if (blocks > 0) put(spans[first]);
  for (std::size_t i = 0; i < blocks && opts.sack_count < room; ++i) {
    if (i != first) put(spans[i]);
  }
}

void TcpPcb::process_fin(const TcpHeader& h, std::size_t payload_len) {
  if (!h.has(tcpflag::kFin) || fin_received_) return;
  const std::uint32_t fin_seq =
      h.seq + static_cast<std::uint32_t>(payload_len);
  if (fin_seq != rcv_nxt_) return;  // out of order: peer will retransmit
  rcv_nxt_ += 1;
  fin_received_ = true;
  ack_now_ = true;
  switch (state_) {
    case TcpState::kSynReceived:
    case TcpState::kEstablished:
      set_state(TcpState::kCloseWait);
      break;
    case TcpState::kFinWait1:
      // Our FIN ack status decides CLOSING vs TIME_WAIT (handled on ACK).
      if (fin_acked_) {
        enter_time_wait();
      } else {
        set_state(TcpState::kClosing);
      }
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
}

}  // namespace cherinet::fstack
