// TCP segment arrival processing (RFC 793 event processing, RFC 5681 fast
// retransmit/recovery with NewReno partial-ACK handling (RFC 6582): a
// duplicate ACK carries no data (§2) and a segment that fills a hole is
// ACKed at once (§4.2); RFC 7323 timestamps).
#include <cerrno>
#include <cstring>

#include "fstack/tcp_pcb.hpp"

namespace cherinet::fstack {

namespace {
/// GRO/LRO-style ACK coalescing: force an immediate ACK only every Nth
/// in-order full segment (modern stacks behind aggregating NICs stretch
/// well past RFC 1122's every-second-segment SHOULD). A PSH-marked
/// segment, an out-of-order signal, a segment that fills a hole, a
/// window-reopening read, or the delayed-ACK timer still ACK at once, so
/// latency-sensitive tails never wait. Fewer ACKs is also what lets the
/// SENDER amortize its driver doorbell: each ACK-clocked wakeup emits a
/// whole stretch of segments in one staged tx_burst. Congestion control counts acked BYTES
/// (RFC 3465) in slow start and congestion avoidance alike, so stretch
/// ACKs do not starve cwnd growth.
constexpr std::uint32_t kAckCoalesceSegments = 8;
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

  if (seq_le(ack, snd_una_)) {
    // Duplicate ACK detection (RFC 5681 §2): no payload, window unchanged,
    // data outstanding. A data segment that repeats the ACK is the peer
    // sending, not a signal of loss; counting it would fast-retransmit a
    // bidirectional stream that lost nothing.
    const bool dup = payload_len == 0 && ack == snd_una_ &&
                     snd_una_ != snd_nxt_ &&
                     h.window == (snd_wnd_ >> (ws_on_ ? snd_wscale_ : 0));
    if (!dup) return;
    counters_.dup_acks_in++;
    if (in_recovery_) {
      cwnd_ += mss_eff_;  // inflation while the hole persists
      output();
      return;
    }
    if (++dupacks_ == 3) {
      // Fast retransmit + enter NewReno recovery.
      const std::uint32_t flight = snd_nxt_ - snd_una_;
      ssthresh_ = std::max(flight / 2, 2u * mss_eff_);
      in_recovery_ = true;
      recover_ = snd_nxt_;
      const std::size_t n =
          std::min<std::size_t>({snd_.used(), mss_eff_,
                                 static_cast<std::size_t>(flight)});
      if (n > 0) {
        send_segment(snd_una_, 0, n, tcpflag::kAck);
        counters_.fast_rexmits++;
      }
      cwnd_ = ssthresh_ + 3 * mss_eff_;
      arm_rexmit();
    } else {
      // Dupacks one and two: limited transmit (RFC 3042) — output() sees
      // the dupack count and releases up to two new segments beyond cwnd.
      output();
    }
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
  snd_una_ = ack;
  rexmit_shift_ = 0;

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
    rtt_sample(env_->tcp_now() - rtt_started_);
    rtt_timing_ = false;
  }

  if (in_recovery_) {
    if (seq_ge(ack, recover_)) {
      // Full recovery: deflate to ssthresh (NewReno exit).
      in_recovery_ = false;
      dupacks_ = 0;
      cwnd_ = ssthresh_;
    } else {
      // Partial ACK: retransmit the next hole, deflate by amount acked.
      const std::size_t n = std::min<std::size_t>(snd_.used(), mss_eff_);
      if (n > 0) {
        send_segment(snd_una_, 0, n, tcpflag::kAck);
        counters_.rexmits++;
      }
      cwnd_ = cwnd_ > acked ? cwnd_ - acked + mss_eff_ : mss_eff_;
      arm_rexmit();
    }
  } else {
    dupacks_ = 0;
    cc_on_new_ack(acked);
  }

  if (snd_una_ == snd_nxt_) {
    rexmit_deadline_.reset();
  } else {
    arm_rexmit();  // restart for the remaining outstanding data
  }

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
    // hole: ACK it at once (RFC 5681 §4.2) so the sender's recovery sees
    // the repair without waiting for a stretch or a flush.
    const bool fills_gap = !ooo_.empty();
    absorb_ooo();
    if (++segs_since_ack_ >= kAckCoalesceSegments || fills_gap) {
      // Stretch-ACK coalescing (kAckCoalesceSegments): ACK on
      // the Nth in-order segment; the delayed-ACK timer bounds the wait
      // for any shorter tail.
      ack_now_ = true;
    } else {
      schedule_ack();
    }
  } else {
    // Future segment: buffer for reassembly, signal the hole with a dupack.
    counters_.ooo_segs++;
    if (ooo_.size() < kMaxOooSegments && !ooo_.contains(seq)) {
      ooo_.emplace(seq, std::vector<std::byte>(data.begin(), data.end()));
    }
    ack_now_ = true;
  }
}

void TcpPcb::absorb_ooo() {
  while (!ooo_.empty()) {
    auto it = ooo_.begin();
    // Find any stored segment that now overlaps rcv_nxt (map is ordered by
    // raw seq, which is fine within a window's span).
    bool absorbed = false;
    for (; it != ooo_.end(); ++it) {
      const std::uint32_t seq = it->first;
      const auto len = static_cast<std::uint32_t>(it->second.size());
      if (seq_le(seq, rcv_nxt_)) {
        if (seq_gt(seq + len, rcv_nxt_)) {
          const std::uint32_t skip = rcv_nxt_ - seq;
          const std::size_t n = rx_.push_bytes(
              std::span<const std::byte>{it->second}.subspan(skip));
          rcv_nxt_ += static_cast<std::uint32_t>(n);
          counters_.bytes_in += n;
        }
        ooo_.erase(it);
        absorbed = true;
        break;
      }
    }
    if (!absorbed) break;
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
