// TCP segment construction and the send decision (RFC 793 send window,
// RFC 5681 cwnd limit against the RFC 6675 pipe, retransmission of the
// ranges the scoreboard marked lost, delayed-ACK piggybacking, FIN
// sequencing).
#include <algorithm>

#include "fstack/tcp_pcb.hpp"

namespace cherinet::fstack {

bool TcpPcb::send_segment(std::uint32_t seq, std::size_t payload_off,
                          std::size_t len, std::uint8_t flags) {
  TcpHeader h;
  h.src_port = tuple_.local_port;
  h.dst_port = tuple_.remote_port;
  h.seq = seq;
  h.flags = flags;
  if ((flags & tcpflag::kSyn) == 0 || (flags & tcpflag::kAck) != 0) {
    h.flags |= tcpflag::kAck;
    h.ack = rcv_nxt_;
  }
  // Advertised window: free receive buffer, scaled when negotiated.
  const auto wnd_bytes = static_cast<std::uint32_t>(rx_.window_free());
  if ((flags & tcpflag::kSyn) != 0) {
    h.window = static_cast<std::uint16_t>(std::min(wnd_bytes, 65535u));
  } else if (ws_on_) {
    h.window = static_cast<std::uint16_t>(
        std::min(wnd_bytes >> rcv_wscale_, 65535u));
  } else {
    h.window = static_cast<std::uint16_t>(std::min(wnd_bytes, 65535u));
  }

  TcpOptions opts;
  if ((flags & tcpflag::kSyn) != 0) {
    opts.mss = cfg_.mss;
    opts.wscale = kWscale;
    opts.sack_permitted = true;
    opts.timestamps = {env_->tcp_ts_now(), ts_recent_};
  } else {
    if (ts_on_) opts.timestamps = {env_->tcp_ts_now(), ts_recent_};
    if (sack_on_ && !ooo_.empty()) sack_blocks(opts, len);
  }
  h.data_off =
      static_cast<std::uint8_t>((TcpHeader::kSize + opts.encoded_size()) / 4);

  if (!env_->tcp_emit(*this, h, opts, payload_off, len)) return false;
  if (len > 0) {
    const auto n = static_cast<std::uint32_t>(len);
    if (seq == snd_nxt_) {
      sb_.on_send(seq, n, env_->tcp_now());
    } else {
      sb_.on_retransmit(seq, n, env_->tcp_now());
    }
  }
  counters_.segs_out++;
  counters_.bytes_out += len;
  // Any segment carries our current ACK: delayed-ACK state is satisfied.
  ack_pending_ = false;
  ack_now_ = false;
  segs_since_ack_ = 0;
  delack_deadline_.reset();
  ack_flush_deadline_.reset();
  return true;
}

bool TcpPcb::send_control(std::uint8_t flags) {
  if ((flags & tcpflag::kSyn) != 0) {
    const std::uint32_t seq = snd_nxt_;
    if (!send_segment(seq, 0, 0, flags)) return false;
    snd_nxt_ = seq + 1;
    return true;
  }
  return send_segment(snd_nxt_, 0, 0, flags);
}

void TcpPcb::arm_rto() {
  rexmit_deadline_ = env_->tcp_now() + rto_;
  xmit_timer_ = XmitTimer::kRto;
}

bool TcpPcb::tlp_eligible() const noexcept {
  // RFC 8985 §7.2: with SACK, an RTT sample, nothing SACKed, no recovery
  // under way and no probe already out.
  return sack_on_ && syn_acked_ && srtt_.count() > 0 &&
         recovery_ == Recovery::kNone && !tlp_end_ &&
         sb_.sacked_bytes() == 0 && snd_una_ != snd_nxt_;
}

void TcpPcb::arm_rexmit() {
  arm_rto();
  if (!tlp_eligible()) return;
  // PTO = 2·SRTT plus the receiver's worst-case ACK delay. RFC 8985 adds
  // the delay for one-segment flights only, as an RFC 1122 receiver ACKs
  // every second segment; this receiver stretches ACKs over
  // kAckCoalesceSegments segments, so any flight's tail may wait up to the
  // delayed-ACK timeout. A PTO no sooner than the RTO is no probe at all.
  const sim::Ns pto = 2 * srtt_ + cfg_.delack_timeout;
  if (pto < rto_) {
    rexmit_deadline_ = env_->tcp_now() + pto;
    xmit_timer_ = XmitTimer::kTlp;
  }
}

std::uint32_t TcpPcb::pipe() const noexcept {
  const std::uint32_t out = data_in_flight();
  const std::uint32_t gone =
      sb_.sacked_bytes() + sb_.lost_bytes() + reno_sacked_;
  return out > gone ? out - gone : 0;
}

bool TcpPcb::send_lost(bool fast_rexmit) {
  const std::size_t seg_cap = static_cast<std::size_t>(mss_eff_) *
                              std::max<std::uint32_t>(1, cfg_.tso_max_segs);
  const bool fin_out = fin_sent_ && !fin_acked_;
  bool sent = false;
  while (true) {
    const std::size_t i = sb_.first_lost();
    if (i == sb_.ranges().size()) break;
    const SackScoreboard::Range r = sb_.ranges()[i];
    const std::uint32_t in_flight = pipe();
    std::size_t n = std::min<std::size_t>(r.len(), seg_cap);
    if (!(fast_rexmit && !sent)) {
      if (in_flight >= cwnd_) break;
      n = std::min<std::size_t>(n, cwnd_ - in_flight);
      if (n < std::min<std::size_t>(r.len(), mss_eff_)) break;
    } else {
      n = std::min<std::size_t>(n, mss_eff_);
    }
    std::uint8_t flags = tcpflag::kAck;
    // A retransmission that reaches the end of the data carries the FIN.
    if (fin_out && r.start + n == snd_nxt_ - 1) flags |= tcpflag::kFin;
    if (!send_segment(r.start, r.start - snd_una_, n, flags)) break;
    counters_.rexmits++;
    if (recovery_ != Recovery::kRto) counters_.fast_rexmits++;
    sent = true;
  }
  if (sent) arm_rexmit();
  return sent;
}

bool TcpPcb::send_new(bool probe) {
  // Segment size bound: one MSS on the software path, up to tso_max_segs
  // MSS as a single TSO super-segment when the queue negotiated slicing
  // (make_pcb pins tso_max_segs to 1 otherwise). The device restores the
  // per-MSS wire framing; cwnd/window arithmetic is byte-based throughout
  // so a super-segment consumes exactly what its MSS frames would. A
  // tail-loss probe is one MSS that cwnd does not hold back (RFC 8985
  // §7.3).
  const std::uint32_t wnd = probe ? snd_wnd_ : std::min(snd_wnd_, cwnd_);
  const std::size_t seg_cap =
      probe ? mss_eff_
            : static_cast<std::size_t>(mss_eff_) *
                  std::max<std::uint32_t>(1, cfg_.tso_max_segs);
  bool sent = false;
  while (true) {
    const std::uint32_t offset = snd_nxt_ - snd_una_;
    const std::size_t avail = snd_.used() > offset ? snd_.used() - offset : 0;
    // cwnd bounds the pipe, not snd_nxt - snd_una: what the receiver
    // SACKed (or, without SACK, each duplicate ACK's MSS) has left the
    // network, so every ACK in recovery releases as much new data as it
    // reports delivered. Before recovery that is limited transmit (RFC
    // 3042) too: the first SACKed segments let new ones out, whose SACKs
    // then reveal a tail-heavy loss without waiting for the RTO.
    const std::uint32_t in_flight = pipe();
    const std::uint32_t cwnd_room =
        probe ? mss_eff_ : (cwnd_ > in_flight ? cwnd_ - in_flight : 0u);
    const std::uint32_t usable =
        std::min(snd_wnd_ > offset ? snd_wnd_ - offset : 0u, cwnd_room);
    std::size_t n = std::min<std::size_t>(
        {avail, static_cast<std::size_t>(usable), seg_cap});
    // Sender-side silly-window avoidance (RFC 1122 §4.2.3.4): a segment
    // cut short by the WINDOW (not by running out of data) waits for the
    // in-flight bytes to be acknowledged instead of emitting a runt.
    // Keeping segments MSS-sized also keeps them aligned with the send
    // chain's slices, so emission composes cached checksums instead of
    // re-reading payload. Safe: offset > 0 here (the window is partly
    // used), so ACKs are expected and the rexmit timer is armed; windows
    // smaller than one MSS keep the old behaviour (no deadlock).
    if (n > 0 && n < mss_eff_ && n < avail && wnd >= mss_eff_) {
      break;
    }
    const bool last_chunk = n == avail;
    const bool fin_rides = fin_queued_ && last_chunk;
    if (n == 0 && !(fin_rides && avail == 0)) break;

    std::uint8_t flags = tcpflag::kAck;
    if (n > 0 && last_chunk) flags |= tcpflag::kPsh;
    if (fin_rides) flags |= tcpflag::kFin;
    if (!send_segment(snd_nxt_, offset, n, flags)) break;
    if (!rtt_timing_ && n > 0) {
      rtt_timing_ = true;
      rtt_seq_ = snd_nxt_;
      rtt_started_ = env_->tcp_now();
    }
    snd_nxt_ += static_cast<std::uint32_t>(n);
    if (fin_rides) {
      fin_sent_ = true;
      snd_nxt_ += 1;
      set_state(state_ == TcpState::kEstablished ? TcpState::kFinWait1
                                                 : TcpState::kLastAck);
    }
    arm_rexmit();
    sent = true;
    if (fin_rides || probe) break;
  }
  return sent;
}

bool TcpPcb::output() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kListen) {
    return false;
  }
  // Holes first (RFC 6675 NextSeg rule 1), then new data.
  bool sent_any = syn_acked_ && sb_.lost_bytes() > 0 && send_lost(false);

  const bool may_send_data = state_ == TcpState::kEstablished ||
                             state_ == TcpState::kCloseWait;
  if (may_send_data && syn_acked_ && !fin_sent_) {
    sent_any = send_new(/*probe=*/false) || sent_any;

    // Zero-window probe: data waiting but the peer closed its window.
    if (!sent_any && snd_wnd_ == 0 &&
        snd_.used() > (snd_nxt_ - snd_una_) && !persist_deadline_) {
      persist_deadline_ =
          env_->tcp_now() + kPersistBase * (1u << persist_shift_);
    }
  }

  if (!sent_any && ack_now_) {
    sent_any = send_control(tcpflag::kAck);
  }
  return sent_any;
}

}  // namespace cherinet::fstack
