// TCP segment construction and the send decision (RFC 793 send window,
// RFC 5681 cwnd limit, delayed-ACK piggybacking, FIN sequencing).
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
    opts.timestamps = {env_->tcp_ts_now(), ts_recent_};
  } else if (ts_on_) {
    opts.timestamps = {env_->tcp_ts_now(), ts_recent_};
  }
  h.data_off =
      static_cast<std::uint8_t>((TcpHeader::kSize + opts.encoded_size()) / 4);

  if (!env_->tcp_emit(*this, h, opts, payload_off, len)) return false;
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

void TcpPcb::arm_rexmit() {
  rexmit_deadline_ = env_->tcp_now() + rto_;
}

bool TcpPcb::output() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kListen) {
    return false;
  }
  bool sent_any = false;

  const bool may_send_data = state_ == TcpState::kEstablished ||
                             state_ == TcpState::kCloseWait;
  if (may_send_data && syn_acked_ && !fin_sent_) {
    // Limited transmit (RFC 3042): the first two dupacks each extend the
    // usable window by one MSS of NEW data, keeping the ACK clock alive
    // when a tail loss leaves too little in flight to raise the three
    // dupacks fast retransmit needs — without it those losses only ever
    // resolve by RTO. The allowance vanishes once recovery starts (the
    // inflation term takes over) or a new ACK resets dupacks_.
    const std::uint32_t limited_xmit =
        (!in_recovery_ && dupacks_ > 0) ? std::min(dupacks_, 2u) * mss_eff_
                                        : 0;
    const std::uint32_t wnd = std::min(snd_wnd_, cwnd_ + limited_xmit);
    // Segment size bound: one MSS on the software path, up to tso_max_segs
    // MSS as a single TSO super-segment when the queue negotiated slicing
    // (make_pcb pins tso_max_segs to 1 otherwise). The device restores the
    // per-MSS wire framing; cwnd/window arithmetic is byte-based throughout
    // so a super-segment consumes exactly what its MSS frames would.
    const std::size_t seg_cap =
        static_cast<std::size_t>(mss_eff_) *
        std::max<std::uint32_t>(1, cfg_.tso_max_segs);
    while (true) {
      const std::uint32_t offset = snd_nxt_ - snd_una_;
      const std::size_t avail =
          snd_.used() > offset ? snd_.used() - offset : 0;
      const std::uint32_t usable = wnd > offset ? wnd - offset : 0;
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
      sent_any = true;
      if (fin_rides) break;
    }

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
