// TCP timers: retransmission with exponential backoff (RFC 6298 §5), the
// tail-loss probe and RACK's reordering timer (RFC 8985 §7, §6.3) on the
// same deadline, delayed ACK, and zero-window persist probing.
#include <algorithm>
#include <cerrno>

#include "fstack/tcp_pcb.hpp"

namespace cherinet::fstack {

bool TcpPcb::fire_rexmit(sim::Ns now) {
  rexmit_deadline_.reset();
  switch (xmit_timer_) {
    case XmitTimer::kTlp:
      return fire_tlp();
    case XmitTimer::kReo:
      return fire_reo(now);
    case XmitTimer::kRto:
      break;
  }
  return fire_rto();
}

bool TcpPcb::fire_rto() {
  if (++rexmit_shift_ > kMaxRexmit) {
    error_ = ETIMEDOUT;
    set_state(TcpState::kClosed);
    snd_.release_all();  // giving up: the retained zc TX refs go back too
    return true;
  }
  rto_ = std::min(rto_ * 2, cfg_.max_rto);  // backoff (RFC 6298 §5.5)
  rtt_timing_ = false;                      // Karn: never time retransmits
  counters_.rto_expirations++;

  if (state_ == TcpState::kSynSent) {
    send_segment(iss_, 0, 0, tcpflag::kSyn);
    counters_.rexmits++;
    arm_rexmit();
    return true;
  }
  if (state_ == TcpState::kSynReceived) {
    send_segment(iss_, 0, 0, tcpflag::kSyn | tcpflag::kAck);
    counters_.rexmits++;
    arm_rexmit();
    return true;
  }

  const bool fin_out = fin_sent_ && !fin_acked_;
  if (data_in_flight() == 0 && !fin_out) {
    return false;  // spurious: everything got acked meanwhile
  }

  // Loss response (RFC 5681 §3.1): collapse cwnd, halve ssthresh. Every
  // byte the receiver has not SACKed is lost (RFC 6675 §5.1); recovery
  // resends them lowest first as the window reopens, skipping what was
  // SACKed, until the data sent so far is acknowledged.
  ssthresh_ = std::max((snd_nxt_ - snd_una_) / 2, 2u * mss_eff_);
  cwnd_ = mss_eff_;
  recovery_ = Recovery::kRto;
  recover_ = snd_una_ + data_in_flight();
  dupacks_ = 0;
  reno_sacked_ = 0;
  tlp_end_.reset();
  // A receiver still holding back what it SACKed after a backed-off RTO,
  // or SACKing the very byte it has not acknowledged, has reneged: forget
  // its SACKs and resend everything (RFC 2018 §8).
  if (!sb_.empty() &&
      (rexmit_shift_ > 1 ||
       sb_.ranges().front().has(SackScoreboard::kSacked))) {
    sb_.clear_sacks();
  }
  sb_.mark_all_lost();
  if (sb_.lost_bytes() == 0) {
    // Only the FIN is outstanding.
    send_segment(snd_nxt_ - 1, 0, 0, tcpflag::kAck | tcpflag::kFin);
    counters_.rexmits++;
    arm_rexmit();
    return true;
  }
  // An emission that fails (no mbuf, tenant over budget, ARP queue full)
  // sends nothing: the timer must still run, or with everything in flight
  // lost no ACK ever comes and backoff never reaches ETIMEDOUT.
  if (!send_lost(/*fast_rexmit=*/false)) arm_rto();
  return true;
}

bool TcpPcb::fire_tlp() {
  // RFC 8985 §7.3: one new segment if the peer's window allows it, else the
  // last segment again; an ACK or SACK for it brings recovery along, and
  // the RTO stays behind it.
  if (snd_una_ == snd_nxt_) return false;
  counters_.tlp_probes++;
  const bool may_send_data = (state_ == TcpState::kEstablished ||
                              state_ == TcpState::kCloseWait) &&
                             !fin_sent_;
  if (may_send_data && send_new(/*probe=*/true)) {
    tlp_retrans_ = false;
  } else {
    const std::uint32_t out = data_in_flight();
    const std::uint32_t k = std::min<std::uint32_t>(out, mss_eff_);
    const std::uint32_t seq = snd_una_ + out - k;
    std::uint8_t flags = tcpflag::kAck;
    if (fin_sent_ && !fin_acked_) flags |= tcpflag::kFin;
    if (send_segment(seq, seq - snd_una_, k, flags)) counters_.rexmits++;
    tlp_retrans_ = true;
  }
  tlp_end_ = snd_nxt_;
  arm_rto();
  return true;
}

bool TcpPcb::fire_reo(sim::Ns now) {
  detect_loss(now);
  if (!rexmit_deadline_ && snd_una_ != snd_nxt_) arm_rto();
  return output();
}

bool TcpPcb::fire_delack(sim::Ns) {
  delack_deadline_.reset();
  if (!ack_pending_) return false;
  return send_control(tcpflag::kAck);
}

bool TcpPcb::fire_ack_flush(sim::Ns now) {
  if (!ack_flush_deadline_ || now < *ack_flush_deadline_) return false;
  ack_flush_deadline_.reset();
  if (!ack_pending_) return false;
  return send_control(tcpflag::kAck);
}

bool TcpPcb::fire_persist(sim::Ns now) {
  persist_deadline_.reset();
  if (snd_wnd_ != 0) {
    persist_shift_ = 0;
    return output();
  }
  const std::uint32_t offset = snd_nxt_ - snd_una_;
  if (snd_.used() <= offset) return false;

  // Probe with one byte beyond the closed window.
  if (send_segment(snd_nxt_, offset, 1, tcpflag::kAck)) {
    snd_nxt_ += 1;
    arm_rexmit();
  }
  persist_shift_ = std::min(persist_shift_ + 1, 6u);
  persist_deadline_ = now + kPersistBase * (1u << persist_shift_);
  return true;
}

}  // namespace cherinet::fstack
