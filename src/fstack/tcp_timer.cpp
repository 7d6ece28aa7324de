// TCP timers: retransmission with exponential backoff (RFC 6298 §5),
// delayed ACK, and zero-window persist probing.
#include <algorithm>
#include <cerrno>

#include "fstack/tcp_pcb.hpp"

namespace cherinet::fstack {

bool TcpPcb::fire_rexmit(sim::Ns now) {
  (void)now;
  rexmit_deadline_.reset();

  if (++rexmit_shift_ > cfg_.max_rexmit) {
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

  const std::uint32_t outstanding =
      snd_nxt_ - snd_una_ - ((fin_sent_ && !fin_acked_) ? 1 : 0);
  if (outstanding == 0 && !(fin_sent_ && !fin_acked_)) {
    return false;  // spurious: everything got acked meanwhile
  }

  // Loss response (RFC 5681 §3.1): collapse cwnd, halve ssthresh.
  const std::uint32_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max(flight / 2, 2u * mss_eff_);
  cwnd_ = mss_eff_;
  in_recovery_ = false;
  dupacks_ = 0;

  const std::size_t n =
      std::min<std::size_t>({static_cast<std::size_t>(outstanding),
                             snd_.used(), mss_eff_});
  std::uint8_t flags = tcpflag::kAck;
  // If this retransmission reaches the FIN, resend it too.
  if (fin_sent_ && !fin_acked_ && n == outstanding) flags |= tcpflag::kFin;
  send_segment(snd_una_, 0, n, flags);
  counters_.rexmits++;
  arm_rexmit();
  return true;
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
