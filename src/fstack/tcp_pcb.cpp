#include "fstack/tcp_pcb.hpp"

#include <algorithm>
#include <cerrno>

namespace cherinet::fstack {

namespace {
// 2*MSL, shortened for simulation.
constexpr sim::Ns kTimeWait{500'000'000};
}  // namespace

TcpPcb::TcpPcb(TcpEnv* env, const TcpConfig& cfg, TxChain snd, RxChain rcv)
    : env_(env), cfg_(cfg), snd_(std::move(snd)), rx_(std::move(rcv)),
      rto_(cfg.initial_rto) {}

void TcpPcb::set_state(TcpState s) {
  if (s == state_) return;
  if (state_ == TcpState::kSynReceived && listener != nullptr &&
      listener->syn_backlog > 0) {
    listener->syn_backlog--;  // leaving the embryonic queue (either way)
  }
  state_ = s;
  if (s == TcpState::kSynReceived && listener != nullptr) {
    listener->syn_backlog++;
  }
  if (s == TcpState::kClosed) {
    // A dead connection must never fire again; disarming here is also what
    // lets FfStack::timer_sync drop the PCB's wheel registration.
    rexmit_deadline_.reset();
    delack_deadline_.reset();
    ack_flush_deadline_.reset();
    persist_deadline_.reset();
    time_wait_deadline_.reset();
  }
}

void TcpPcb::open_listen(Ipv4Addr local_ip, std::uint16_t local_port) {
  tuple_.local_ip = local_ip;
  tuple_.local_port = local_port;
  set_state(TcpState::kListen);
}

void TcpPcb::open_connect(const FourTuple& tuple, std::uint32_t iss) {
  tuple_ = tuple;
  iss_ = iss;
  snd_una_ = iss;
  snd_nxt_ = iss;  // send_control(SYN) advances by one
  set_state(TcpState::kSynSent);
  mss_eff_ = cfg_.mss;
  cwnd_ = cfg_.init_cwnd_segments * cfg_.mss;
  send_control(tcpflag::kSyn);
  arm_rexmit();
}

std::size_t TcpPcb::app_writev(std::span<const FfIovec> iov) {
  if (!connected() || fin_queued_) return 0;
  return snd_.writev_from(iov);
}

bool TcpPcb::app_zc_send(updk::Mbuf* m, std::uint32_t off, std::uint32_t len,
                         std::uint32_t csum) {
  if (!connected() || fin_queued_) return false;
  return snd_.push_zc(m, off, len, csum);
}

std::size_t TcpPcb::app_read(const machine::CapView& dst, std::size_t n) {
  const std::size_t before = rx_.window_free();
  const std::size_t got = rx_.read_into(dst, 0, n);
  // If the advertised window had (nearly) collapsed, announce the reopened
  // window *immediately* — waiting for the delayed-ACK timer would leave
  // the peer throttled or probing (BSD's sowwakeup -> tcp_output path).
  if (got > 0 && before < 2u * mss_eff_) {
    ack_now_ = true;
    output();
  }
  return got;
}

void TcpPcb::zc_rx_credit(std::size_t charge) {
  const std::size_t before = rx_.window_free();
  rx_.credit_loan(charge);
  if (charge > 0 && before < 2u * mss_eff_ && connected()) {
    ack_now_ = true;
    output();
  }
}

void TcpPcb::app_close() {
  if (fin_queued_) return;
  switch (state_) {
    case TcpState::kClosed:
    case TcpState::kListen:
      set_state(TcpState::kClosed);
      return;
    case TcpState::kSynSent:
      set_state(TcpState::kClosed);
      return;
    default:
      fin_queued_ = true;
      output();
      return;
  }
}

void TcpPcb::abort(int err) {
  if (connected() || state_ == TcpState::kSynReceived) {
    send_control(tcpflag::kRst | tcpflag::kAck);
  }
  error_ = err;
  set_state(TcpState::kClosed);
  // Hard teardown: nothing will ever be retransmitted again — release
  // every retained zc TX reference now rather than when the PCB is reaped.
  snd_.release_all();
}

void TcpPcb::negotiate_options(const TcpOptions& opts, bool we_offered) {
  if (opts.mss) {
    mss_eff_ = std::min<std::uint16_t>(cfg_.mss, *opts.mss);
  } else {
    mss_eff_ = std::min<std::uint16_t>(cfg_.mss, 536);
  }
  ts_on_ = we_offered && opts.timestamps.has_value();
  ws_on_ = we_offered && opts.wscale.has_value();
  if (ws_on_) {
    snd_wscale_ = std::min<std::uint8_t>(*opts.wscale, 14);
    rcv_wscale_ = kWscale;
  }
  if (opts.timestamps) ts_recent_ = opts.timestamps->first;
  cwnd_ = cfg_.init_cwnd_segments * mss_eff_;
}

void TcpPcb::rtt_sample(sim::Ns rtt) {
  // RFC 6298 §2: SRTT/RTTVAR update with alpha=1/8, beta=1/4, K=4.
  if (srtt_.count() == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
  } else {
    const sim::Ns err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = (rttvar_ * 3 + err) / 4;
    srtt_ = (srtt_ * 7 + rtt) / 8;
  }
  rto_ = std::clamp(srtt_ + std::max(sim::Ns{1'000'000}, rttvar_ * 4),
                    cfg_.min_rto, cfg_.max_rto);
}

void TcpPcb::cc_on_new_ack(std::uint32_t acked_bytes) {
  if (cwnd_ < ssthresh_) {
    // Slow start: appropriate byte counting (RFC 3465) — grow by the bytes
    // the ACK actually covers, so stretch ACKs (kAckCoalesceSegments)
    // ramp exactly as fast as per-segment ACKs did.
    cwnd_ += acked_bytes;
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    const std::uint32_t inc =
        std::max<std::uint32_t>(1, std::uint32_t{mss_eff_} * mss_eff_ / cwnd_);
    cwnd_ += inc;
  }
}

void TcpPcb::enter_time_wait() {
  set_state(TcpState::kTimeWait);
  time_wait_deadline_ = env_->tcp_now() + kTimeWait;
  rexmit_deadline_.reset();
  persist_deadline_.reset();
}

void TcpPcb::schedule_ack() {
  ack_pending_ = true;
  if (!delack_deadline_) {
    delack_deadline_ = env_->tcp_now() + cfg_.delack_timeout;
  }
  // Sliding GRO flush: each coalesced segment pushes the idle deadline
  // forward, so back-to-back arrivals keep aggregating (up to the Nth-
  // segment count trigger) and the ACK leaves ack_flush_timeout after the
  // stream pauses — never a full delack_timeout later.
  if (cfg_.ack_flush_timeout.count() > 0) {
    ack_flush_deadline_ = env_->tcp_now() + cfg_.ack_flush_timeout;
  }
}

std::optional<sim::Ns> TcpPcb::next_deadline() const {
  std::optional<sim::Ns> d;
  const auto merge = [&d](const std::optional<sim::Ns>& t) {
    if (t && (!d || *t < *d)) d = t;
  };
  merge(rexmit_deadline_);
  merge(delack_deadline_);
  // ack_flush_deadline_ is deliberately absent: the wheel's ~0.5 ms tick
  // ceiling would swallow a µs-scale flush bound, so FfStack tracks it
  // exactly in its ack-flush side list instead.
  merge(persist_deadline_);
  merge(time_wait_deadline_);
  return d;
}

bool TcpPcb::on_timer(sim::Ns now) {
  bool progress = false;
  if (time_wait_deadline_ && now >= *time_wait_deadline_) {
    time_wait_deadline_.reset();
    set_state(TcpState::kClosed);
    progress = true;
  }
  if (rexmit_deadline_ && now >= *rexmit_deadline_) {
    progress |= fire_rexmit(now);
  }
  if (persist_deadline_ && now >= *persist_deadline_) {
    progress |= fire_persist(now);
  }
  if (delack_deadline_ && now >= *delack_deadline_) {
    progress |= fire_delack(now);
  }
  return progress;
}

}  // namespace cherinet::fstack
