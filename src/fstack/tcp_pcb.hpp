// TCP protocol control block: connection state machine, sliding-window flow
// control, RFC 6298 retransmission timing, RFC 5681 congestion control and
// SACK-driven loss recovery — the FreeBSD-derived heart of the F-Stack
// analogue. Recovery is one path for every loss signal: a scoreboard
// (tcp_scoreboard.hpp) over the bytes in flight, RFC 6675 pipe accounting
// that retransmits only the holes, RACK time-ordered loss detection and a
// tail-loss probe (RFC 8985). A peer that did not offer SACK runs the same
// path, each duplicate ACK standing for one MSS delivered above the hole.
//
// The PCB is deliberately single-threaded: it runs under the stack's main
// loop (Scenario 1) or under the stack mutex (Scenario 2), exactly like
// F-Stack's FreeBSD stack instance in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "fstack/headers.hpp"
#include "fstack/rx_chain.hpp"
#include "fstack/sockbuf.hpp"
#include "fstack/tcp_scoreboard.hpp"
#include "fstack/tx_chain.hpp"
#include "sim/virtual_clock.hpp"

namespace cherinet::fstack {

enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

struct TcpConfig {
  std::size_t sndbuf_bytes = 256 * 1024;
  std::size_t rcvbuf_bytes = 256 * 1024;
  std::uint16_t mss = 1448;  // with 12-byte timestamp option => 1500 MTU
  sim::Ns delack_timeout{40'000'000};     // 40 ms
  /// GRO/NAPI-style idle flush bound on ACK coalescing: every in-order
  /// segment slides this deadline forward, so a pending coalesced ACK
  /// leaves this soon after the arrival stream PAUSES (the delayed-ACK
  /// timer stays as the outer protocol bound). A sender whose flight is
  /// below the stretch-ACK count (kAckCoalesceSegments, tcp_input.cpp)
  /// gets each window's ACK only from this flush — without it, the full
  /// delack_timeout later. The flush bounds each such wait; what keeps a
  /// cwnd that loss recovery halved from staying under the stretch count
  /// is byte-counted congestion avoidance (cc_on_new_ack), and a segment
  /// that fills a hole is ACKed at once rather than flushed. Real
  /// aggregating NICs bound the stretch the same way (napi
  /// gro_flush_timeout, tens of µs). 0 disables the flush
  /// (pure count + delack coalescing). Wheel-free: FfStack tracks these
  /// µs-scale deadlines exactly in a side list — the timing wheel's ~0.5 ms
  /// tick would erase the point of the bound.
  sim::Ns ack_flush_timeout{50'000};      // 50 µs
  sim::Ns min_rto{200'000'000};           // 200 ms
  sim::Ns max_rto{60'000'000'000};        // 60 s
  sim::Ns initial_rto{1'000'000'000};     // RFC 6298 §2
  std::uint32_t init_cwnd_segments = 10;  // RFC 6928
  /// TSO super-segment bound in MSS multiples: output() may emit up to
  /// tso_max_segs * mss_eff bytes as ONE segment when the queue negotiated
  /// kOffloadTxTso (the device slices it back into MSS wire frames).
  /// FfStack::make_pcb forces this to 1 when TSO was not negotiated, so a
  /// software-path PCB always stays on per-MSS emission. The SWS and
  /// Nagle-ish runt checks remain single-MSS-based either way.
  std::uint32_t tso_max_segs = 8;
};

class TcpPcb;

/// Services TCP needs from the owning stack instance.
class TcpEnv {
 public:
  virtual ~TcpEnv() = default;
  [[nodiscard]] virtual sim::Ns tcp_now() = 0;
  /// Monotonic value for the timestamp option (microsecond granularity).
  [[nodiscard]] virtual std::uint32_t tcp_ts_now() = 0;
  /// Emit one segment. `payload_off` indexes the send buffer from its head
  /// (snd_una). Returns false if the packet could not be queued (no mbuf) —
  /// the PCB will retry from its retransmission machinery.
  virtual bool tcp_emit(TcpPcb& pcb, const TcpHeader& hdr,
                        const TcpOptions& opts, std::size_t payload_off,
                        std::size_t payload_len) = 0;
  /// Passive open: a listener got a valid SYN. Returns the child PCB (with
  /// allocated buffers, state kListen->kSynReceived handled by caller) or
  /// null to refuse (backlog/memory).
  virtual TcpPcb* tcp_spawn_child(TcpPcb& listener, const FourTuple& tuple) = 0;
  /// Child reached kEstablished: append to the listener's accept queue.
  virtual void tcp_accept_ready(TcpPcb& listener, TcpPcb& child) = 0;
  /// Map an in-order payload span onto the mbuf currently being delivered
  /// by the RX burst, if the bytes live in a single data room.
  [[nodiscard]] virtual std::optional<MbufSlice> tcp_rx_loan(
      std::span<const std::byte> payload) = 0;
};

class TcpPcb {
 public:
  TcpPcb(TcpEnv* env, const TcpConfig& cfg, TxChain snd, RxChain rcv);

  /// Retransmission timeouts in a row before the connection gives up
  /// (ETIMEDOUT).
  static constexpr std::uint32_t kMaxRexmit = 12;

  // ---- lifecycle (socket layer) ----
  void open_listen(Ipv4Addr local_ip, std::uint16_t local_port);
  void open_connect(const FourTuple& tuple, std::uint32_t iss);
  /// Gather-queue a pre-validated iovec batch in one pass; returns total
  /// bytes accepted (short count when the send buffer fills mid-batch).
  /// Single v1 writes arrive here too, as one-element batches.
  std::size_t app_writev(std::span<const FfIovec> iov);
  /// Zero-copy send: append a retained mbuf slice to the send queue (the
  /// chain takes over the caller's reference and holds it until cumulative
  /// ACK — retransmission re-reads the still-live data room). `csum` is
  /// the slice's cached partial checksum, computed once on entry so
  /// emission never reads the payload again. All-or-nothing; false when
  /// the send window has no room (reference NOT taken, the caller's
  /// reservation stays valid for retry).
  bool app_zc_send(updk::Mbuf* m, std::uint32_t off, std::uint32_t len,
                   std::uint32_t csum);
  /// Read received bytes into the app capability — a LAZY copy out of the
  /// queued RX chain; returns bytes, 0 when nothing available (check
  /// eof()/error() to distinguish).
  std::size_t app_read(const machine::CapView& dst, std::size_t n);
  /// Pop the next in-order slice as a zero-copy loan (OP_ZC_RECV). The
  /// slice's charge (`*charge_out`) stays held against the receive window
  /// until zc_rx_credit() reopens it at recycle time.
  std::optional<MbufSlice> zc_rx_pop(std::size_t* charge_out) {
    return rx_.pop_loan(charge_out);
  }
  /// Bytes queued and readable in the RX chain.
  [[nodiscard]] std::size_t rx_used() const noexcept { return rx_.used(); }
  /// A loan of `charge` was recycled: reopen the window (and announce it
  /// if it had collapsed).
  void zc_rx_credit(std::size_t charge);
  /// Half-close: queue a FIN after pending data.
  void app_close();
  /// Hard reset.
  void abort(int err);

  // ---- datapath (stack) ----
  void input(const TcpHeader& h, const TcpOptions& opts,
             std::span<const std::byte> payload);
  /// Send whatever the window allows (data, FIN, pending ACK).
  bool output();
  [[nodiscard]] std::optional<sim::Ns> next_deadline() const;
  /// Fire timers due at `now`; returns true if anything was sent/changed.
  bool on_timer(sim::Ns now);

  // ---- queries ----
  [[nodiscard]] TcpState state() const noexcept { return state_; }
  [[nodiscard]] const FourTuple& tuple() const noexcept { return tuple_; }
  [[nodiscard]] bool readable() const noexcept {
    return !rx_.empty() || fin_received_ || error_ != 0;
  }
  /// EPOLLOUT's low-water mark: the socket reports writable only once a
  /// 1/kSendLowatDiv share of its send buffer is free, so a waiting writer
  /// wakes for a batch of writes rather than for every ACK that frees a
  /// few segments. Linux's tcp_poll asks for half of what is queued (a
  /// third of a full buffer); at a third, a writer could sleep through
  /// fast recovery with nothing queued behind a lost retransmission for
  /// RACK to see, and the RTO had to find it. Write admission ignores the
  /// mark: a write below it still takes whatever fits.
  static constexpr std::size_t kSendLowatDiv = 5;
  [[nodiscard]] bool writable() const noexcept {
    return state_ == TcpState::kEstablished ||
           state_ == TcpState::kCloseWait
               ? snd_.free() >=
                     std::max<std::size_t>(snd_.capacity() / kSendLowatDiv, 1)
               : false;
  }
  [[nodiscard]] bool eof() const noexcept {
    return fin_received_ && rx_.empty();
  }
  [[nodiscard]] int error() const noexcept { return error_; }
  [[nodiscard]] bool connected() const noexcept {
    return state_ == TcpState::kEstablished ||
           state_ == TcpState::kCloseWait || state_ == TcpState::kFinWait1 ||
           state_ == TcpState::kFinWait2;
  }
  [[nodiscard]] bool closed() const noexcept {
    return state_ == TcpState::kClosed;
  }
  [[nodiscard]] std::uint32_t cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] std::uint32_t ssthresh() const noexcept { return ssthresh_; }
  [[nodiscard]] sim::Ns srtt() const noexcept { return srtt_; }
  [[nodiscard]] sim::Ns rto() const noexcept { return rto_; }
  [[nodiscard]] std::uint16_t mss_eff() const noexcept { return mss_eff_; }

  // ---- QoS traffic class (API v7) ----
  // Kept on the PCB (not only the socket) so every segment the protocol
  // emits — ACKs, retransmits, FIN, RST on this connection — rides the
  // flow's class; accepted children inherit the listener's class at spawn.
  void set_tclass(std::uint8_t cls) noexcept { tclass_ = cls; }
  [[nodiscard]] std::uint8_t tclass() const noexcept { return tclass_; }

  // ---- owning tenant (API v9) ----
  // Same placement argument as tclass: pure-protocol emissions (ACKs,
  // retransmits) must attribute any frame they park on an unresolved ARP
  // hop to the flow's tenant; accepted children inherit at spawn.
  void set_tenant(int tid) noexcept { tenant_ = tid; }
  [[nodiscard]] int tenant() const noexcept { return tenant_; }

  /// Gather unacknowledged send-queue bytes (linearizing fallback / test
  /// hook); `off` is relative to snd_una. Mbuf-backed spans read directly
  /// from their still-live data rooms.
  void peek_send(std::size_t off, std::span<std::byte> out) const {
    snd_.peek(off, out);
  }
  /// Decompose [off, off+len) of the send queue into scatter-gather source
  /// extents (tcp_emit chains them behind the header mbuf as indirect
  /// segments). Returns the piece count; 0 = does not fit `out`.
  std::size_t gather_send(std::size_t off, std::size_t len,
                          std::span<TxPiece> out) const {
    return snd_.gather(off, len, out);
  }
  /// Receive window currently advertised (bytes). Queued chain bytes AND
  /// outstanding zero-copy loans both consume it: a slow recycler throttles
  /// its sender instead of draining the mbuf pool.
  [[nodiscard]] std::uint32_t rcv_wnd() const noexcept {
    return static_cast<std::uint32_t>(rx_.window_free());
  }

  /// Diagnostic snapshot of the sequence-space state (tests/debugging).
  struct DebugSnapshot {
    std::uint32_t snd_una, snd_nxt, snd_wnd, cwnd;
    std::uint32_t rcv_nxt;
    std::size_t snd_used, snd_free, rcv_used;
    bool fin_queued, fin_sent, ack_pending, ack_now, in_recovery;
    bool rexmit_armed, delack_armed, persist_armed;
  };
  [[nodiscard]] DebugSnapshot debug_snapshot() const noexcept {
    return DebugSnapshot{snd_una_, snd_nxt_, snd_wnd_, cwnd_, rcv_nxt_,
                         snd_.used(), snd_.free(), rx_.used(),
                         fin_queued_, fin_sent_, ack_pending_, ack_now_,
                         recovery_ != Recovery::kNone,
                         rexmit_deadline_.has_value(),
                         delack_deadline_.has_value(),
                         persist_deadline_.has_value()};
  }

  struct Counters {
    std::uint64_t segs_in = 0;
    std::uint64_t segs_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bytes_acked = 0;   // send-buffer bytes freed by ACKs
    std::uint64_t rexmits = 0;       // retransmitted segments (all causes)
    // Of those, the ones sent in fast recovery: ranges the scoreboard
    // marked lost before any RTO.
    std::uint64_t fast_rexmits = 0;
    std::uint64_t rto_expirations = 0;  // RTO fires (backoff events)
    std::uint64_t tlp_probes = 0;       // tail-loss probes sent (RFC 8985)
    // Bytes the peer retransmitted that this side had already received
    // (head-trimmed duplicate payload) — the receiver-side evidence of
    // spurious retransmission under reordering/jitter.
    std::uint64_t spurious_rexmit_bytes = 0;
    std::uint64_t dup_acks_in = 0;
    std::uint64_t ooo_segs = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  // Listener plumbing (owned by the stack / socket layer).
  TcpPcb* listener = nullptr;
  std::deque<TcpPcb*> accept_queue;
  /// Monotonic count of children ever queued for accept — the readiness
  /// generation multishot epoll needs (queue length is not monotonic).
  std::uint64_t accept_ready_total = 0;
  int backlog = 0;
  /// Embryonic (SYN_RECEIVED) children of this listener — the bounded SYN
  /// queue depth. Maintained by set_state(); input_listen refuses further
  /// SYNs (counting them in syn_backlog_drops) once it reaches the backlog,
  /// so a SYN flood cannot spawn unbounded half-open PCBs.
  int syn_backlog = 0;
  /// SYNs refused because the embryonic queue (or the accept queue) was
  /// full. Dropped SYNs are not fatal: the peer retransmits and succeeds
  /// once earlier handshakes complete.
  std::uint64_t syn_backlog_drops = 0;
  /// Source IP of the segment being delivered (set by the stack before
  /// input() on listeners — TCP headers do not carry addresses).
  Ipv4Addr pending_remote_ip{};

  // Timer-wheel registration (owned by FfStack::timer_sync): the handle of
  // this PCB's single wheel entry and the deadline it was registered at.
  std::uint64_t wheel_id = 0;
  std::optional<sim::Ns> wheel_deadline;
  // Membership flag for FfStack's ack-flush side list (owned by the stack,
  // like wheel_id): µs-scale GRO flush deadlines bypass the wheel.
  bool flush_listed = false;

  /// Armed GRO-flush deadline for the pending coalesced ACK (nullopt when
  /// no ACK is owed or ack_flush_timeout is 0). Tracked exactly by FfStack.
  [[nodiscard]] std::optional<sim::Ns> ack_flush_deadline() const noexcept {
    return ack_flush_deadline_;
  }
  /// Emit the owed coalesced ACK if the flush deadline has been reached.
  bool fire_ack_flush(sim::Ns now);

 private:
  friend class StackTcpAccess;  // test/diagnostic backdoor

  /// Window-scale shift offered on our SYN (the peer's is clamped to 14).
  static constexpr std::uint8_t kWscale = 7;
  /// Zero-window probe base interval, doubled per unanswered probe.
  static constexpr sim::Ns kPersistBase{500'000'000};
  /// Duplicate ACKs that mark the head lost for a peer without SACK.
  static constexpr std::uint32_t kDupThresh = 3;

  /// Loss recovery in progress: none, fast recovery (RFC 6675, entered on a
  /// loss the scoreboard detected) or the recovery after an RTO.
  enum class Recovery : std::uint8_t { kNone, kFast, kRto };
  /// What the one retransmission timer waits for: the RTO, a tail-loss
  /// probe (RFC 8985 §7) or RACK's reordering window (§6.3).
  enum class XmitTimer : std::uint8_t { kRto, kTlp, kReo };

  /// The application freed receive space that held `before` bytes free.
  void window_opened(std::size_t before);

  // --- input helpers (tcp_input.cpp) ---
  void input_listen(const TcpHeader& h, const TcpOptions& opts);
  void input_syn_sent(const TcpHeader& h, const TcpOptions& opts);
  void process_ack(const TcpHeader& h, const TcpOptions& opts,
                   std::size_t payload_len);
  void process_payload(const TcpHeader& h, std::span<const std::byte> payload);
  void process_fin(const TcpHeader& h, std::size_t payload_len);
  /// Move out-of-order data that now reaches rcv_nxt into the receive
  /// queue; true if rcv_nxt moved.
  bool absorb_ooo();
  /// The SACK blocks for an outgoing segment that carries `len` bytes.
  void sack_blocks(TcpOptions& opts, std::size_t len) const;
  void enter_time_wait();
  void rtt_sample(sim::Ns rtt);
  void cc_on_new_ack(std::uint32_t acked_bytes);
  void negotiate_options(const TcpOptions& opts, bool we_offered);

  // --- loss recovery (tcp_input.cpp) ---
  /// Apply the ACK's SACK blocks to the scoreboard.
  void process_sack(const TcpOptions& opts, sim::Ns now);
  /// RACK bookkeeping for one newly delivered range (RFC 8985 §6.2):
  /// reordering, the highest delivered end and the newest transmission.
  void rack_advance(const SackScoreboard::Range& r, sim::Ns now);
  /// Mark what the scoreboard shows lost, enter fast recovery on the first
  /// loss and arm the reordering timer when RACK must wait.
  void detect_loss(sim::Ns now);
  /// RACK: mark lost every range sent a reordering window before the
  /// newest delivered one; returns how long the rest must still wait.
  sim::Ns rack_detect_loss(sim::Ns now);
  [[nodiscard]] sim::Ns rack_reo_wnd() const;
  /// Data bytes sent and not cumulatively acknowledged (no SYN, no FIN).
  [[nodiscard]] std::uint32_t data_in_flight() const noexcept {
    return snd_nxt_ - snd_una_ - ((fin_sent_ && !fin_acked_) ? 1u : 0u);
  }
  /// RFC 6675 pipe: the bytes still in the network.
  [[nodiscard]] std::uint32_t pipe() const noexcept;
  [[nodiscard]] bool tlp_eligible() const noexcept;

  // --- output helpers (tcp_output.cpp) ---
  bool send_segment(std::uint32_t seq, std::size_t payload_off,
                    std::size_t len, std::uint8_t flags);
  bool send_control(std::uint8_t flags);  // SYN / pure ACK / RST
  /// Retransmit the ranges marked lost, lowest first, while the pipe is
  /// under cwnd (RFC 6675 NextSeg rule 1); `fast_rexmit` sends the first
  /// one regardless (the fast retransmit, RFC 6675 §5 step 4.3).
  bool send_lost(bool fast_rexmit);
  /// Send new data while the peer's window and cwnd allow it; a `probe`
  /// sends one MSS whatever cwnd says (the tail-loss probe).
  bool send_new(bool probe);
  /// Restart the retransmission timer after a transmission or a new ACK:
  /// a tail-loss probe when one is due sooner than the RTO, else the RTO.
  void arm_rexmit();
  void arm_rto();
  void schedule_ack();

  // --- timers (tcp_timer.cpp) ---
  bool fire_rexmit(sim::Ns now);
  bool fire_rto();
  bool fire_tlp();
  bool fire_reo(sim::Ns now);
  bool fire_delack(sim::Ns now);
  bool fire_persist(sim::Ns now);

  /// The single state-transition choke point: maintains the listener's
  /// embryonic-SYN count and disarms every timer on entry to kClosed
  /// (nothing may fire on a dead connection — the wheel unregisters it on
  /// the next sync).
  void set_state(TcpState s);

  TcpEnv* env_;
  TcpConfig cfg_;
  TxChain snd_;  // interleaved copy/zc send queue + retransmission store
  RxChain rx_;   // loan-based receive queue (replaced the receive SockBuf)

  TcpState state_ = TcpState::kClosed;
  FourTuple tuple_{};
  int error_ = 0;

  // Send sequence space.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_wnd_ = 0;
  std::uint32_t snd_wl1_ = 0;
  std::uint32_t snd_wl2_ = 0;
  bool syn_acked_ = false;

  // Receive sequence space.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;

  // Options state.
  std::uint16_t mss_eff_ = 536;
  bool ts_on_ = false;
  bool ws_on_ = false;
  std::uint8_t snd_wscale_ = 0;  // shift applied to peer's advertised window
  std::uint8_t rcv_wscale_ = 0;  // shift we advertise
  std::uint32_t ts_recent_ = 0;
  bool sack_on_ = false;  // both ends offered SACK-permitted (RFC 2018)

  // Congestion control and loss recovery.
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0xFFFFFFFF;
  std::uint32_t dupacks_ = 0;
  Recovery recovery_ = Recovery::kNone;
  // The end of the data in flight when recovery began. A FIN is left out:
  // once the data is in, a lost FIN is the tail-loss probe's.
  std::uint32_t recover_ = 0;
  SackScoreboard sb_;          // the bytes in flight, SACKed / lost / resent
  // Without SACK: the bytes the duplicate ACKs stand for, one MSS each,
  // delivered somewhere above the hole (Linux's tcp_add_reno_sack).
  std::uint32_t reno_sacked_ = 0;

  // RACK (RFC 8985 §6): the newest delivered transmission.
  bool rack_valid_ = false;
  sim::Ns rack_xmit_{0};          // when it was sent
  std::uint32_t rack_end_ = 0;    // its end
  sim::Ns rack_rtt_{0};           // its round trip
  std::uint32_t rack_fack_ = 0;   // highest end delivered so far
  bool reordering_seen_ = false;  // a range arrived below rack_fack_
  sim::Ns min_rtt_{0};

  // Tail-loss probe (RFC 8985 §7): snd_nxt when the probe left.
  std::optional<std::uint32_t> tlp_end_;
  bool tlp_retrans_ = false;  // the probe resent data rather than new data

  // RTT estimation (RFC 6298).
  sim::Ns srtt_{0};
  sim::Ns rttvar_{0};
  sim::Ns rto_;
  bool rtt_timing_ = false;
  std::uint32_t rtt_seq_ = 0;
  sim::Ns rtt_started_{0};

  // Timers (absolute virtual deadlines; nullopt = disarmed).
  std::optional<sim::Ns> rexmit_deadline_;
  std::optional<sim::Ns> delack_deadline_;
  std::optional<sim::Ns> ack_flush_deadline_;  // GRO idle-flush (sub-tick)
  std::optional<sim::Ns> persist_deadline_;
  std::optional<sim::Ns> time_wait_deadline_;
  XmitTimer xmit_timer_ = XmitTimer::kRto;  // what rexmit_deadline_ is for
  std::uint32_t rexmit_shift_ = 0;
  std::uint32_t persist_shift_ = 0;

  // ACK strategy.
  bool ack_pending_ = false;  // delayed ACK armed
  bool ack_now_ = false;      // force an immediate ACK on next output()
  std::uint32_t segs_since_ack_ = 0;

  // FIN bookkeeping.
  bool fin_queued_ = false;    // app_close() called
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  bool fin_received_ = false;

  // Out-of-order reassembly (seq -> payload).
  std::map<std::uint32_t, std::vector<std::byte>> ooo_;
  std::uint32_t sack_newest_ = 0;  // seq of the newest out-of-order arrival

  std::uint8_t tclass_ = 0;  // QoS class every emission on this flow rides
  int tenant_ = 0;           // owning tenant (0 = untenanted; tenant.hpp)

  Counters counters_;
};

}  // namespace cherinet::fstack
