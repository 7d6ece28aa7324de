// FfStack: one F-Stack instance — the user-space TCP/IP stack bound to one
// DPDK-style port, driven by a polling main loop (paper §II-C/§III-B).
//
// Single-threaded by design: in Scenario 1 the application runs inside the
// loop's user callback; in Scenario 2 cross-compartment ff_* calls are
// serialized against the loop by the compartment mutex. All packet and
// socket-buffer memory lives in tagged memory behind bounded capabilities.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fstack/api_types.hpp"
#include "fstack/qos.hpp"
#include "fstack/uring.hpp"
#include "fstack/arp.hpp"
#include "fstack/boundary.hpp"
#include "fstack/icmp.hpp"
#include "fstack/ipv4.hpp"
#include "fstack/socket.hpp"
#include "fstack/tenant.hpp"
#include "fstack/timer_wheel.hpp"
#include "machine/heap.hpp"
#include "updk/ethdev.hpp"
#include "updk/mempool.hpp"

namespace cherinet::fstack {

struct NetifConfig {
  Ipv4Addr ip{};
  Ipv4Addr netmask = Ipv4Addr{0xFFFFFF00};
  Ipv4Addr gateway{};
  std::uint16_t mtu = 1500;
};

struct StackConfig {
  NetifConfig netif;
  TcpConfig tcp;
  std::uint64_t iss_seed = 0x9E3779B97F4A7C15ull;
  /// true  -> ff_write drives tcp_output inline (BSD sosend behaviour);
  /// false -> ff_write only queues into the send buffer and the main loop
  ///          emits segments (F-Stack's deferred model; what the paper's
  ///          ~125 ns ff_write measurements correspond to).
  bool inline_tcp_output = true;
};

class FfStack final : public TcpEnv {
 public:
  FfStack(StackConfig cfg, updk::EthDev* dev, updk::Mempool* pool,
          machine::CompartmentHeap* heap, sim::VirtualClock* clock);
  ~FfStack() override;

  // ---- main loop ----
  /// One polling iteration: RX burst -> input, due timers, pending output.
  /// Returns true if any work was done.
  bool run_once();
  /// Earliest future event (wire delivery or protocol timer).
  [[nodiscard]] std::optional<sim::Ns> next_deadline() const;

  // ---- socket operations (wrapped by the ff_* API) ----
  int sock_socket(SockKind kind);
  int sock_bind(int fd, Ipv4Addr ip, std::uint16_t port);
  int sock_listen(int fd, int backlog);
  int sock_accept(int fd, FourTuple* peer_out);
  int sock_connect(int fd, Ipv4Addr ip, std::uint16_t port);
  std::int64_t sock_write(int fd, const machine::CapView& buf, std::size_t n);
  std::int64_t sock_read(int fd, const machine::CapView& buf, std::size_t n);
  std::int64_t sock_sendto(int fd, const machine::CapView& buf, std::size_t n,
                           Ipv4Addr ip, std::uint16_t port);
  std::int64_t sock_recvfrom(int fd, const machine::CapView& buf,
                             std::size_t n, FourTuple* from_out);

  // ---- batch socket operations ----
  // check_args covers the whole batch before a byte is queued.
  std::int64_t sock_writev(int fd, std::span<const FfIovec> iov);
  std::int64_t sock_readv(int fd, std::span<const FfIovec> iov);

  // ---- zero-copy RX: loan mbuf data rooms to the application ----
  /// Fill up to out.size() read-only loans from fd's receive queue.
  /// Returns loans filled, 0 at EOF, -EAGAIN when nothing is queued,
  /// -ENOBUFS when a copy-backed slice could not bounce (retriable after
  /// recycling), -EMSGSIZE when the queued datagram can never fit a data
  /// room (drain it with the copy path), or -errno.
  std::int64_t sock_zc_recv(int fd, std::span<FfZcRxBuf> out);
  /// Return one loan to the pool; -EINVAL on a consumed or forged token.
  int sock_zc_recycle(FfZcRxBuf& zc);

  // ---- ff_uring: the submission/completion ring boundary ----
  /// Attach a caller-initialized FfUring region (see uring.hpp). The ONE
  /// arming crossing: the whole ring capability is validated here — data
  /// and capability access over the full extent — and never again; from
  /// then on the main loop drains the SQ every iteration with zero
  /// crossings per operation. Returns a positive ring id or -errno.
  int uring_attach(const machine::CapView& mem, std::uint32_t sq_capacity,
                   std::uint32_t cq_capacity);
  /// End the stack's use of the delegated ring capability. Multishot arms
  /// (accept / epoll) registered through the ring are cancelled.
  int uring_detach(int id);
  /// The doorbell crossing: kick an immediate drain of ring `id` (the app
  /// rings it only on an empty->non-empty SQ transition while the stack
  /// reports itself parked). Returns SQEs consumed or -errno.
  int uring_doorbell(int id);
  /// Publish the park state into every attached ring's header (the loop
  /// harness calls this before it lets virtual time jump; the app-side
  /// push uses it to decide whether a doorbell crossing is needed at all).
  void urings_set_parked(bool parked);

  /// Assign fd's flow to QoS traffic class `cls` (OP_SET_CLASS /
  /// ff_set_class). Listeners propagate the class to accepted children.
  /// -EBADF on a bad fd, -EINVAL when cls >= kQosClasses.
  int sock_set_class(int fd, std::uint32_t cls);
  /// Replace the TX scheduler's per-class config (rates, quanta, caps).
  void set_qos_config(const QosConfig& cfg) { qos_.configure(cfg); }
  [[nodiscard]] const QosScheduler& qos() const noexcept { return qos_; }

  // ---- tenants: per-tenant resource accounting ----
  // See tenant.hpp for the quota-knob reference. Defined in tenant.cpp.
  /// Register a tenant; returns its id (>= 1).
  int tenant_register(std::string name, const TenantQuota& quota);
  /// Move fd into tenant `tid` (0 detaches it). Charges the socket gauge;
  /// -EMFILE when the tenant is at its socket cap, -EBADF/-EINVAL.
  int sock_set_tenant(int fd, int tid);
  /// Bind an attached ring to a tenant: its SQ drains under the tenant's
  /// weight, ops executed from it adopt the tenant as charging context,
  /// and its CQ-stall rounds count against the tenant's cap.
  int uring_bind_tenant(int ring_id, int tid);
  /// Hard-evict a tenant: detach its rings, abort + close its sockets,
  /// reclaim every outstanding loan, zc reservation and ARP-parked frame,
  /// and reap the aborted PCBs — pool/PCB/wheel baselines are restored
  /// before the call returns. Neighbours are untouched.
  int tenant_evict(int tid);
  [[nodiscard]] const TenantStats* tenant_stats(int tid) const {
    return tenants_.valid(tid) ? &tenants_.stats(tid) : nullptr;
  }
  /// Run the calls made while this scope lives as tenant `tid` through
  /// `door`: zc reservations and loans on untenanted sockets charge it,
  /// token lookups reject a neighbour's tokens, and a refused argument gets
  /// the door's verdict (boundary.hpp). The previous tenant and door come
  /// back on exit, so scopes nest (a doorbell entry's encloses the drain's).
  class TenantScope {
   public:
    TenantScope(FfStack& st, int tid, Door door = Door::kCall)
        : st_(st), prev_(st.active_tenant_), prev_door_(st.door_) {
      st_.active_tenant_ = tid;
      st_.door_ = door;
    }
    ~TenantScope() {
      st_.active_tenant_ = prev_;
      st_.door_ = prev_door_;
    }
    TenantScope(const TenantScope&) = delete;
    TenantScope& operator=(const TenantScope&) = delete;

   private:
    FfStack& st_;
    int prev_;
    Door prev_door_;
  };

  int sock_close(int fd);
  [[nodiscard]] std::uint32_t sock_readiness(int fd) const;

  int epoll_create();
  int epoll_ctl(int epfd, EpollOp op, int fd, std::uint32_t events,
                std::uint64_t data);
  int epoll_wait(int epfd, std::span<FfEpollEvent> out);

  // ---- diagnostics / tests ----
  [[nodiscard]] updk::EthDev& dev() noexcept { return *dev_; }
  [[nodiscard]] const SocketTable& sockets() const noexcept { return socks_; }
  [[nodiscard]] TcpPcb* find_pcb(const FourTuple& t);
  /// The listening PCB bound to `port` (tests: SYN-backlog accounting).
  [[nodiscard]] const TcpPcb* find_listener(std::uint16_t port) const;
  /// The hierarchical timer wheel (tests/censuses: registration count must
  /// track live armed PCB deadlines, and per-turn cost must scale with DUE
  /// timers, not PCBs).
  [[nodiscard]] const TimerWheel& timer_wheel() const noexcept {
    return wheel_;
  }
  /// Live connected/embryonic TCP PCBs (tests: churn teardown must reap —
  /// a stable count across connect/transfer/close cycles is the leak gate).
  [[nodiscard]] std::size_t tcp_pcb_count() const noexcept {
    return tcp_pcbs_.size();
  }
  void send_ping(Ipv4Addr dst, std::uint16_t id, std::uint16_t seq,
                 std::size_t payload_len);
  [[nodiscard]] const PingTracker& pings() const noexcept { return pings_; }

  struct Stats {
    std::uint64_t rx_frames = 0;
    std::uint64_t tx_frames = 0;
    std::uint64_t rx_dropped = 0;
    std::uint64_t tcp_rst_out = 0;
    std::uint64_t csum_errors = 0;
    /// Frames a flush could not hand to the device (TX ring full): they
    /// stay staged and retry at the next flush point — backpressure, not
    /// loss.
    std::uint64_t tx_stage_deferred = 0;
    /// Frames dropped because the stage overflowed while the device made
    /// no progress at all (unreachable with the polling device model;
    /// counted apart from deferrals, which are never losses).
    std::uint64_t tx_stage_drops = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Loss-recovery accounting aggregated over every TCP PCB this stack has
  /// ever owned — live connected/embryonic PCBs, listeners, and (via the
  /// reap-time accumulator) connections already torn down. The impairment
  /// bench reads these to tie wire-level loss causes to protocol response.
  struct TcpRecoveryStats {
    std::uint64_t rexmits = 0;            // retransmitted segments (all causes)
    std::uint64_t fast_rexmits = 0;       // of those, in fast recovery
    std::uint64_t rto_expirations = 0;    // RTO fires (backoff events)
    std::uint64_t tlp_probes = 0;         // tail-loss probes (RFC 8985)
    std::uint64_t spurious_rexmit_bytes = 0;  // rx-side duplicate payload
  };
  [[nodiscard]] TcpRecoveryStats tcp_recovery_stats() const;

  /// API accounting: how well callers amortize the per-call fixed costs.
  struct ApiStats {
    std::uint64_t v1_calls = 0;          // single-element invocations
    std::uint64_t batch_calls = 0;       // batch invocations
    std::uint64_t batched_items = 0;     // elements moved through batches
    std::uint64_t validation_sweeps = 0; // check_args runs (ring: per drain)
    std::uint64_t zc_allocs = 0;
    std::uint64_t zc_sends = 0;
    std::uint64_t zc_aborts = 0;
    std::uint64_t zc_rx_loans = 0;     // loans handed out by OP_ZC_RECV
    std::uint64_t zc_rx_recycles = 0;  // loans returned via OP_RECYCLE
    std::uint64_t multishot_arms = 0;
    std::uint64_t multishot_events = 0;  // OP_EPOLL_ARM readiness CQEs
    // ---- ff_uring ----
    std::uint64_t uring_attaches = 0;
    std::uint64_t uring_doorbells = 0;  // drain kicks (a crossing each in S2)
    std::uint64_t uring_sqes = 0;       // submissions consumed
    std::uint64_t uring_cqes = 0;       // completions published
    std::uint64_t uring_sqe_errors = 0; // per-entry -EINVAL verdicts
    // ---- deferred-CQE bounding ----
    std::uint64_t cq_deferrals = 0;  // full-CQ rounds with work pending
    std::uint64_t cq_deferral_evictions = 0;  // stalled rings' arms dropped
    std::uint64_t sq_drain_throttled = 0;     // weighted-share cutoffs
  };
  [[nodiscard]] const ApiStats& api_stats() const noexcept { return api_; }
  /// Receive-path copy/loan accounting across all sockets (the RX census
  /// gates on the zero-copy path reporting zero copied bytes).
  [[nodiscard]] const RxStats& rx_stats() const noexcept { return rx_stats_; }
  /// Send-path copy/zc accounting across all sockets (the TX census gates
  /// on the TCP zc path reporting zero send-side byte copies).
  [[nodiscard]] const TxStats& tx_stats() const noexcept { return tx_stats_; }

  /// Offload capabilities negotiated against the device at construction
  /// (kOffload* bits from EthDev::offloads()). What the TX path may request
  /// via ol_flags and whether RX trusts descriptor checksum verdicts —
  /// tests assert a masked-off queue reports the bit absent here.
  [[nodiscard]] std::uint32_t negotiated_offloads() const noexcept {
    return offloads_neg_;
  }

  // ---- TcpEnv ----
  [[nodiscard]] sim::Ns tcp_now() override { return clock_->now(); }
  [[nodiscard]] std::uint32_t tcp_ts_now() override {
    return static_cast<std::uint32_t>(clock_->now().count() / 1000);
  }
  bool tcp_emit(TcpPcb& pcb, const TcpHeader& hdr, const TcpOptions& opts,
                std::size_t payload_off, std::size_t payload_len) override;
  TcpPcb* tcp_spawn_child(TcpPcb& listener, const FourTuple& tuple) override;
  void tcp_accept_ready(TcpPcb& listener, TcpPcb& child) override;
  [[nodiscard]] std::optional<MbufSlice> tcp_rx_loan(
      std::span<const std::byte> payload) override;

 private:
  // input path
  /// Map a span inside the frame currently being delivered onto its RX
  /// mbuf; nullopt when no burst mbuf is current or the span escaped it
  /// (reassembled fragments).
  [[nodiscard]] std::optional<MbufSlice> rx_slice_of(
      std::span<const std::byte> bytes) const;
  void ether_input(std::span<const std::byte> frame);
  void arp_input(std::span<const std::byte> payload);
  void ipv4_input(std::span<const std::byte> packet);
  void icmp_input(const Ipv4Header& ih, std::span<const std::byte> l4);
  void udp_input(const Ipv4Header& ih, std::span<const std::byte> l4);
  void tcp_input_seg(const Ipv4Header& ih, std::span<const std::byte> l4);
  void send_tcp_rst(const Ipv4Header& ih, const TcpHeader& th,
                    std::size_t payload_len);

  // output path. Frames are STAGED per loop turn into the per-class QoS
  // scheduler and flushed with tx_bursts of up to kTxStageCap chains
  // (flush_tx) — the driver doorbell amortizes exactly like the compartment
  // boundary, and deficit round-robin picks which classes fill each burst.
  // Every public entry point that can emit flushes before returning
  // (synchronous progress for inline callers and Scenario-2 proxies);
  // run_once flushes once per iteration for everything the datapath
  // produced. `cls` is the QoS class the frame rides (TCP: pcb.tclass();
  // UDP: the socket mirror; ARP/control: kQosClassControl).
  /// TX offload metadata threaded from the protocol layer down to the mbuf
  /// that carries the frame (head mbuf ol_flags ABI — see updk/mbuf.hpp).
  /// Null = software frame (no flags set; the device leaves it untouched).
  struct TxOffloadMeta {
    std::uint32_t ol_flags = 0;
    std::uint8_t l4_len = 0;
  };
  // `tenant` attributes any frame the call parks on an unresolved ARP hop
  // (the park pins a pool buffer, so it charges the flow's tenant budget;
  // over budget the offender's OWN frame is dropped and counted).
  bool send_ipv4(Ipv4Addr dst, std::uint8_t proto,
                 std::span<const std::byte> l4, std::uint8_t cls = 0,
                 const TxOffloadMeta* ol = nullptr, int tenant = 0);
  bool transmit_ip_packet(std::span<const std::byte> ip_packet,
                          Ipv4Addr next_hop, std::uint8_t cls = 0,
                          const TxOffloadMeta* ol = nullptr, int tenant = 0);
  /// Resolve `next_hop`, prepend the Ethernet header into the chain head's
  /// headroom and stage the frame; an unresolved hop parks the (linearized)
  /// frame on the bounded ARP queue. Owns `head` — freed on failure.
  bool transmit_ip_chain(updk::Mbuf* head, Ipv4Addr next_hop,
                         std::uint8_t cls = 0, int tenant = 0);
  bool transmit_frame(const nic::MacAddr& dst, std::uint16_t ethertype,
                      std::span<const std::byte> payload,
                      std::uint8_t cls = kQosClassControl);
  void stage_frame(updk::Mbuf* head, std::uint8_t cls = 0);
  /// Flush the QoS stage with driver bursts (DRR-ordered, token-bucket
  /// paced); returns frames handed over.
  std::size_t flush_tx();
  /// The tail flush of an emitting API call: gives inline callers (and
  /// Scenario-2 proxies) synchronous wire progress. Suppressed while a
  /// uring drain is executing the ops — the drain flushes ONCE for the
  /// whole SQE window, which is the doorbell amortization the ring exists
  /// for (the safety flush before ring writes is never suppressed).
  void sync_flush() {
    if (!in_uring_drain_) flush_tx();
  }
  /// Prepend the Ethernet header into a chain head's headroom. False (and
  /// the chain freed) when the headroom cannot take it.
  bool prepend_ether(updk::Mbuf* head, const nic::MacAddr& dst,
                     std::uint16_t ethertype);
  /// Copy a chain into one fresh single-segment mbuf (ARP parking: a
  /// parked frame may reference live ring spans that must not outlive the
  /// next ring write). Null when the pool cannot supply the buffer.
  [[nodiscard]] updk::Mbuf* linearize_chain(updk::Mbuf* head);
  void send_arp(std::uint16_t oper, const nic::MacAddr& tha, Ipv4Addr tpa);
  [[nodiscard]] Ipv4Addr next_hop_for(Ipv4Addr dst) const;

  // batch/zero-copy internals. A TCP send is tcp_sender (the fd's state),
  // admit, then tcp_enqueue; the ring drain checks in its sweep instead.
  // Zero-copy TX is ring-only (OP_ZC_ALLOC / OP_ZC_SEND / OP_ZC_ABORT; its
  // contract is in api.hpp): the drain is the only caller of these three.
  int sock_zc_alloc(std::size_t len, FfZcBuf* out);
  std::int64_t sock_zc_send(int fd, std::uint64_t token, std::size_t len);
  int sock_zc_abort(std::uint64_t token);
  std::int64_t writev_impl(int fd, std::span<const FfIovec> iov);
  std::int64_t tcp_sender(int fd, TcpPcb*& pcb);
  std::int64_t tcp_enqueue(TcpPcb& pcb, std::span<const FfIovec> iov);
  std::int64_t readv_impl(int fd, std::span<const FfIovec> iov);
  /// check_args through the active door (TenantScope).
  std::int64_t admit(Op op, std::span<const FfIovec> args) {
    api_.validation_sweeps++;
    return check_args(door_, op, args);
  }
  /// Register a loan in the token table and hand out the bounded read-only
  /// view (shared by the TCP and UDP arms of OP_ZC_RECV, so
  /// the accounting cannot diverge).
  void zc_issue_loan(FfZcRxBuf& o, const MbufSlice& slice, std::size_t charge,
                     const FfSockAddrIn& from, TcpPcb* pcb, UdpPcb* udp,
                     int tenant);
  /// The tenant an operation on socket `s` charges: the socket's own
  /// tenant, or — for untenanted sockets driven through a tenant-bound
  /// ring or a tenant app's entry — the active TenantScope's tenant.
  [[nodiscard]] int effective_tenant(const Socket* s) const noexcept {
    return s != nullptr && s->tenant != 0 ? s->tenant : active_tenant_;
  }
  /// True when an object owned by `tenant` belongs to a neighbour of the
  /// active TenantScope: both ids are set and they differ. Untenanted
  /// objects and untenanted callers see everything.
  [[nodiscard]] bool foreign_tenant(int tenant) const noexcept {
    return active_tenant_ != 0 && tenant != 0 && tenant != active_tenant_;
  }
  /// The one fd lookup of the entry points (sock_*, epoll_ctl/_wait and the
  /// ring's fd-taking ops): a neighbour's fd reads as no fd at all, so the
  /// caller answers -EBADF. Internal walks keep socks_.get.
  [[nodiscard]] Socket* scoped_sock(int fd) {
    ++fd_lookups_;
    Socket* s = socks_.get(fd);
    return s != nullptr && foreign_tenant(s->tenant) ? nullptr : s;
  }
  /// Credit the tenant an ARP-parked frame was charged to (expiry, flush,
  /// eviction, teardown all funnel here before releasing the mbuf).
  void credit_parked_frame(updk::Mbuf* m) {
    auto it = parked_tenant_.find(m);
    if (it == parked_tenant_.end()) return;
    tenants_.credit_parked(it->second);
    parked_tenant_.erase(it);
  }
  /// Pop one queued UDP datagram as a loan into `o`. Returns 1, -EAGAIN
  /// (queue empty), -EMSGSIZE (copy-backed datagram can never bounce into
  /// a data room — drain it with the copy path), or -ENOBUFS (bounce pool
  /// empty; retriable after recycling). Failed bounces leave the datagram
  /// queued.
  std::int64_t udp_pop_loan(Socket* s, FfZcRxBuf& o);
  std::int64_t udp_emit_dgram(Socket* s, const machine::CapView& buf,
                              std::size_t n, Ipv4Addr ip, std::uint16_t port);

  // ff_uring internals: one registration per attached ring. References
  // into `urings_` stay valid across insertions (std::map), which the
  // epoll CQ sinks rely on.
  struct UringReg {
    machine::CapView mem;
    std::uint32_t sq_cap = 0;
    std::uint32_t cq_cap = 0;
    struct AcceptArm {
      int fd = -1;
      std::uint64_t user_data = 0;
    };
    std::vector<AcceptArm> accept_arms;  // OP_ACCEPT_MULTISHOT listeners
    /// OP_EPOLL_ARM arms whose readiness sinks into this ring. Every armed
    /// EpollInstance sits in exactly one ring's list, so the per-iteration
    /// publication walks these lists, not the socket table.
    struct EpollArm {
      int epfd = -1;
      std::uint64_t user_data = 0;
    };
    std::vector<EpollArm> epoll_arms;
    /// Arms that ended while the CQ was full: their final -ECANCELED CQE
    /// (user_data each) posts before the next readiness publication.
    std::vector<std::uint64_t> ended_arms;
    /// OP_CONNECT submissions in flight: the CQE posts when the handshake
    /// resolves (0 on ESTABLISHED, -errno on refusal/timeout).
    struct ConnectArm {
      int fd = -1;
      std::uint64_t user_data = 0;
    };
    std::vector<ConnectArm> connect_arms;
    /// Owning tenant (0 = untenanted): drain weight, charging context for
    /// the ops this ring submits, and the CQ-stall accounting below.
    int tenant = 0;
    /// Consecutive drain passes this ring sat with a FULL, unreaped CQ
    /// while work was pending. Reset the moment the CQ has space again;
    /// crossing the tenant's max_cq_stall_rounds evicts the ring's
    /// re-derivable subscription state (multishot accept arms).
    std::uint32_t cq_stall_rounds = 0;
  };
  /// Drain every attached ring under ONE fair-shared per-iteration budget:
  /// the 64-SQE allowance splits evenly across rings and unused shares
  /// redistribute, so a heavy ring can no longer starve a light one within
  /// an iteration.
  bool drain_urings();
  /// Consume up to `budget` SQEs from one ring (decode + one validation
  /// sweep + execute). Returns SQEs consumed.
  std::uint32_t uring_drain_sqes(UringReg& r, std::uint32_t budget);
  /// Publish one CQE; false (and the ring's overflow word bumped) when the
  /// CQ is full — the caller defers, never drops.
  bool uring_cq_emit(UringReg& r, std::uint64_t user_data,
                     std::int64_t result, UringOp op, std::uint32_t flags,
                     std::uint64_t aux0, std::uint64_t aux1,
                     const machine::CapView* cap);
  [[nodiscard]] std::uint32_t uring_cq_space(const UringReg& r) const;
  /// SQEs currently pending in one ring's submission queue.
  [[nodiscard]] std::uint32_t uring_sq_pending(const UringReg& r) const;
  /// Deferred-CQE bounding: true when `r`'s CQ is full while work is
  /// pending — the caller must skip this ring's drain (backpressure
  /// confined to the one ring). Counts the deferral, advances the stall
  /// round, and past the tenant's max_cq_stall_rounds evicts the ring's
  /// re-derivable multishot arms (counted as cq_deferral_evictions).
  bool uring_cq_stalled(UringReg& r);
  /// Count one per-entry SQE verdict against the ring's tenant.
  void note_sqe_error(const UringReg& r);
  bool uring_service_accept(UringReg& r);
  /// Post CQEs for OP_CONNECT handshakes that resolved since submission.
  bool uring_service_connect(UringReg& r);
  /// Drop fd from every ring's connect arms (socket closed or errored).
  void uring_forget_fd(int fd);
  /// End `epfd`'s arm on every ring but `keep` (the epfd closed, or was
  /// re-armed onto `keep`): the ring that loses it gets a final CQE without
  /// kCqeMore, result -ECANCELED (io_uring's multishot discipline), and a
  /// later detach of that ring cannot disarm the new owner's delivery.
  void uring_end_epoll_arm(int epfd, const UringReg* keep);
  /// Post the final CQEs of `r.ended_arms` while the CQ has room.
  void uring_post_arm_ends(UringReg& r);

  // housekeeping
  void process_timers(sim::Ns now, bool& progress);
  /// Reconcile one PCB's earliest deadline with its (single) wheel entry:
  /// cancel + re-arm only when the deadline actually changed. Called after
  /// every PCB-mutating operation — input, output, app calls, timer fires —
  /// so the wheel is the one source of truth for FfStack::next_deadline().
  void timer_sync(TcpPcb* pcb);
  /// Same reconciliation for the ARP pending-TTL deadline (one wheel entry
  /// with the reserved cookie 0).
  void arp_timer_sync();
  void reap_closed();
  /// Fold a dying PCB's recovery counters into the reaped accumulator so
  /// tcp_recovery_stats() keeps counting across connection churn.
  void accumulate_reaped(const TcpPcb& pcb);
  /// The loop's publication pass. `progress`: the iteration changed stack
  /// state.
  void publish_multishot(bool progress);
  /// Monotonic readiness-activity counter (bytes delivered / connections
  /// queued, plus bytes acknowledged when the `ready` mask holds
  /// kEpollOut): the generation publish_ready keys on.
  [[nodiscard]] std::uint64_t sock_activity(int fd, std::uint32_t ready) const;
  /// {ready mask under `events`, activity generation}: the probe every
  /// publication asks, so the masking/generation keying cannot diverge.
  [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> edge_probe(
      int fd, std::uint32_t events) const;
  /// Publish current readiness of every interest-set fd through `ep`'s
  /// armed sink (arm-time, per-iteration and ff_epoll_wait publication).
  void publish_ready(EpollInstance& ep);
  /// Publish `fd`'s readiness through every armed interest set that
  /// watches it, before the loop's next pass would.
  void publish_fd(int fd);
  // With a known peer (connect), only ports whose reply-direction RSS hash
  // steers back to this shard's RX queue qualify — a flow's whole lifetime
  // stays on one shard. Peer-less allocation (bind) takes any free port.
  [[nodiscard]] std::uint16_t alloc_ephemeral_port(
      Ipv4Addr peer_ip = Ipv4Addr{}, std::uint16_t peer_port = 0);
  /// Local-port reference counting for connected PCBs (several PCBs may
  /// share a local port toward different remotes): keeps ephemeral-port
  /// allocation O(1) instead of scanning every PCB per candidate.
  void port_ref(std::uint16_t p);
  void port_unref(std::uint16_t p);
  [[nodiscard]] std::uint32_t new_iss();
  TcpPcb* make_pcb();

  StackConfig cfg_;
  updk::EthDev* dev_;
  updk::Mempool* pool_;
  machine::CompartmentHeap* heap_;
  sim::VirtualClock* clock_;

  SocketTable socks_;
  std::unordered_map<FourTuple, std::unique_ptr<TcpPcb>, FourTupleHash>
      tcp_pcbs_;
  std::unordered_map<std::uint16_t, std::unique_ptr<TcpPcb>> tcp_listeners_;
  std::unordered_map<std::uint16_t, UdpPcb*> udp_binds_;  // port -> pcb

  ArpCache arp_;
  // Hierarchical timing wheel: every armed PCB deadline (and the ARP
  // pending TTL) registers here; a loop turn expires only DUE timers.
  TimerWheel wheel_;
  TimerWheel::Id arp_wheel_id_ = TimerWheel::kInvalidId;
  std::optional<sim::Ns> arp_wheel_deadline_;
  FragReassembler reasm_;
  PingTracker pings_;
  Stats stats_;
  // Per-turn TX staging: emitted frames collect in the per-class QoS
  // scheduler and leave through DRR-ordered tx_bursts per flush (end of
  // run_once / end of each emitting API call). kTxStageCap is the burst
  // width handed to the driver per tx_burst call.
  static constexpr std::size_t kTxStageCap = 32;
  QosScheduler qos_;
  // Counters of TCP PCBs already reaped (reap_closed / listener teardown):
  // tcp_recovery_stats() folds these in so churn does not lose history.
  TcpPcb::Counters reaped_counters_{};
  // Connected-PCB local ports in use (port -> PCB count): O(1) ephemeral
  // allocation however many thousand connections are live.
  std::unordered_map<std::uint16_t, std::uint32_t> tcp_ports_;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint16_t ip_id_ = 1;
  std::uint64_t iss_state_;
  // PCBs whose socket was closed; reaped once the protocol reaches CLOSED.
  std::unordered_set<TcpPcb*> detached_;
  // Deferred-output mode: PCBs with freshly queued app data.
  std::unordered_set<TcpPcb*> pending_output_;
  // PCBs with an armed GRO ack-flush deadline (TcpConfig::ack_flush_timeout).
  // A side list, not a wheel entry: the wheel's ~0.5 ms tick ceiling would
  // erase a µs-scale flush bound. Only actively-receiving PCBs appear here,
  // so the per-turn sweep is O(receivers with an ACK owed), not O(PCBs).
  std::vector<TcpPcb*> ack_flush_;

  // Outstanding zero-copy TX reservations (token -> owned mbuf + the
  // tenant whose budget the pinned room is charged to).
  struct ZcTxRes {
    updk::Mbuf* m = nullptr;
    int tenant = 0;
  };
  std::unordered_map<std::uint64_t, ZcTxRes> zc_pending_;
  std::uint64_t next_zc_token_ = 1;
  // Retire reservation `it` (sent, aborted or dead): its tenant gets the
  // budget back. The mbuf is the caller's to free or hand to a send chain.
  void end_zc_reservation(
      std::unordered_map<std::uint64_t, ZcTxRes>::iterator it);

  // Outstanding zero-copy RX loans. `pcb`/`udp` point at the budget to
  // credit on recycle and are nulled if the owning connection/socket dies
  // while the loan is out; recycling is then a pure pool return.
  struct ZcRxLoan {
    updk::Mbuf* m = nullptr;
    TcpPcb* pcb = nullptr;  // TCP: receive window to credit
    UdpPcb* udp = nullptr;  // UDP: queue budget to credit
    std::uint32_t charge = 0;  // pinned-memory charge held until recycle
    int tenant = 0;            // tenant budget the pinned room counts against
  };
  std::unordered_map<std::uint64_t, ZcRxLoan> zc_rx_loans_;
  std::uint64_t next_zc_rx_token_ = 1;

  // Attached ff_uring rings (id -> registration), drained every iteration.
  std::map<int, UringReg> urings_;
  int next_uring_id_ = 1;
  // Last park state published into the ring headers: the polling word is
  // rewritten only on the parked->polling transition, not every iteration.
  bool urings_parked_ = false;
  // True while a uring drain executes SQEs: per-op tail flushes defer to
  // the drain's one end-of-window flush (see sync_flush).
  bool in_uring_drain_ = false;
  // Readiness changes only where the loop progresses or an entry point
  // looks an fd up (scoped_sock): a publication pass with neither since
  // the last one has nothing new to say, unless a full CQ deferred an edge.
  std::uint64_t fd_lookups_ = 0;
  std::uint64_t published_lookups_ = 0;

  // ---- tenants ----
  TenantTable tenants_;
  // The tenant of the innermost TenantScope (a ring drain or a proxied
  // entry; 0 outside them): ops on untenanted sockets adopt it as their
  // charging context, and token-table lookups reject cross-tenant tokens
  // against it.
  int active_tenant_ = 0;
  // The door of the innermost TenantScope: how check_args answers.
  Door door_ = Door::kCall;
  // ARP-parked frame -> charged tenant (eviction and expiry credit it).
  std::unordered_map<updk::Mbuf*, int> parked_tenant_;

  // The RX-burst mbuf whose frame is currently being parsed (loan source).
  updk::Mbuf* rx_cur_ = nullptr;
  const std::byte* rx_cur_base_ = nullptr;  // scratch copy of its payload
  std::size_t rx_cur_len_ = 0;
  // The current frame's checksum verdict flags (kRxCsum* from the driver's
  // descriptor translation). Reassembly clears the L4 bits: a verdict
  // covers ONE wire frame, never a recomposed datagram.
  std::uint32_t rx_cur_ol_ = 0;

  // Offload negotiation (read once from dev_->offloads() at construction).
  std::uint32_t offloads_neg_ = 0;
  bool tx_tcp_csum_ = false;  // device inserts TCP checksums
  bool tx_udp_csum_ = false;  // device inserts UDP checksums
  bool tso_ = false;          // device slices TCP super-segments

  RxStats rx_stats_;
  TxStats tx_stats_;
  ApiStats api_;
};

}  // namespace cherinet::fstack
