// Experiment harness: builds the full emulated testbed (Morello node +
// dual-port 82576 + wires + peer hosts) and runs the paper's evaluation
// configurations end to end. Each bench binary is a thin printer over
// run_bandwidth() (Table II), run_ffwrite_latency() (Figures 4-6) and
// run_census() (the Fig. 4/5 crossing census). All of them, the Scenario 3
// fleet and the Scenario 2 proxy and shard tests run on the public
// single-threaded LockstepRig, so their counts, goodputs and virtual-time
// series replay identically whatever the host load. On the rig the stack
// mutex is never contended; real futex contention between threads is timed
// by bench/ablation_locking.cpp.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/ff_ops.hpp"
#include "intravisor/compartment_mutex.hpp"
#include "intravisor/intravisor.hpp"
#include "nic/e82576.hpp"
#include "nic/shared_bus.hpp"
#include "nic/wire.hpp"
#include "scenarios/peer.hpp"
#include "scenarios/stack_instance.hpp"
#include "sim/testbed.hpp"
#include "updk/ethdev.hpp"

namespace cherinet::scen {

/// The five configurations of the paper's Table II / Figures 4-6.
enum class ScenarioKind : std::uint8_t {
  kBaseline2Proc,         // two MMU processes, one port each (vs Scenario 1)
  kScenario1,             // full stack replicated into cVM1/cVM2
  kBaseline1Proc,         // single process, single port (vs Scenario 2)
  kScenario2Uncontended,  // app cVM2 + network cVM1
  kScenario2Contended,    // app cVM2 + cVM3 + network cVM1
};
[[nodiscard]] const char* to_string(ScenarioKind k) noexcept;

/// Table II columns: "Server" = the Morello node receives, "Client" = sends.
enum class Direction : std::uint8_t { kMorelloReceives, kMorelloSends };
[[nodiscard]] const char* to_string(Direction d) noexcept;

struct TestbedOptions {
  sim::Testbed phys = sim::Testbed::morello_82576();
  sim::CostModel cost = sim::CostModel::morello();
  bool inline_tcp_output = true;
  std::uint16_t mss = 1448;
  /// Morello-side TCP send buffer. Sized ABOVE the peer's receive window
  /// (BDP-style) so a window-opening ACK always finds a queued backlog to
  /// emit in one staged burst — emission is ACK-clocked, not app-refill-
  /// clocked.
  std::size_t sndbuf_bytes = 512 * 1024;
  /// Scenario 2 sharding: number of independent FfStack shards inside cVM1,
  /// each with its own mempool, PCB table, ARP cache, timer wheel, uring
  /// drain set — and its own coordination mutex. 1 = the classic
  /// single-stack service. App cVM j pins to shard j % s2_shards.
  std::uint32_t s2_shards = 1;
  /// true: all shards share port 0 through RSS multi-queue steering (one
  /// queue per shard, flows steered by Toeplitz hash / L4 filter). false:
  /// shard j owns port j outright (dual-port scale-out; at most 2 shards).
  bool s2_shards_same_port = false;
  /// Device offloads requested at eth attach, for BOTH the Morello side and
  /// the peers (updk::kOffload* bits). The default negotiates TX checksum
  /// insertion and RX checksum verdicts; pass 0 for the pure software
  /// control leg and | updk::kOffloadTxTso for the super-segment TSO legs.
  std::uint32_t offloads = updk::kOffloadDefault;
  /// Wire hostility applied to BOTH directions of every wire (see
  /// nic/impairment.hpp). Default-constructed = clean wire. The lossy-wire
  /// fig5 leg uses this to check the RX verdict path against the wire's own
  /// corruption census.
  nic::ImpairmentProfile impair;
};

/// The emulated hardware + OS fixture shared by all scenarios.
class MorelloTestbed {
 public:
  MorelloTestbed() : MorelloTestbed(TestbedOptions{}) {}
  explicit MorelloTestbed(TestbedOptions opt);

  [[nodiscard]] sim::VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] iv::Intravisor& intravisor() noexcept { return *iv_; }
  [[nodiscard]] nic::E82576Device& card() noexcept { return *card_; }
  [[nodiscard]] nic::Wire& wire(int i) { return *wires_.at(i); }
  [[nodiscard]] const TestbedOptions& options() const noexcept { return opt_; }

  /// Create the peer host on the far side of wire `i` (idempotent).
  PeerHost& make_peer(int i);
  [[nodiscard]] PeerHost& peer(int i) { return *peers_.at(i); }

  [[nodiscard]] static fstack::Ipv4Addr morello_ip(int port) noexcept {
    return fstack::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(port), 1);
  }
  [[nodiscard]] static fstack::Ipv4Addr peer_ip(int port) noexcept {
    return fstack::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(port), 2);
  }
  [[nodiscard]] InstanceConfig morello_cfg(int port) const;
  [[nodiscard]] InstanceConfig peer_cfg(int port) const;

 private:
  TestbedOptions opt_;
  sim::VirtualClock clock_;
  std::unique_ptr<iv::Intravisor> iv_;
  std::unique_ptr<nic::SharedBus> bus_;
  std::unique_ptr<nic::E82576Device> card_;
  std::array<std::unique_ptr<nic::Wire>, 2> wires_;
  std::array<std::unique_ptr<PeerHost>, 2> peers_;
};

// ---------------------------------------------------------------------------
// Table II: TCP bandwidth
// ---------------------------------------------------------------------------

struct EndpointResult {
  std::string label;     // e.g. "cVM1", "Baseline (cVM2)"
  std::uint64_t bytes = 0;
  double mbps = 0.0;

  bool operator==(const EndpointResult&) const = default;
};

struct BandwidthOutcome {
  ScenarioKind kind{};
  Direction dir{};
  std::vector<EndpointResult> endpoints;
  /// Driver-doorbell amortization on the Morello side, aggregated over its
  /// stack instances: opackets / tx_bursts is the frames-per-tx_burst
  /// figure the table2 bench gates on (>= 8 under sustained send load).
  struct TxBurstCensus {
    std::uint64_t frames = 0;  // frames handed to the device (opackets)
    std::uint64_t bursts = 0;  // tx_burst calls that carried frames
    std::uint64_t segs = 0;    // descriptors consumed (chain segments +
                               // context descriptors)
    std::uint64_t bytes = 0;   // frame bytes those descriptors emitted
    /// TSO census: super-segment chains handed down for device slicing and
    /// the payload bytes they carried (the table2 ablation row gates
    /// descriptors-per-byte against an offload-off control on these).
    std::uint64_t tso_frames = 0;
    std::uint64_t tso_bytes = 0;
    [[nodiscard]] double frames_per_burst() const noexcept {
      return bursts > 0 ? static_cast<double>(frames) /
                              static_cast<double>(bursts)
                        : 0.0;
    }

    bool operator==(const TxBurstCensus&) const = default;
  };
  TxBurstCensus morello_tx;
  /// Scenario 2 only: the per-shard goodput and mutex census. Each entry
  /// counts ONLY its own shard's mutex, which is what the sharded table2
  /// legs gate on. The lockstep rig is one thread, so every acquisition is
  /// a fast path; real futex contention is timed by
  /// bench/ablation_locking.cpp.
  struct ShardCensus {
    double mbps = 0.0;  // goodput of the stream(s) pinned to this shard
    std::uint64_t mutex_fast = 0;
    std::uint64_t mutex_contended = 0;
    std::uint64_t proxied_calls = 0;

    bool operator==(const ShardCensus&) const = default;
  };
  std::vector<ShardCensus> shards;

  bool operator==(const BandwidthOutcome&) const = default;
};

/// Run one Table II cell: `bytes_per_stream` of TCP payload per endpoint,
/// on the caller's thread in virtual-time lockstep (the same rig as
/// run_census), so the outcome is a pure function of the inputs.
[[nodiscard]] BandwidthOutcome run_bandwidth(
    ScenarioKind kind, Direction dir, std::uint64_t bytes_per_stream,
    const TestbedOptions& opt = TestbedOptions{});

// ---------------------------------------------------------------------------
// Figures 4-6: ff_write() execution time
// ---------------------------------------------------------------------------

struct LatencySeries {
  std::string label;
  /// Per successful write, the host wall-clock time of the call itself,
  /// read through the endpoint's own libc clock_gettime (so a cVM's
  /// trampolined clock read is inside the window, as in §IV).
  std::vector<double> samples_ns;
  /// Per successful write, the VIRTUAL-clock span from the first attempt to
  /// the attempt that succeeded. The rig advances virtual time only when
  /// nothing progressed, paced by the simulated port drain, so this series
  /// measures how long the write was held back by flow control and the
  /// sibling's traffic in simulated time — a pure function of the inputs.
  std::vector<double> virtual_ns;
};

struct LatencyOutcome {
  ScenarioKind kind{};
  std::vector<LatencySeries> series;
  /// Scenario 2 only: the shared stack-mutex acquisition census. A
  /// CONTENDED acquisition is one that found the word taken and escalated
  /// to the futex. The rig takes turns on one thread, so every acquisition
  /// is a fast path and mutex_contended is 0: pricing the futex escalation
  /// in virtual time is not modeled.
  std::uint64_t mutex_fast = 0;
  std::uint64_t mutex_contended = 0;
};

/// Measure `iterations` successful ff_write() calls of `write_size` bytes
/// per endpoint, timed with clock_gettime(CLOCK_MONOTONIC_RAW) through the
/// scenario's own syscall path (direct vs trampolined), as in §IV. Runs on
/// the LockstepRig: each turn every unfinished endpoint issues one measured
/// call inside its compartment. The uncontended Scenario 2 writer is paced
/// 20 us apart, as the paper did; the pace is its due time in the rig's
/// earliest-deadline choice. `batch` > 1 issues each measured call as
/// ff_writev of `batch` write_size-sized iovecs — the Fig. 6 sweep's knob:
/// with proxied_calls_ counting batches, batch size scales bytes moved per
/// mutex acquisition.
[[nodiscard]] LatencyOutcome run_ffwrite_latency(
    ScenarioKind kind, std::size_t iterations, std::size_t write_size = 1448,
    const TestbedOptions& opt = TestbedOptions{}, std::size_t batch = 1);

// ---------------------------------------------------------------------------
// Crossing census (the Fig. 4/5 cost split): how many compartment crossings
// does it take to move a byte volume through each API generation? One rig
// runs every leg on the caller's thread in virtual-time lockstep — the app
// body, the stack's main loop and the peer take turns, and the clock only
// advances to the earliest deadline once nobody progresses — so the counts
// are a pure function of the inputs, whatever the host load.
// ---------------------------------------------------------------------------

/// The census legs. Four bodies (classic TX/RX, ring TX/RX); the TX ones
/// are shared by their copy and zero-copy variants. Zero-copy RX has one
/// door, the ring.
enum class CensusLeg : std::uint8_t {
  kWrite,       // TX v1: one EPOLLOUT-gated ff_write per MSS
  kWritev,      // TX v2: ff_writev of kCensusBatch MSS iovecs per call
  kRead,        // RX v1: epoll_wait-gated ff_read per MSS, bytes copied out
  kRingWritev,  // TX v3: OP_WRITEV SQEs of 8 exactly-bounded iovec caps
  kRingZcSend,  // TX v3 zero copy: OP_ZC_ALLOC grants writable data rooms,
                //   the payload is composed in place, OP_ZC_SEND queues
                //   retained references held until cumulative ACK
  kRingZcRecv,  // RX v3: OP_ACCEPT_MULTISHOT + OP_EPOLL_ARM + OP_ZC_RECV +
                //   OP_RECYCLE, doorbells only when the stack parked — zero
                //   receive-side copies
};

/// iovecs per kWritev call.
inline constexpr std::size_t kCensusBatch = 32;

struct Census {
  std::uint64_t bytes = 0;      // payload queued (TX) or delivered (RX)
  std::uint64_t api_calls = 0;  // measured classic envelopes (0 on rings)
  /// Compartment crossings inside the measured envelopes: the
  /// clock_gettime trampolines of the Fig. 4 methodology around each
  /// classic call, the sealed-entry ff_* jumps (Scenario 2), and on ring
  /// legs everything from the arming crossing on (arm, doorbells, the one
  /// accept-time epoll_ctl). Readiness gating and connection setup sit
  /// outside the envelopes.
  std::uint64_t crossings = 0;
  /// Those crossings priced by the Morello-calibrated CostModel per MiB.
  double modeled_ns_per_mib = 0.0;
  // ---- ring legs ----
  std::uint64_t sqes = 0;
  std::uint64_t cqes = 0;
  std::uint64_t doorbells = 0;  // doorbell crossings the app chose to make
  // ---- stack census, sampled when the leg ends ----
  std::uint64_t rx_copied_bytes = 0;  // receive-side copies (zc gate: 0)
  std::uint64_t zc_loans = 0;         // RX loans handed out
  std::uint64_t zc_recycles = 0;      // RX loans returned
  std::uint64_t tx_copied_bytes = 0;  // send-side copies (zc TX gate: 0)
  std::uint64_t tx_zc_bytes = 0;      // bytes queued as retained mbuf refs
  /// Payload bytes emission read back (scatter-gather gate: 0).
  std::uint64_t tx_emit_payload_reads = 0;
  /// Payload bytes the stack software-checksummed on TX (offload gate: 0).
  std::uint64_t stack_checksum_bytes = 0;
  /// Lossy-wire accounting: Morello-port FCS rejects, the wire's own
  /// peer-egress corruption census, and frames the stack dropped on a
  /// checksum verdict. Bit flips must die at FCS or at the verdict check.
  std::uint64_t rx_crc_errors = 0;
  std::uint64_t wire_corrupts = 0;
  std::uint64_t stack_csum_drops = 0;
  std::uint64_t virtual_ns = 0;  // virtual time the whole leg took

  bool operator==(const Census&) const = default;
};

/// Run one census leg: move `total_bytes` of MSS-sized TCP payload through
/// one endpoint of `kind` (kScenario1 or kScenario2Uncontended; other kinds
/// return an empty Census). TX legs send to the peer's discard sink with a
/// send buffer that holds the whole volume, so the comparison prices the
/// per-call fixed costs, not backpressure; RX legs receive from the peer's
/// iperf client.
[[nodiscard]] Census run_census(ScenarioKind kind, CensusLeg leg,
                                std::uint64_t total_bytes,
                                const TestbedOptions& opt = TestbedOptions{});

// ---------------------------------------------------------------------------
// The lockstep rig
// ---------------------------------------------------------------------------

class BaselineProcess;
class Scenario1Cvm;
class Scenario2Service;

/// The Morello node's stacks, its app compartments and the peer hosts, all
/// pumped from the caller's thread in virtual-time lockstep. The stacks are
/// one BaselineProcess or Scenario1Cvm per port (endpoint j's app shares
/// stack j's process or cVM), or the cVM1 shards of a Scenario2Service,
/// each under its own shard mutex, with one app cVM per endpoint pinned to
/// shard j % shards. App code runs inside its compartment through run();
/// turn() runs every stack's main loop inside its own compartment, then
/// every peer, and when nobody progressed advances the clock to the
/// earliest deadline. No threads: a run is a pure function of its inputs.
class LockstepRig {
 public:
  /// `volume_bytes` sizes the virtual-time termination guard (see turn()).
  LockstepRig(ScenarioKind kind, int endpoints, std::uint64_t volume_bytes,
              const TestbedOptions& opt);
  ~LockstepRig();

  [[nodiscard]] MorelloTestbed& testbed() noexcept { return tb_; }
  [[nodiscard]] sim::Ns now() noexcept { return tb_.clock().now(); }
  [[nodiscard]] apps::FfOps& ops(int j = 0) { return *eps_.at(j).ops; }
  [[nodiscard]] machine::CapView alloc(std::size_t n, int j = 0) {
    return eps_.at(j).heap->alloc_view(n);
  }
  [[nodiscard]] const std::string& label(int j) const {
    return eps_.at(j).label;
  }
  /// Endpoint j's libc: its cVM's (trampolined) or its process's (direct).
  [[nodiscard]] iv::MuslLibc& libc(int j) { return *eps_.at(j).libc; }
  /// The stack (Scenario 2: the shard) endpoint j's calls land on, and the
  /// port that stack serves.
  [[nodiscard]] std::size_t stack_of(int j) const { return eps_.at(j).stack; }
  [[nodiscard]] int port_of(int j) const { return stacks_[stack_of(j)].port; }
  /// Scenario 2 only (nullptr otherwise).
  [[nodiscard]] Scenario2Service* service() noexcept { return svc_.get(); }

  /// Scenario 2 only: one more app cVM named `label`, pinned like the
  /// constructor's endpoints, whose proxy binds every socket and ring it
  /// creates to tenant `tid`. Returns its endpoint index.
  int add_app(std::string label, int tid = 0);

  /// Run `f` as endpoint j's application code: inside its cVM, or plainly
  /// for a Baseline process.
  template <typename F>
  decltype(auto) run(int j, F&& f) {
    iv::CVM* cvm = eps_.at(j).cvm;
    return cvm != nullptr ? cvm->enter(std::forward<F>(f))
                          : std::forward<F>(f)();
  }

  /// End one app iteration: run every stack, then every peer. The app
  /// progress must be true only when bytes, an fd or a loan moved: a
  /// bounced call that reported progress would re-run at the same instant
  /// forever. `app_due` is the earliest instant an app that is waiting on
  /// its own schedule wants to run again; when nobody progressed the clock
  /// advances no further than that. Returns false once a termination guard
  /// fired.
  bool turn(bool app_progress,
            std::optional<sim::Ns> app_due = std::nullopt);

  /// Driver-doorbell census summed over the Morello stacks.
  [[nodiscard]] BandwidthOutcome::TxBurstCensus tx_census() const;

  // ---- crossing census (endpoint 0; Scenario 1 or 2, so it has a cVM) ----

  /// Crossing counters at one instant: sealed-entry jumps (Scenario 2's
  /// proxied ff_* calls) and the app cVM's trampoline syscalls.
  struct Marks {
    std::uint64_t entry = 0;
    std::uint64_t tramp = 0;
  };
  [[nodiscard]] Marks mark();
  /// Attribute the crossings since `m` to the measured envelope.
  void charge(const Marks& m);
  /// One classic call inside the Fig. 4 measurement envelope: in a cVM the
  /// two clock_gettime reads trampoline, and they are part of what a
  /// measured call costs the application.
  template <typename F>
  std::int64_t measured(F&& call) {
    const Marks m = mark();
    (void)eps_[0].libc->clock_gettime_mono_raw_ns();
    const std::int64_t r = std::forward<F>(call)();
    (void)eps_[0].libc->clock_gettime_mono_raw_ns();
    charge(m);
    return r;
  }
  /// Price the attributed crossings and sample the stack/wire census.
  void finish(std::uint64_t total_bytes, Census& out);

 private:
  struct Stack {
    FullStackInstance* inst;
    iv::CVM* cvm;                  // its loop's compartment (null: Baseline)
    iv::CompartmentMutex* mutex;   // its cVM1 shard mutex (Scenario 2)
    int port;

    template <typename F>
    decltype(auto) run(F&& f) {
      std::optional<iv::CompartmentLockGuard> lk;
      if (mutex != nullptr) lk.emplace(*mutex);
      return cvm != nullptr ? cvm->enter(std::forward<F>(f))
                            : std::forward<F>(f)();
    }
  };
  struct Endpoint {
    std::string label;
    iv::CVM* cvm = nullptr;  // the app's compartment (null: Baseline)
    iv::MuslLibc* libc = nullptr;
    apps::FfOps* ops = nullptr;
    machine::CompartmentHeap* heap = nullptr;
    std::size_t stack = 0;
  };

  void build_per_port(bool cheri, int endpoints);
  void build_scenario2(int endpoints, const TestbedOptions& opt);
  void idle(std::optional<sim::Ns> app_due);

  MorelloTestbed tb_;
  std::vector<std::unique_ptr<BaselineProcess>> bp_;
  std::vector<std::unique_ptr<Scenario1Cvm>> s1_;
  iv::CVM* cvm1_ = nullptr;
  std::vector<std::unique_ptr<FullStackInstance>> shards_;
  std::unique_ptr<Scenario2Service> svc_;
  std::vector<std::unique_ptr<apps::FfOps>> proxies_;
  std::vector<Stack> stacks_;
  std::vector<Endpoint> eps_;
  std::vector<PeerHost*> peers_;
  sim::Ns time_limit_;
  sim::Ns start_{0};
  sim::Ns instant_{0};
  std::uint64_t same_instant_turns_ = 0;
  std::uint64_t entry_x_ = 0;
  std::uint64_t tramp_x_ = 0;
};

}  // namespace cherinet::scen
