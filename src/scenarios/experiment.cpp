#include "scenarios/experiment.hpp"

#include <limits>
#include <optional>

#include "scenarios/baseline.hpp"
#include "scenarios/scenario1.hpp"
#include "scenarios/scenario2.hpp"

namespace cherinet::scen {

namespace {
constexpr std::uint16_t kIperfPort = 5201;
constexpr sim::Ns kHeartbeat{500'000};  // 0.5 ms virtual idle heartbeat

/// Endpoints of a Table II / Fig. 4-6 configuration: one stream per port
/// for the dual-port kinds, one per app cVM for contended Scenario 2.
int endpoint_count(ScenarioKind kind) {
  return kind == ScenarioKind::kBaseline1Proc ||
                 kind == ScenarioKind::kScenario2Uncontended
             ? 1
             : 2;
}
}  // namespace

const char* to_string(ScenarioKind k) noexcept {
  switch (k) {
    case ScenarioKind::kBaseline2Proc: return "Baseline (two processes)";
    case ScenarioKind::kScenario1: return "Scenario 1";
    case ScenarioKind::kBaseline1Proc: return "Baseline (single process)";
    case ScenarioKind::kScenario2Uncontended: return "Scenario 2 (uncontended)";
    case ScenarioKind::kScenario2Contended: return "Scenario 2 (contended)";
  }
  return "?";
}

const char* to_string(Direction d) noexcept {
  return d == Direction::kMorelloReceives ? "Server" : "Client";
}

// ===========================================================================
// MorelloTestbed
// ===========================================================================

MorelloTestbed::MorelloTestbed(TestbedOptions opt) : opt_(opt) {
  // The emulated Morello board's address space: every compartment heap and
  // both peers' heaps are carved from it.
  constexpr std::size_t kMemoryBytes = 448u << 20;
  iv::Intravisor::Config cfg;
  cfg.memory_bytes = kMemoryBytes;
  cfg.cost = opt_.cost;
  cfg.vclock = &clock_;
  iv_ = std::make_unique<iv::Intravisor>(cfg);
  bus_ = std::make_unique<nic::SharedBus>(opt_.phys.bus_rx_bits_per_sec,
                                          opt_.phys.bus_tx_bits_per_sec);
  card_ = std::make_unique<nic::E82576Device>(
      &iv_->address_space().mem(), &clock_,
      std::array<nic::MacAddr, 2>{nic::MacAddr::local(1),
                                  nic::MacAddr::local(2)});
  for (int i = 0; i < 2; ++i) {
    wires_[i] = std::make_unique<nic::Wire>(&clock_, nullptr, opt_.phys);
    wires_[i]->set_bus(0, bus_.get());  // only the Morello card shares a PCI bus
    card_->connect(i, wires_[i].get(), 0);
    if (opt_.impair.enabled()) {
      wires_[i]->set_impairment(0, opt_.impair);  // Morello egress
      wires_[i]->set_impairment(1, opt_.impair);  // peer egress
    }
  }
}

PeerHost& MorelloTestbed::make_peer(int i) {
  if (!peers_.at(i)) {
    PeerHost::Config pc;
    pc.name = "peer" + std::to_string(i);
    pc.inst = peer_cfg(i);
    peers_[i] = std::make_unique<PeerHost>(pc, iv_->address_space(), clock_,
                                           *wires_[i], 1);
  }
  return *peers_[i];
}

InstanceConfig MorelloTestbed::morello_cfg(int port) const {
  InstanceConfig c;
  c.netif.ip = morello_ip(port);
  c.tcp.mss = opt_.mss;
  c.tcp.sndbuf_bytes = opt_.sndbuf_bytes;
  c.inline_tcp_output = opt_.inline_tcp_output;
  c.eal.eth.offloads = opt_.offloads;
  return c;
}

InstanceConfig MorelloTestbed::peer_cfg(int port) const {
  InstanceConfig c;
  c.netif.ip = peer_ip(port);
  c.tcp.mss = opt_.mss;
  c.eal.eth.offloads = opt_.offloads;
  return c;
}

// ===========================================================================
// The lockstep rig
// ===========================================================================

namespace {

// Termination guards: a run still unfinished after its byte volume's worth
// of virtual time at kGuardNsPerByte (10 Mbit/s, a fiftieth of a contended
// stream) plus kGuardSlack (room for RTO backoff: the 2% corrupting-wire
// census leg needs ~25 virtual s at any volume), or turning this often
// without the clock moving (the signature of a lockstep livelock), ends
// early with whatever it moved — the gates then fail on the byte volume
// instead of the process hanging.
constexpr sim::Ns kGuardSlack{60'000'000'000};
constexpr std::int64_t kGuardNsPerByte = 800;
constexpr std::uint64_t kMaxTurnsPerInstant = 1'000'000;

/// The virtual-time budget for `volume_bytes` (saturating: the volume may
/// come from the environment).
sim::Ns time_guard(std::uint64_t volume_bytes) {
  constexpr auto kMaxBytes = static_cast<std::uint64_t>(
      (std::numeric_limits<std::int64_t>::max() - kGuardSlack.count()) /
      kGuardNsPerByte);
  return kGuardSlack +
         sim::Ns{static_cast<std::int64_t>(std::min(volume_bytes, kMaxBytes)) *
                 kGuardNsPerByte};
}

}  // namespace

LockstepRig::LockstepRig(ScenarioKind kind, int endpoints,
                         std::uint64_t volume_bytes, const TestbedOptions& opt)
    : tb_(opt), time_limit_(time_guard(volume_bytes)) {
  if (kind == ScenarioKind::kScenario2Uncontended ||
      kind == ScenarioKind::kScenario2Contended) {
    build_scenario2(endpoints, opt);
  } else {
    build_per_port(kind == ScenarioKind::kScenario1, endpoints);
  }
  start_ = instant_ = now();
}

LockstepRig::~LockstepRig() = default;

bool LockstepRig::turn(bool app_progress, std::optional<sim::Ns> app_due) {
  bool progress = app_progress;
  for (Stack& s : stacks_) {
    progress |= s.run([&s] { return s.inst->run_once(); });
  }
  for (PeerHost* p : peers_) progress |= p->step();
  if (!progress) idle(app_due);
  const sim::Ns t = now();
  if (t != instant_) {
    instant_ = t;
    same_instant_turns_ = 0;
  } else if (++same_instant_turns_ > kMaxTurnsPerInstant) {
    return false;
  }
  return t - start_ < time_limit_;
}

BandwidthOutcome::TxBurstCensus LockstepRig::tx_census() const {
  BandwidthOutcome::TxBurstCensus c;
  for (const Stack& s : stacks_) {
    const updk::EthStats es = s.inst->dev().stats();
    c.frames += es.opackets;
    c.bursts += es.tx_bursts;
    c.segs += es.tx_segs;
    c.bytes += es.obytes;
    c.tso_frames += es.tso_frames;
    c.tso_bytes += es.tso_bytes;
  }
  return c;
}

LockstepRig::Marks LockstepRig::mark() {
  return {tb_.intravisor().entries().crossings(),
          eps_[0].cvm->trampoline().crossings()};
}

void LockstepRig::charge(const Marks& m) {
  const Marks now_m = mark();
  entry_x_ += now_m.entry - m.entry;
  tramp_x_ += now_m.tramp - m.tramp;
}

void LockstepRig::finish(std::uint64_t total_bytes, Census& out) {
  // A sealed-entry jump pays kernel entry + trampoline + domain switch;
  // a trampolined syscall the first two (paper Fig. 4/5: 140 + 125 + 75).
  const sim::CostModel price = sim::CostModel::morello();
  const auto tramp = static_cast<double>(price.trampoline_crossing().count());
  const double entry =
      tramp + static_cast<double>(price.domain_switch_extra.count());
  const double mib = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  out.crossings = entry_x_ + tramp_x_;
  out.modeled_ns_per_mib =
      mib > 0 ? (static_cast<double>(entry_x_) * entry +
                 static_cast<double>(tramp_x_) * tramp) /
                    mib
              : 0.0;
  const fstack::FfStack& st = stacks_[0].inst->stack();
  out.rx_copied_bytes = st.rx_stats().copied_bytes;
  out.zc_loans = st.api_stats().zc_rx_loans;
  out.zc_recycles = st.api_stats().zc_rx_recycles;
  out.tx_copied_bytes = st.tx_stats().copied_bytes;
  out.tx_zc_bytes = st.tx_stats().zc_bytes;
  out.tx_emit_payload_reads = st.tx_stats().emit_payload_reads;
  out.stack_checksum_bytes = st.tx_stats().stack_checksum_bytes;
  out.stack_csum_drops = st.stats().csum_errors;
  out.rx_crc_errors = tb_.card().port(0).stats().rx_crc_errors;
  out.wire_corrupts = tb_.wire(0).stats(1).impair_corrupts;
  out.virtual_ns = static_cast<std::uint64_t>((now() - start_).count());
}

void LockstepRig::build_per_port(bool cheri, int endpoints) {
  iv::Intravisor& iv = tb_.intravisor();
  for (int i = 0; i < endpoints; ++i) peers_.push_back(&tb_.make_peer(i));
  for (int i = 0; i < endpoints; ++i) {
    Endpoint& e = eps_.emplace_back();
    e.stack = static_cast<std::size_t>(i);
    const InstanceConfig cfg = tb_.morello_cfg(i);
    if (cheri) {
      e.label = "cVM" + std::to_string(i + 1);
      auto& s1 = s1_.emplace_back(
          std::make_unique<Scenario1Cvm>(iv, tb_.card(), i, cfg, e.label));
      e.cvm = &s1->cvm();
      e.libc = &s1->libc();
      e.ops = &s1->ops();
      e.heap = &s1->cvm().heap();
      stacks_.push_back({&s1->instance(), e.cvm, nullptr, i});
    } else {
      e.label = endpoints > 1 ? "Baseline (cVM" + std::to_string(i + 1) + ")"
                              : std::string("Baseline (cVM2)");
      auto& bp = bp_.emplace_back(std::make_unique<BaselineProcess>(
          iv, tb_.card(), i, cfg, "proc" + std::to_string(i)));
      e.libc = &bp->libc();
      e.ops = &bp->ops();
      e.heap = &bp->heap();
      stacks_.push_back({&bp->instance(), nullptr, nullptr, i});
    }
  }
}

void LockstepRig::build_scenario2(int endpoints, const TestbedOptions& opt) {
  iv::Intravisor& iv = tb_.intravisor();
  const std::uint32_t nshards = std::max<std::uint32_t>(opt.s2_shards, 1);
  // Dual-port scale-out puts shard s on port s; the card has two ports.
  const int nports =
      opt.s2_shards_same_port || nshards == 1
          ? 1
          : static_cast<int>(std::min<std::uint32_t>(nshards, 2));
  for (int p = 0; p < nports; ++p) peers_.push_back(&tb_.make_peer(p));
  cvm1_ = &iv.create_cvm("cVM1", 96u << 20);
  std::vector<FullStackInstance*> ptrs;
  for (std::uint32_t s = 0; s < nshards; ++s) {
    const int p = static_cast<int>(s) % nports;
    // RSS mode: every shard shares port 0's identity (IP + MAC); the
    // 82576's Toeplitz/RETA steering and the listeners' L4 filters split
    // the flows across the shards' queues.
    shards_.push_back(
        opt.s2_shards_same_port
            ? std::make_unique<FullStackInstance>(
                  tb_.card(), 0, s, nshards, cvm1_->heap(), tb_.clock(),
                  tb_.morello_cfg(0))
            : std::make_unique<FullStackInstance>(tb_.card(), p,
                                                  cvm1_->heap(), tb_.clock(),
                                                  tb_.morello_cfg(p)));
    ptrs.push_back(shards_.back().get());
  }
  svc_ = std::make_unique<Scenario2Service>(iv, *cvm1_, ptrs);
  for (std::uint32_t s = 0; s < nshards; ++s) {
    stacks_.push_back(
        {ptrs[s], cvm1_, &svc_->mutex(s), static_cast<int>(s) % nports});
  }
  for (int j = 0; j < endpoints; ++j) add_app("cVM" + std::to_string(2 + j));
}

int LockstepRig::add_app(std::string label, int tid) {
  const int j = static_cast<int>(eps_.size());
  Endpoint& e = eps_.emplace_back();
  e.label = std::move(label);
  e.cvm = &tb_.intravisor().create_cvm(e.label, 16u << 20);
  e.libc = &e.cvm->libc();
  e.stack = static_cast<std::size_t>(j) % shards_.size();
  proxies_.push_back(svc_->make_proxy_ops(*e.cvm, e.stack, tid));
  e.ops = proxies_.back().get();
  e.heap = &e.cvm->heap();
  return j;
}

void LockstepRig::idle(std::optional<sim::Ns> app_due) {
  std::optional<sim::Ns> d = app_due;
  const auto earliest = [&d](std::optional<sim::Ns> o) {
    if (o && (!d || *o < *d)) d = o;
  };
  for (Stack& s : stacks_) {
    if (s.mutex != nullptr) {
      // The shard idles across the clock jump: publish its park state, so
      // a ring user knows its next doorbell crossing is worth making.
      s.run([&s] { s.inst->stack().urings_set_parked(true); });
    }
    earliest(s.inst->next_deadline());
  }
  for (PeerHost* p : peers_) earliest(p->next_deadline());
  // Nothing scheduled ahead: step by one heartbeat.
  tb_.clock().advance_to(d && *d > now() ? *d : now() + kHeartbeat);
}

// ===========================================================================
// Table II
// ===========================================================================

BandwidthOutcome run_bandwidth(ScenarioKind kind, Direction dir,
                               std::uint64_t bytes_per_stream,
                               const TestbedOptions& opt) {
  const int streams = endpoint_count(kind);
  LockstepRig rig(kind, streams, bytes_per_stream * streams, opt);
  MorelloTestbed& tb = rig.testbed();
  const bool rx = dir == Direction::kMorelloReceives;
  std::vector<std::unique_ptr<apps::IperfServer>> srv(streams);
  std::vector<std::unique_ptr<apps::IperfClient>> cli(streams);
  std::array<int, 2> port_streams{};
  for (int j = 0; j < streams; ++j) {
    const int p = rig.port_of(j);
    const machine::CapView buf = rig.alloc(64 * 1024, j);
    if (rx) {
      const auto port = static_cast<std::uint16_t>(kIperfPort + j);
      rig.run(j, [&] {
        srv[j] = std::make_unique<apps::IperfServer>(&rig.ops(j), &tb.clock(),
                                                     port, buf, 1);
      });
      tb.peer(p).run_iperf_client(MorelloTestbed::morello_ip(p), port,
                                  bytes_per_stream);
    } else {
      rig.run(j, [&] {
        cli[j] = std::make_unique<apps::IperfClient>(
            &rig.ops(j), &tb.clock(), MorelloTestbed::peer_ip(p), kIperfPort,
            bytes_per_stream, buf.window(0, 16 * 1024));
      });
      ++port_streams[p];
    }
  }
  for (int p = 0; p < 2; ++p) {
    if (port_streams[p] > 0) {
      tb.peer(p).serve_iperf(kIperfPort, port_streams[p]);
    }
  }
  const auto finished = [&] {
    for (int j = 0; j < streams; ++j) {
      if (rx ? !srv[j]->finished()
             : !tb.peer(rig.port_of(j)).workload_finished()) {
        return false;
      }
    }
    return true;
  };
  // One turn: every app steps inside its compartment, then the rig runs
  // the stacks and the peers.
  while (!finished()) {
    bool progress = false;
    for (int j = 0; j < streams; ++j) {
      progress |=
          rig.run(j, [&] { return rx ? srv[j]->step() : cli[j]->step(); });
    }
    if (!rig.turn(progress)) break;
  }

  BandwidthOutcome out;
  out.kind = kind;
  out.dir = dir;
  out.morello_tx = rig.tx_census();
  Scenario2Service* svc = rig.service();
  if (svc != nullptr) out.shards.resize(svc->shard_count());
  // Each peer reports its connections in accept order; streams mapped to a
  // port connected in increasing j, so zip them back in that order.
  std::array<std::size_t, 2> next_report{};
  for (int j = 0; j < streams; ++j) {
    apps::IperfReport r;
    if (rx) {
      r = srv[j]->report();
    } else {
      const int p = rig.port_of(j);
      const auto reports = tb.peer(p).server()->connection_reports();
      const std::size_t idx = next_report[p]++;
      if (idx >= reports.size()) continue;
      r = reports[idx];
    }
    out.endpoints.push_back({rig.label(j), r.bytes, r.mbit_per_sec()});
    if (svc != nullptr) out.shards[rig.stack_of(j)].mbps += r.mbit_per_sec();
  }
  for (std::size_t s = 0; s < out.shards.size(); ++s) {
    out.shards[s].mutex_fast = svc->mutex(s).fast_acquires();
    out.shards[s].mutex_contended = svc->mutex(s).contended_acquires();
    out.shards[s].proxied_calls = svc->proxied_calls(s);
  }
  return out;
}

// ===========================================================================
// Figures 4-6: ff_write latency probes
// ===========================================================================

namespace {

/// One measured call of the Fig. 4-6 probes: batch = 1 is the classic
/// ff_write; batch > 1 issues the same bytes as one gather ff_writev (the
/// Fig. 6 sweep's contention knob — one mutex acquisition per batch).
std::int64_t measured_write(apps::FfOps& ops, int fd,
                            const machine::CapView& buf, std::size_t wsize,
                            std::size_t batch) {
  if (batch <= 1) return ops.write(fd, buf, wsize);
  fstack::FfIovec iov[apps::IperfClient::kMaxBatch];
  const std::size_t k =
      std::min<std::size_t>(batch, apps::IperfClient::kMaxBatch);
  for (std::size_t i = 0; i < k; ++i) iov[i] = {buf.window(0, wsize), wsize};
  return ops.writev(fd, {iov, k});
}

}  // namespace

LatencyOutcome run_ffwrite_latency(ScenarioKind kind, std::size_t iterations,
                                   std::size_t write_size,
                                   const TestbedOptions& opt,
                                   std::size_t batch) {
  const int n = endpoint_count(kind);
  LockstepRig rig(kind, n,
                  iterations * write_size * std::max<std::size_t>(batch, 1) *
                      static_cast<std::size_t>(n),
                  opt);
  MorelloTestbed& tb = rig.testbed();
  // Every endpoint streams into its port's discard sink.
  std::array<int, 2> port_conns{};
  for (int j = 0; j < n; ++j) ++port_conns[rig.port_of(j)];
  for (int p = 0; p < 2; ++p) {
    if (port_conns[p] > 0) tb.peer(p).serve_iperf(kIperfPort, port_conns[p]);
  }
  // "We increased the interval between two consecutive ff_write() to reduce
  // the possibility to be blocked for a long time by the mutex" (§IV): the
  // uncontended writer is due 20 us after its last success; every other
  // writer goes flat out.
  const sim::Ns pace = kind == ScenarioKind::kScenario2Uncontended
                           ? sim::Ns{20'000}
                           : sim::Ns{0};
  struct Probe {
    int fd = -1;
    machine::CapView buf;
    LatencySeries series;
    std::optional<sim::Ns> first_try;  // first attempt of the pending write
    sim::Ns due{0};                    // the next write waits for this
  };
  std::vector<Probe> probes(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    Probe& p = probes[static_cast<std::size_t>(j)];
    p.series.label = rig.label(j);
    p.buf = rig.alloc(4096, j);
    rig.run(j, [&] {
      p.fd = rig.ops(j).socket_stream();
      rig.ops(j).connect(p.fd, MorelloTestbed::peer_ip(rig.port_of(j)),
                         kIperfPort);
    });
  }
  for (bool running = true; running;) {
    running = false;
    bool progress = false;
    std::optional<sim::Ns> due;
    for (int j = 0; j < n; ++j) {
      Probe& p = probes[static_cast<std::size_t>(j)];
      if (p.series.samples_ns.size() >= iterations) continue;
      running = true;
      if (rig.now() < p.due) {
        if (!due || p.due < *due) due = p.due;
        continue;
      }
      if (!p.first_try) p.first_try = rig.now();
      iv::MuslLibc& libc = rig.libc(j);
      std::uint64_t t0 = 0;
      std::uint64_t t1 = 0;
      const std::int64_t r = rig.run(j, [&] {
        t0 = libc.clock_gettime_mono_raw_ns();
        const std::int64_t w =
            measured_write(rig.ops(j), p.fd, p.buf, write_size, batch);
        t1 = libc.clock_gettime_mono_raw_ns();
        return w;
      });
      if (r <= 0) continue;
      p.series.samples_ns.push_back(static_cast<double>(t1 - t0));
      p.series.virtual_ns.push_back(
          static_cast<double>((rig.now() - *p.first_try).count()));
      p.first_try.reset();
      p.due = rig.now() + pace;
      progress = true;
    }
    if (running && !rig.turn(progress, due)) break;
  }

  LatencyOutcome out;
  out.kind = kind;
  for (int j = 0; j < n; ++j) {
    Probe& p = probes[static_cast<std::size_t>(j)];
    rig.run(j, [&] { rig.ops(j).close(p.fd); });
    out.series.push_back(std::move(p.series));
  }
  if (Scenario2Service* svc = rig.service()) {
    out.mutex_fast = svc->mutex().fast_acquires();
    out.mutex_contended = svc->mutex().contended_acquires();
  }
  return out;
}

// ===========================================================================
// Crossing census: one lockstep rig, four leg bodies
// ===========================================================================

namespace {

constexpr std::size_t kMss = 1448;
constexpr std::uint32_t kUringSqSlots = 64;
constexpr std::uint32_t kUringCqSlots = 128;
constexpr std::size_t kUringReap = 16;  // CQE reap batch per turn
constexpr std::uint64_t kUdAccept = 1;  // user_data tags of the RX arms
constexpr std::uint64_t kUdEpoll = 2;
/// The adaptive coalescing window of the zero-copy receiver, in turns: a
/// drain that fills its whole burst halves the window (the queue outruns
/// the receiver — harvest sooner), a short drain doubles it (let more
/// accrue per wakeup), clamped to [1, kMax]. The receive window (256 KiB)
/// holds the accrual either way.
struct RxDrainPacer {
  static constexpr std::uint32_t kMax = 64;
  std::uint32_t window = 8;

  /// Feed back one drain's loan count (`full` = a whole burst); returns the
  /// turn count to restart coalescing from — the whole window after a full
  /// burst, since more may already be queued (drain again next turn).
  std::uint32_t on_drain(std::size_t loans, std::size_t full) {
    window = loans >= full ? std::max<std::uint32_t>(window / 2, 1)
                           : std::min<std::uint32_t>(window * 2, kMax);
    return loans >= full ? window : 0;
  }
};

/// Connect to the peer's discard sink; `*ep` watches the fd for EPOLLOUT.
int connect_sink(apps::FfOps& ops, int* ep) {
  const int fd = ops.socket_stream();
  ops.connect(fd, MorelloTestbed::peer_ip(0), kIperfPort);
  *ep = ops.epoll_create();
  ops.epoll_ctl(*ep, fstack::EpollOp::kAdd, fd, fstack::kEpollOut, 1);
  return fd;
}

bool writable(apps::FfOps& ops, int ep) {
  fstack::FfEpollEvent ev[1];
  return ops.epoll_wait(ep, ev) > 0 && (ev[0].events & fstack::kEpollOut) != 0;
}

int listen_census(apps::FfOps& ops) {
  const int lfd = ops.socket_stream();
  ops.bind(lfd, fstack::Ipv4Addr{}, kIperfPort);
  ops.listen(lfd, 4);
  return lfd;
}

/// Classic TX (kWrite, kWritev): every measured call is gated on EPOLLOUT,
/// like the ported iperf3 (§III-B), so the census counts the crossings of
/// productive calls, not of -EAGAIN spins.
void classic_tx(LockstepRig& rig, std::uint64_t total, std::size_t batch,
                Census& out) {
  apps::FfOps& ops = rig.ops();
  const machine::CapView buf = rig.alloc(kMss);
  int ep = -1;
  const int fd = connect_sink(ops, &ep);
  std::vector<fstack::FfIovec> iov(batch);
  while (out.bytes < total) {
    std::int64_t r = 0;
    if (writable(ops, ep)) {
      std::size_t k = 0;
      for (std::uint64_t want = 0; k < batch && out.bytes + want < total;
           ++k) {
        const std::size_t n =
            std::min<std::uint64_t>(kMss, total - out.bytes - want);
        iov[k] = {buf.window(0, n), n};
        want += n;
      }
      r = rig.measured([&] {
        return batch == 1 ? ops.write(fd, buf, iov[0].len)
                          : ops.writev(fd, {iov.data(), k});
      });
      ++out.api_calls;
      if (r > 0) out.bytes += static_cast<std::uint64_t>(r);
    }
    if (!rig.turn(r > 0)) break;
  }
  ops.close(ep);
  ops.close(fd);
}

/// Classic RX (kRead): readiness comes from epoll_wait, OUTSIDE the
/// measured envelope; the envelope prices exactly one productive receive
/// iteration, one MSS-sized ff_read.
void classic_rx(LockstepRig& rig, std::uint64_t total, Census& out) {
  apps::FfOps& ops = rig.ops();
  const machine::CapView rx_buf = rig.alloc(4096);
  const int lfd = listen_census(ops);
  const int ep = ops.epoll_create();
  ops.epoll_ctl(ep, fstack::EpollOp::kAdd, lfd, fstack::kEpollIn,
                static_cast<std::uint64_t>(lfd));
  int cfd = -1;
  bool eof = false;
  while (out.bytes < total && !eof) {
    bool progress = false;
    bool readable = false;
    fstack::FfEpollEvent evs[8];
    const int n = ops.epoll_wait(ep, evs);
    for (int i = 0; i < n; ++i) {
      const int fd = static_cast<int>(evs[i].data);
      if (fd == lfd && cfd < 0) {
        cfd = ops.accept(lfd);
        if (cfd >= 0) {
          ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                        static_cast<std::uint64_t>(cfd));
          progress = true;
        }
      } else if (fd == cfd &&
                 (evs[i].events & (fstack::kEpollIn | fstack::kEpollHup))) {
        readable = true;
      }
    }
    if (readable) {
      const std::int64_t r = rig.measured([&] {
        const std::int64_t r = ops.read(cfd, rx_buf, kMss);
        if (r > 0) out.bytes += static_cast<std::uint64_t>(r);
        eof = r == 0;
        return r;
      });
      progress |= r > 0;
      ++out.api_calls;
    }
    if (!rig.turn(progress)) break;
  }
  if (cfd >= 0) ops.close(cfd);
  ops.close(ep);
  ops.close(lfd);
}

/// Ring TX (kRingWritev, kRingZcSend) through the shared protocols of
/// apps/uring_proto.hpp — the same submit/re-offer and alloc/fill/send
/// pipelines the IperfClient ring port runs. Connection setup is classic
/// and unmeasured; the envelope opens at the arming crossing.
void ring_tx(LockstepRig& rig, std::uint64_t total, bool zero_copy,
             Census& out) {
  apps::FfOps& ops = rig.ops();
  const machine::CapView buf = rig.alloc(kMss);
  const machine::CapView ring_mem =
      rig.alloc(fstack::FfUring::bytes_for(kUringSqSlots, kUringCqSlots));
  int ep = -1;
  const int fd = connect_sink(ops, &ep);
  bool up = false;
  while (!(up = writable(ops, ep)) && rig.turn(false)) {
  }
  const LockstepRig::Marks m = rig.mark();
  fstack::FfUring ring(ring_mem, kUringSqSlots, kUringCqSlots);
  const int id =
      up ? ops.uring_attach(ring_mem, kUringSqSlots, kUringCqSlots) : -1;
  if (id >= 0) {
    apps::UringTxProto copy(&ring, fd, buf, kMss,
                            fstack::FfUringSqe::kMaxCaps);
    std::byte scratch[512];
    apps::UringZcTxProto zc(
        &ring, fd, kMss,
        [&buf, &scratch](const machine::CapView& room, std::size_t len) {
          // The application composes its payload straight into the granted
          // data room — ITS write through ITS bounded capability, not a
          // stack-side copy.
          machine::cap_copy(room, 0, buf, 0, len, scratch);
        });
    const auto acked = [&] { return zero_copy ? zc.acked() : copy.acked(); };
    fstack::FfUringDoorbellPolicy bell;
    std::optional<sim::Ns> bounced;  // instant of the last bounced CQE
    while (acked() < total && !zc.wound_down()) {
      // A bounced OP_WRITEV or a pool-starved (-ENOBUFS) alloc re-submits
      // only once virtual time has moved: re-submitting at the same
      // instant is exactly what a lockstep pump would spin on forever.
      if (bounced != rig.now()) {
        out.sqes += zero_copy ? zc.pump(total) : copy.offer(total);
      }
      bool progress = false;
      fstack::FfUringCqe cq[kUringReap];
      const std::size_t n = ring.cq_pop(cq);
      for (std::size_t i = 0; i < n; ++i) {
        out.cqes++;
        const bool grant =
            cq[i].op == fstack::UringOp::kZcAlloc && cq[i].result > 0;
        if ((zero_copy ? zc.on_cqe(cq[i]) : copy.on_cqe(cq[i])) > 0 ||
            grant) {
          progress = true;
        } else {
          bounced = rig.now();
        }
      }
      if (bell.should_ring(ring, progress)) {
        ops.uring_doorbell(id);  // genuinely unclaimed work: one crossing
        out.doorbells++;
      }
      if (!rig.turn(progress)) break;
    }
    out.bytes = acked();
  }
  rig.charge(m);
  if (id >= 0) ops.uring_detach(id);
  ops.close(ep);
  ops.close(fd);
}

/// Ring RX (kRingZcRecv): OP_ACCEPT_MULTISHOT posts the accepted fd,
/// OP_EPOLL_ARM posts readiness, OP_ZC_RECV bursts post one loan CQE each,
/// OP_RECYCLE returns token batches — the receive-pipeline CQE discipline
/// the IperfServer ring port shares; the adaptive pacer decides when a
/// drain is worth submitting.
void ring_rx(LockstepRig& rig, std::uint64_t total, Census& out) {
  apps::FfOps& ops = rig.ops();
  const machine::CapView ring_mem =
      rig.alloc(fstack::FfUring::bytes_for(kUringSqSlots, kUringCqSlots));
  const int lfd = listen_census(ops);
  const int ep = ops.epoll_create();
  const LockstepRig::Marks m = rig.mark();
  fstack::FfUring ring(ring_mem, kUringSqSlots, kUringCqSlots);
  const int id = ops.uring_attach(ring_mem, kUringSqSlots, kUringCqSlots);
  int cfd = -1;
  if (id >= 0) {
    // Token batches ride OP_RECYCLE entries; a batch the full SQ refuses
    // waits in the recycler for the next push. One burst is in flight at a
    // time, which bounds the loans still to arrive.
    fstack::FfUringRecycler recycler(&ring, fstack::FfUringSqe::kMaxCaps);
    struct Dispatch {
      apps::FfOps& ops;
      int ep;
      fstack::FfUringRecycler& recycler;
      RxDrainPacer pacer;
      int cfd = -1;
      bool hot = false;       // a drain burst is worth submitting
      bool inflight = false;  // a burst's CQE train is outstanding
      bool eof = false;
      bool progress = false;  // an fd, a loan or EOF arrived this turn
      std::uint64_t got = 0;
      std::uint32_t burst_loans = 0;
      std::uint32_t coalesce = 0;

      void on_accept(int fd, const fstack::FfSockAddrIn&) {
        if (cfd >= 0) return;
        cfd = fd;
        // The one residual classic call of the pipeline: register the
        // accepted fd's readiness interest (one-time, per connection).
        ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                      static_cast<std::uint64_t>(cfd));
        hot = true;
        progress = true;
      }
      void on_readiness(std::uint32_t mask, std::uint64_t) {
        // Only a readable/hangup mask warrants a drain burst (quiet masks
        // are never posted).
        if ((mask & (fstack::kEpollIn | fstack::kEpollHup)) != 0) hot = true;
      }
      void on_loan(const fstack::FfUringCqe& cqe) {
        got += static_cast<std::uint64_t>(cqe.result);
        burst_loans++;
        recycler.add(cqe.aux0);
        progress = true;
      }
      void on_eof(std::uint64_t) {
        eof = true;
        progress = true;
      }
      void on_drained(std::uint64_t) { hot = false; }
      void on_burst_end(std::uint64_t) {
        inflight = false;
        coalesce = pacer.on_drain(burst_loans, fstack::FfUringSqe::kMaxCaps);
        burst_loans = 0;
      }
    } rx{ops, ep, recycler, {}};

    if (apps::push_accept_arm(ring, lfd, kUdAccept)) out.sqes++;
    if (apps::push_epoll_arm(ring, ep, kUdEpoll)) out.sqes++;
    fstack::FfUringDoorbellPolicy bell;
    while ((rx.got < total && !rx.eof) || rx.inflight) {
      rx.progress = false;
      fstack::FfUringCqe cq[kUringReap];
      const std::size_t n = ring.cq_pop(cq);
      for (std::size_t i = 0; i < n; ++i) {
        out.cqes++;
        apps::dispatch_rx_cqe(cq[i], rx);
      }
      ++rx.coalesce;
      recycler.retry();  // before a burst: keeps the store bounded
      if (rx.cfd >= 0 && rx.hot && !rx.inflight && !rx.eof &&
          rx.got < total && rx.coalesce >= rx.pacer.window &&
          apps::push_zc_recv(ring, rx.cfd, fstack::FfUringSqe::kMaxCaps, 0)) {
        out.sqes++;
        rx.inflight = true;
      }
      if (bell.should_ring(ring, rx.progress)) {
        ops.uring_doorbell(id);  // genuinely unclaimed work: one crossing
        out.doorbells++;
      }
      if (!rig.turn(rx.progress)) break;
    }
    // Return every outstanding loan through the ring and let the stack
    // consume the entries: nothing may stay window-charged. A burst the
    // rig's limits cut short may still post loans; they join the store.
    recycler.flush();
    while ((ring.sq_pending() > 0 || recycler.pending() > 0 || rx.inflight) &&
           rig.turn(false)) {
      fstack::FfUringCqe cq[kUringReap];
      const std::size_t n = ring.cq_pop(cq);
      for (std::size_t i = 0; i < n; ++i) apps::dispatch_rx_cqe(cq[i], rx);
      recycler.flush();
    }
    out.sqes += recycler.ring_pushes();
    out.bytes = rx.got;
    cfd = rx.cfd;
  }
  rig.charge(m);
  if (id >= 0) ops.uring_detach(id);
  if (cfd >= 0) ops.close(cfd);
  ops.close(ep);
  ops.close(lfd);
}

}  // namespace

Census run_census(ScenarioKind kind, CensusLeg leg, std::uint64_t total_bytes,
                  const TestbedOptions& opt) {
  Census out;
  if (kind != ScenarioKind::kScenario1 &&
      kind != ScenarioKind::kScenario2Uncontended) {
    return out;
  }
  const bool tx = leg == CensusLeg::kWrite || leg == CensusLeg::kWritev ||
                  leg == CensusLeg::kRingWritev ||
                  leg == CensusLeg::kRingZcSend;
  TestbedOptions copt = opt;
  if (tx) {
    copt.sndbuf_bytes =
        std::max<std::size_t>(opt.sndbuf_bytes, total_bytes + (64u << 10));
  }
  LockstepRig rig(kind, 1, total_bytes, copt);
  PeerHost& peer = rig.testbed().peer(0);
  if (tx) {
    peer.serve_iperf(kIperfPort, 1);  // discard sink
  } else {
    peer.run_iperf_client(MorelloTestbed::morello_ip(0), kIperfPort,
                          total_bytes);
  }
  rig.run(0, [&] {
    switch (leg) {
      case CensusLeg::kWrite:
        return classic_tx(rig, total_bytes, 1, out);
      case CensusLeg::kWritev:
        return classic_tx(rig, total_bytes, kCensusBatch, out);
      case CensusLeg::kRead:
        return classic_rx(rig, total_bytes, out);
      case CensusLeg::kRingWritev:
        return ring_tx(rig, total_bytes, false, out);
      case CensusLeg::kRingZcSend:
        return ring_tx(rig, total_bytes, true, out);
      case CensusLeg::kRingZcRecv:
        return ring_rx(rig, total_bytes, out);
    }
  });
  rig.finish(total_bytes, out);
  return out;
}

}  // namespace cherinet::scen
