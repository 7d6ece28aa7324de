// Scenario-level integration, all on the lockstep rig: the five Table II
// configurations at reduced volume, the ff_write latency probes, the
// crossing census and the cross-compartment proxy (the echo server's
// crossing budget among it); plus compartment-escape containment (Fig. 3).
#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/echo.hpp"
#include "apps/iperf.hpp"
#include "apps/uring_proto.hpp"
#include "fixtures.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/scenario2.hpp"
#include "stats/stats.hpp"

using namespace cherinet;
using namespace cherinet::scen;

namespace {
TestbedOptions fast_options() {
  TestbedOptions opt;
  opt.cost = sim::CostModel::disabled();  // keep CI runtime small
  return opt;
}
constexpr std::uint64_t kSmall = 3 * 1024 * 1024;  // per-stream bytes

/// Forwards every call to `in` (a Scenario 2 proxy) and checks each
/// epoll_wait answer against the stack's own ff_epoll_wait, called
/// directly at the same instant. Counts what the checks covered.
class CheckedWaits final : public apps::FfOps {
 public:
  CheckedWaits(apps::FfOps& in, fstack::FfStack& st,
               const machine::EntryRegistry& entries)
      : in_(in), direct_(&st), entries_(entries) {}

  int socket_stream() override { return in_.socket_stream(); }
  int bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return in_.bind(fd, ip, port);
  }
  int listen(int fd, int backlog) override { return in_.listen(fd, backlog); }
  int accept(int fd) override { return in_.accept(fd); }
  int connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return in_.connect(fd, ip, port);
  }
  std::int64_t write(int fd, const machine::CapView& buf,
                     std::size_t n) override {
    return in_.write(fd, buf, n);
  }
  std::int64_t read(int fd, const machine::CapView& buf,
                    std::size_t n) override {
    return in_.read(fd, buf, n);
  }
  std::int64_t writev(int fd, std::span<const fstack::FfIovec> iov) override {
    return in_.writev(fd, iov);
  }
  std::int64_t readv(int fd, std::span<const fstack::FfIovec> iov) override {
    return in_.readv(fd, iov);
  }
  int uring_attach(const machine::CapView& mem, std::uint32_t sq,
                   std::uint32_t cq) override {
    return in_.uring_attach(mem, sq, cq);
  }
  int uring_detach(int id) override { return in_.uring_detach(id); }
  int uring_doorbell(int id) override { return in_.uring_doorbell(id); }
  int close(int fd) override {
    ++closes;
    return in_.close(fd);
  }
  int epoll_create() override { return in_.epoll_create(); }
  int epoll_ctl(int epfd, fstack::EpollOp op, int fd, std::uint32_t events,
                std::uint64_t data) override {
    if (op == fstack::EpollOp::kMod) ++mods;
    return in_.epoll_ctl(epfd, op, fd, events, data);
  }
  int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) override {
    const std::uint64_t before = entries_.crossings();
    const int n = in_.epoll_wait(epfd, out);
    if (entries_.crossings() == before) ++local;
    ++waits;
    std::array<fstack::FfEpollEvent, 64> truth{};
    const int t = direct_.epoll_wait(
        epfd, std::span{truth}.first(std::min(out.size(), truth.size())));
    EXPECT_EQ(n, t) << "wait " << waits;
    for (int i = 0; i < std::min(n, t); ++i) {
      EXPECT_EQ(out[i].events, truth[i].events) << "wait " << waits;
      EXPECT_EQ(out[i].data, truth[i].data) << "wait " << waits;
    }
    return n;
  }

  std::uint64_t waits = 0;
  std::uint64_t local = 0;  // answered without a crossing
  std::uint64_t mods = 0;
  std::uint64_t closes = 0;

 private:
  apps::FfOps& in_;
  apps::DirectFfOps direct_;
  const machine::EntryRegistry& entries_;
};
}  // namespace

TEST(Bandwidth, Baseline1ProcReachesSinglePortCeiling) {
  const auto r = run_bandwidth(ScenarioKind::kBaseline1Proc,
                               Direction::kMorelloReceives, kSmall,
                               fast_options());
  ASSERT_EQ(r.endpoints.size(), 1u);
  EXPECT_EQ(r.endpoints[0].bytes, kSmall);
  EXPECT_GT(r.endpoints[0].mbps, 850.0);
  EXPECT_LE(r.endpoints[0].mbps, 945.0);
}

TEST(Bandwidth, Scenario1DualPortHitsPciBusLimit) {
  const auto r = run_bandwidth(ScenarioKind::kScenario1,
                               Direction::kMorelloReceives, kSmall,
                               fast_options());
  ASSERT_EQ(r.endpoints.size(), 2u);
  for (const auto& e : r.endpoints) {
    EXPECT_EQ(e.bytes, kSmall);
    // Paper: 658 Mbit/s per port. Accept a modest band around it.
    EXPECT_GT(e.mbps, 550.0) << e.label;
    EXPECT_LT(e.mbps, 750.0) << e.label;
  }
}

TEST(Bandwidth, Scenario1MatchesBaselineWithinNoise) {
  const auto b = run_bandwidth(ScenarioKind::kBaseline2Proc,
                               Direction::kMorelloSends, kSmall,
                               fast_options());
  const auto s = run_bandwidth(ScenarioKind::kScenario1,
                               Direction::kMorelloSends, kSmall,
                               fast_options());
  ASSERT_EQ(b.endpoints.size(), 2u);
  ASSERT_EQ(s.endpoints.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(s.endpoints[i].mbps, b.endpoints[i].mbps,
                0.1 * b.endpoints[i].mbps);
  }
}

TEST(Bandwidth, Scenario2UncontendedFullRate) {
  const auto r = run_bandwidth(ScenarioKind::kScenario2Uncontended,
                               Direction::kMorelloReceives, kSmall,
                               fast_options());
  ASSERT_EQ(r.endpoints.size(), 1u);
  EXPECT_EQ(r.endpoints[0].bytes, kSmall);
  EXPECT_GT(r.endpoints[0].mbps, 800.0);
}

TEST(Bandwidth, Scenario2ContendedSplitsButSumsToLink) {
  const auto r = run_bandwidth(ScenarioKind::kScenario2Contended,
                               Direction::kMorelloReceives, kSmall,
                               fast_options());
  ASSERT_EQ(r.endpoints.size(), 2u);
  double total = 0;
  for (const auto& e : r.endpoints) {
    EXPECT_EQ(e.bytes, kSmall);
    total += e.mbps;
  }
  // Streams complete sequentially-ish in virtual time; the *aggregate*
  // stays at the port ceiling (the paper's key observation).
  EXPECT_GT(total, 700.0);
}

TEST(Bandwidth, SameInputsSameOutcome) {
  // Table II runs on the single-threaded lockstep rig, so a cell is a
  // function of its inputs alone: two runs agree field for field, goodput
  // included, whatever the host load.
  constexpr std::uint64_t kVolume = 1024 * 1024;
  TestbedOptions sharded = fast_options();
  sharded.s2_shards = 2;  // dual-port: shard j owns port j
  const struct {
    ScenarioKind kind;
    TestbedOptions opt;
  } cells[] = {{ScenarioKind::kScenario1, fast_options()},
               {ScenarioKind::kScenario2Contended, fast_options()},
               {ScenarioKind::kScenario2Contended, sharded}};
  for (const auto& c : cells) {
    for (const Direction dir :
         {Direction::kMorelloReceives, Direction::kMorelloSends}) {
      SCOPED_TRACE(std::string(to_string(c.kind)) + " / " + to_string(dir) +
                   " / " + std::to_string(c.opt.s2_shards) + " shard(s)");
      const auto a = run_bandwidth(c.kind, dir, kVolume, c.opt);
      const auto b = run_bandwidth(c.kind, dir, kVolume, c.opt);
      ASSERT_EQ(a.endpoints.size(), 2u);
      for (const auto& e : a.endpoints) EXPECT_EQ(e.bytes, kVolume) << e.label;
      EXPECT_TRUE(a == b) << a.endpoints[0].label << " "
                          << a.endpoints[0].mbps << " vs "
                          << b.endpoints[0].mbps << " Mbit/s, "
                          << a.morello_tx.frames << " vs "
                          << b.morello_tx.frames << " frames";
    }
  }
}

namespace {
/// Wall-clock-ratio assertions need real scheduler behavior; constrained
/// or sanitizer-slowed environments opt out (scripts/check.sh SANITIZE=1
/// sets this) rather than fail on scheduling noise.
bool timing_tests_disabled() {
  return std::getenv("CHERINET_SKIP_TIMING_TESTS") != nullptr;
}
}  // namespace

TEST(Latency, Scenario1AddsTrampolineCostOverBaseline) {
  if (timing_tests_disabled()) {
    GTEST_SKIP() << "CHERINET_SKIP_TIMING_TESTS set";
  }
  TestbedOptions opt;  // morello cost model ON: the deltas are the point
  opt.inline_tcp_output = false;
  const auto base = run_ffwrite_latency(ScenarioKind::kBaseline2Proc, 12000,
                                        1448, opt);
  const auto s1 = run_ffwrite_latency(ScenarioKind::kScenario1, 12000, 1448,
                                      opt);
  ASSERT_EQ(base.series.size(), 2u);
  ASSERT_EQ(s1.series.size(), 2u);
  const auto m = [](const LatencySeries& s) {
    return stats::summarize(stats::iqr_filter(s.samples_ns)).median;
  };
  // Medians at this sample count carry ~±100 ns of host noise; average the
  // two endpoints and assert the ordering plus a generous upper bound. The
  // magnitude (~+175 ns vs the paper's ~+125 ns) is demonstrated by
  // bench/fig4_ffwrite_scenario1 at 200k+ samples.
  const double base_med = (m(base.series[0]) + m(base.series[1])) / 2.0;
  const double s1_med = (m(s1.series[0]) + m(s1.series[1])) / 2.0;
  EXPECT_GT(s1_med, base_med) << "trampoline delta missing";
  EXPECT_LT(s1_med, base_med + 1500.0)
      << "trampoline delta implausibly large";
}

TEST(Latency, Scenario2ContentionDwarfsUncontended) {
  // The paper's Fig. 6 point: with two applications hammering the shared
  // stack, ff_write() stalls behind the sibling's traffic and the stack
  // mutex; paced solo writes do not. Wall-clock means of that stall are
  // hostage to host load, so the test reads the VIRTUAL clock instead: per
  // successful write, the simulated-time span from first attempt to
  // completion (virtual_ns). The rig advances virtual time only when
  // nothing progressed, paced by the simulated port drain — host
  // slowdowns cannot stretch it.
  //
  // The separator is structural, not a mean: a paced solo writer never
  // fills its send buffer, while a contended writer is regularly held
  // across multiple drain epochs by the sibling occupying the shared
  // window. Counting writes that waited > 150us separates the two
  // configurations.
  TestbedOptions opt;
  opt.inline_tcp_output = false;
  const auto unc = run_ffwrite_latency(ScenarioKind::kScenario2Uncontended,
                                       2000, 1448, opt);
  const auto con = run_ffwrite_latency(ScenarioKind::kScenario2Contended,
                                       2000, 1448, opt);
  ASSERT_EQ(unc.series.size(), 1u);
  ASSERT_EQ(con.series.size(), 2u);
  const auto tail = [](const LatencySeries& s) {
    std::size_t n = 0;
    for (double v : s.virtual_ns) {
      if (v > 150'000.0) ++n;
    }
    return n;
  };
  // Observed: 12 and 13 multi-epoch stalls per contended stream, 0 solo.
  EXPECT_GE(tail(con.series[0]), 5u)
      << "contended writes should stall across drain epochs (paper: ~152x)";
  EXPECT_GE(tail(con.series[1]), 5u)
      << "contended writes should stall across drain epochs (paper: ~152x)";
  EXPECT_LE(tail(unc.series[0]), 2u)
      << "a paced solo writer must never wait out multiple drain epochs";
}

TEST(Latency, SameInputsSameVirtualSeries) {
  // The Fig. 5/6 probes run on the lockstep rig, so every write's virtual
  // wait and the mutex census are functions of the inputs alone: two runs
  // agree element for element, whatever the host load.
  TestbedOptions opt;
  opt.inline_tcp_output = false;
  for (const ScenarioKind kind : {ScenarioKind::kScenario2Uncontended,
                                  ScenarioKind::kScenario2Contended}) {
    SCOPED_TRACE(to_string(kind));
    const auto a = run_ffwrite_latency(kind, 2000, 1448, opt);
    const auto b = run_ffwrite_latency(kind, 2000, 1448, opt);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
      const auto mean = [](const LatencySeries& s) {
        return stats::summarize(s.virtual_ns).mean;
      };
      EXPECT_EQ(a.series[i].virtual_ns.size(), 2000u);
      EXPECT_TRUE(a.series[i].virtual_ns == b.series[i].virtual_ns)
          << a.series[i].label << ": virtual mean " << mean(a.series[i])
          << " vs " << mean(b.series[i]) << " ns";
    }
    EXPECT_EQ(a.mutex_fast, b.mutex_fast);
    EXPECT_EQ(a.mutex_contended, b.mutex_contended);
  }
}

// The Scenario 2 proxy tests run on the lockstep rig: the app body, cVM1's
// stack loop (under the shard mutex) and the wire peer take turns on the
// test's thread. App code runs inside its cVM through rig.run(), so a
// capability fault there propagates and fails the test.

TEST(Scenario2Proxy, OpsWorkAcrossCompartments) {
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 64 * 1024,
                  fast_options());
  PeerHost& peer = rig.testbed().peer(0);
  peer.serve_iperf(5201, 1);
  apps::FfOps& ops = rig.ops();
  const machine::CapView buf = rig.alloc(2048);
  rig.run(0, [&] {
    const int fd = ops.socket_stream();
    EXPECT_GE(fd, 3);
    ops.connect(fd, MorelloTestbed::peer_ip(0), 5201);
    std::uint64_t sent = 0;
    while (sent < 64 * 1024) {
      const auto r = ops.write(fd, buf, 1448);
      if (r > 0) sent += static_cast<std::uint64_t>(r);
      if (!rig.turn(r > 0)) break;
    }
    ops.close(fd);
  });
  Scenario2Service& svc = *rig.service();
  EXPECT_GT(svc.proxied_calls(), 40u);
  EXPECT_GT(rig.testbed().intravisor().entries().crossings(), 40u);

  // Let the FIN exchange drain.
  while (!peer.workload_finished() && rig.turn(false)) {
  }
  // The bytes actually arrived at the peer (46 writes of 1448 bytes: the
  // probe loop overshoots the 64 KiB target by a partial chunk).
  EXPECT_TRUE(peer.workload_finished());
  EXPECT_EQ(peer.server()->report().bytes, 46u * 1448u);
}

TEST(Scenario2Proxy, ZeroCopyRecvAcrossCompartments) {
  // Zero-copy RX end to end in Scenario 2 through its one door: the peer
  // streams into cVM1's stack; the app compartment gates on epoll_wait and
  // takes OP_ZC_RECV loans off its own ring. Each loan crosses as the
  // capability of a CQE: a read-only view bounded to exactly its payload
  // inside cVM1's mbuf arena. Every loan goes back through OP_RECYCLE.
  constexpr std::uint64_t kVolume = 256 * 1024;
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, kVolume,
                  fast_options());
  rig.testbed().peer(0).run_iperf_client(MorelloTestbed::morello_ip(0), 5201,
                                         kVolume);
  apps::FfOps& ops = rig.ops();
  const machine::CapView ring_mem = rig.alloc(fstack::FfUring::bytes_for(
      test::ZcRxRing::kSq, test::ZcRxRing::kCq));
  std::uint64_t received = 0;
  bool clean = true;
  rig.run(0, [&] {
    const int lfd = ops.socket_stream();
    ops.bind(lfd, fstack::Ipv4Addr{}, 5201);
    ops.listen(lfd, 4);
    const int ep = ops.epoll_create();
    ops.epoll_ctl(ep, fstack::EpollOp::kAdd, lfd, fstack::kEpollIn,
                  static_cast<std::uint64_t>(lfd));
    test::ZcRxRing rx(ops, ring_mem);

    int cfd = -1;
    bool eof = false;
    while (!eof && received < kVolume) {
      bool progress = false;
      bool readable = false;
      fstack::FfEpollEvent evs[8];
      const int n = ops.epoll_wait(ep, evs);
      for (int i = 0; i < n; ++i) {
        readable |= static_cast<int>(evs[i].data) == cfd;
      }
      if (cfd < 0) {
        cfd = ops.accept(lfd);
        if (cfd >= 0) {
          ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                        static_cast<std::uint64_t>(cfd));
          progress = true;
        }
      } else if (readable) {
        fstack::FfZcRxBuf loans[8];
        const std::int64_t n = rx.recv(cfd, loans);
        if (n > 0) {
          for (std::int64_t i = 0; i < n; ++i) {
            const std::uint64_t len = loans[i].data.size();
            ASSERT_GT(len, 0u);
            received += len;
            // Read-only, and bounded to exactly the payload.
            const std::byte poison[1] = {std::byte{0xFF}};
            EXPECT_THROW(loans[i].data.write(0, poison), cheri::CapFault);
            std::byte last[1];
            loans[i].data.read(len - 1, last);
            EXPECT_THROW(loans[i].data.read(len, last), cheri::CapFault);
          }
          if (rx.recycle({loans, static_cast<std::size_t>(n)}) != n) {
            clean = false;
          }
          progress = true;
        } else if (n == 0) {
          eof = true;
        }
      }
      if (!rig.turn(progress)) break;
    }
    ops.uring_detach(rx.id());
    ops.close(cfd);
    ops.close(ep);
    ops.close(lfd);
  });

  EXPECT_TRUE(clean);
  EXPECT_GE(received, kVolume);
  // The whole volume moved with ZERO receive-side copies and every loan
  // went back through recycle.
  FullStackInstance& inst = rig.service()->instance();
  const auto& rx = inst.stack().rx_stats();
  const auto& api = inst.stack().api_stats();
  EXPECT_EQ(rx.copied_bytes, 0u);
  EXPECT_GT(api.zc_rx_loans, 0u);
  EXPECT_EQ(api.zc_rx_recycles, api.zc_rx_loans);
  // Nothing leaked: every loaned data room went back through recycle.
  EXPECT_GE(inst.pool().stats().recycles, api.zc_rx_loans);
}

TEST(Scenario2Proxy, UringServesTheReceiveSideAcrossCompartments) {
  // The v3 pipeline end to end in Scenario 2: the app compartment attaches
  // ONE ff_uring (a single sealed-entry arming crossing), and from then on
  // accepted fds, readiness, zc loans and recycle batches all move through
  // the ring — the iperf server port drives it unmodified.
  constexpr std::uint64_t kVolume = 256 * 1024;
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, kVolume,
                  fast_options());
  rig.testbed().peer(0).run_iperf_client(MorelloTestbed::morello_ip(0), 5201,
                                         kVolume);
  const auto& entries = rig.testbed().intravisor().entries();
  std::uint64_t received = 0;
  std::uint64_t ring_crossings = 0;
  rig.run(0, [&] {
    apps::IperfServer srv(&rig.ops(), &rig.testbed().clock(), 5201,
                          rig.alloc(16 * 1024), 1);
    const machine::CapView ring_mem =
        rig.alloc(fstack::FfUring::bytes_for(32, 64));
    const std::uint64_t before = entries.crossings();
    EXPECT_EQ(srv.use_uring(ring_mem, 32, 64), 0);
    while (!srv.finished() && rig.turn(srv.step())) {
    }
    // Crossings attributable to moving the whole volume through the ring:
    // the arm, the accept-time epoll_ctl, teardown, and doorbells.
    ring_crossings = entries.crossings() - before;
    received = srv.report().bytes;
  });

  EXPECT_EQ(received, kVolume);
  FullStackInstance& inst = rig.service()->instance();
  const auto& api = inst.stack().api_stats();
  EXPECT_GE(api.uring_attaches, 1u);
  EXPECT_GT(api.uring_sqes, 0u);
  EXPECT_GT(api.uring_cqes, 0u);
  EXPECT_EQ(api.zc_rx_recycles, api.zc_rx_loans);
  EXPECT_EQ(inst.stack().rx_stats().copied_bytes, 0u);
  // 176+ MSS segments moved through the boundary on a handful of sealed
  // jumps — nothing remotely per-op (the v2 zc path paid one per burst).
  EXPECT_LT(ring_crossings, 48u);
}

TEST(Scenario2Proxy, ZcSendOnDeadConnectionLeavesTheSameHandleAsDirect) {
  // OP_ZC_SEND consumes the token when the TCP connection is dead. A
  // proxied app's ring must end exactly where a direct caller's does: the
  // send answers -ECONNREFUSED and a late OP_ZC_ABORT of the same token
  // answers -EINVAL on both.
  for (const ScenarioKind kind :
       {ScenarioKind::kBaseline1Proc, ScenarioKind::kScenario2Uncontended}) {
    SCOPED_TRACE(to_string(kind));
    LockstepRig rig(kind, 1, 0, fast_options());
    apps::FfOps& ops = rig.ops();
    const machine::CapView probe = rig.alloc(16);
    const machine::CapView ring_mem =
        rig.alloc(fstack::FfUring::bytes_for(8, 8));
    rig.run(0, [&] {
      // Nothing listens on the peer's port: the SYN earns an RST.
      const int fd = ops.socket_stream();
      ops.connect(fd, MorelloTestbed::peer_ip(0), 5999);
      while (ops.write(fd, probe, 1) != -ECONNREFUSED && rig.turn(false)) {
      }
      fstack::FfUring ring(ring_mem, 8, 8);
      const int id = ops.uring_attach(ring_mem, 8, 8);
      ASSERT_GT(id, 0);
      // One SQE at a time, each drained by its own doorbell.
      const auto submit = [&](const fstack::FfUringSqe& e) {
        fstack::FfUringCqe cqe;
        EXPECT_NE(ring.sq_push(e), fstack::FfUring::Push::kFull);
        ops.uring_doorbell(id);
        EXPECT_EQ(ring.cq_pop({&cqe, 1}), 1u);
        return cqe;
      };
      fstack::FfUringSqe alloc;
      alloc.op = fstack::UringOp::kZcAlloc;
      alloc.a[0] = 1;
      alloc.a[1] = 64;
      const fstack::FfUringCqe grant = submit(alloc);
      ASSERT_EQ(grant.result, 64);
      fstack::FfUringSqe send;
      send.op = fstack::UringOp::kZcSend;
      send.fd = fd;
      send.a[0] = grant.aux0;
      send.a[1] = 64;
      EXPECT_EQ(submit(send).result, -ECONNREFUSED);
      fstack::FfUringSqe abort;
      abort.op = fstack::UringOp::kZcAbort;
      abort.a[0] = grant.aux0;
      EXPECT_EQ(submit(abort).result, -EINVAL);
      ops.uring_detach(id);
      ops.close(fd);
    });
  }
}

TEST(Scenario2Proxy, ShortBuffersFaultBeforeTheStackMovesAnything) {
  // A sealed entry checks its capability arguments before the stack call:
  // the ff_epoll_wait entry marshals one 12-byte record per event into the
  // app's cap0, and a buffer too short for the events asked for answers
  // -EFAULT before an event is consumed. The ff_read entry forwards its
  // buffer to the stack's own check, which answers through the same door:
  // 64 bytes claimed over a 16-byte view is -EFAULT, and every byte stays
  // queued for a good call.
  constexpr std::uint64_t kVolume = 64 * 1024;
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, kVolume,
                  fast_options());
  rig.testbed().peer(0).run_iperf_client(MorelloTestbed::morello_ip(0), 5201,
                                         kVolume);
  FullStackInstance& inst = rig.service()->instance();
  auto& ops = dynamic_cast<ProxyFfOps&>(rig.ops());
  auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView short_buf = rig.alloc(16);
  rig.run(0, [&] {
    const int lfd = ops.socket_stream();
    ops.bind(lfd, fstack::Ipv4Addr{}, 5201);
    ops.listen(lfd, 4);
    int cfd = -1;
    while ((cfd = ops.accept(lfd)) < 0 && rig.turn(false)) {
    }
    ASSERT_GE(cfd, 0);
    const int ep = ops.epoll_create();
    ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                  static_cast<std::uint64_t>(cfd));
    const fstack::TcpPcb* pcb = inst.stack().sockets().get(cfd)->pcb;
    while (pcb->rx_used() < 16 * 1024 && rig.turn(false)) {
    }
    const std::size_t queued0 = pcb->rx_used();
    ASSERT_GE(queued0, 16u * 1024u);

    machine::CrossCallArgs w;
    w.a[0] = static_cast<std::uint64_t>(ep);
    w.a[1] = 8;  // eight records want 96 bytes; cap0 grants 16
    w.cap0 = short_buf;
    EXPECT_EQ(static_cast<std::int64_t>(
                  entries.invoke(ops.entry(ProxyFfOps::kEpollWait), w)),
              -EFAULT);

    machine::CrossCallArgs rd;
    rd.a[0] = static_cast<std::uint64_t>(cfd);
    rd.a[1] = 64;
    rd.cap0 = short_buf;
    EXPECT_EQ(static_cast<std::int64_t>(
                  entries.invoke(ops.entry(ProxyFfOps::kRead), rd)),
              -EFAULT);
    EXPECT_EQ(pcb->rx_used(), queued0);

    // The fd is still readable, and the bytes still read through good
    // calls.
    fstack::FfEpollEvent evs[8];
    EXPECT_EQ(ops.epoll_wait(ep, evs), 1);
    EXPECT_EQ(ops.read(cfd, short_buf, 16), 16);
    EXPECT_EQ(pcb->rx_used(), queued0 - 16);
    ops.close(ep);
    ops.close(cfd);
    ops.close(lfd);
  });
}

TEST(Scenario2Proxy, EchoServerIdleStepsCrossNothing) {
  // The echo server waits on epoll, and the proxy answers from its
  // readiness mirror: with four established connections, a step that
  // echoes one request crosses only for readv and writev (the request's
  // edge CQE answers the wait, and the short readv lowers the mask again);
  // every step after it crosses nothing.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 64 * 1024,
                  fast_options());
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  const auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView scratch = rig.alloc(4096);
  const machine::CapView tx = rig.alloc(256);  // the peer's request
  const machine::CapView rx = rig.alloc(256);  // and its echo
  std::unique_ptr<apps::EchoServer> srv;
  rig.run(0, [&] {
    srv = std::make_unique<apps::EchoServer>(&rig.ops(), 7000, scratch);
  });
  struct Step {
    bool progress;
    std::uint64_t crossings;
  };
  const auto step = [&] {
    const std::uint64_t before = entries.crossings();
    const bool progress = rig.run(0, [&] { return srv->step(); });
    return Step{progress, entries.crossings() - before};
  };

  std::array<int, 4> fds{};
  for (int& fd : fds) {
    fd = fstack::ff_socket(peer, fstack::kAfInet, fstack::kSockStream, 0);
    ASSERT_EQ(fstack::ff_connect(peer, fd, {MorelloTestbed::morello_ip(0),
                                            7000}),
              -EINPROGRESS);
  }
  // Send `len` bytes tagged `tag` on connection c and step until their
  // echo is back; returns every step from the first that made progress.
  const auto round_trip = [&](std::size_t c, std::size_t len,
                              std::uint8_t tag) {
    std::vector<Step> steps;
    for (std::size_t i = 0; i < len; ++i) {
      tx.store<std::uint8_t>(i, static_cast<std::uint8_t>(tag + i * 7));
    }
    std::size_t sent = 0;
    std::vector<std::uint8_t> got;
    for (int i = 0; i < 10'000 && got.size() < len; ++i) {
      if (sent == 0) {  // retried until the connection takes it
        const auto w = fstack::ff_write(peer, fds[c], tx, len);
        if (w > 0) sent = static_cast<std::size_t>(w);
      }
      const Step s = step();
      if (s.progress || !steps.empty()) steps.push_back(s);
      const auto r = fstack::ff_read(peer, fds[c], rx, rx.size());
      for (std::int64_t k = 0; k < r; ++k) {
        got.push_back(rx.load<std::uint8_t>(static_cast<std::uint64_t>(k)));
      }
      rig.turn(s.progress);
    }
    EXPECT_EQ(sent, len);
    EXPECT_EQ(got.size(), len);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], static_cast<std::uint8_t>(tag + i * 7)) << i;
    }
    return steps;
  };
  // Setup: each connection is accepted and echoes one request.
  for (std::size_t c = 0; c < fds.size(); ++c) {
    round_trip(c, 64, static_cast<std::uint8_t>(c * 40));
  }

  for (int i = 0; i < 3; ++i) {
    const Step idle = step();
    EXPECT_FALSE(idle.progress);
    EXPECT_EQ(idle.crossings, 0u);  // answered from the readiness ring
    rig.turn(false);
  }
  const std::vector<Step> steps = round_trip(2, 200, 0x5A);
  ASSERT_GE(steps.size(), 2u);
  EXPECT_TRUE(steps[0].progress);
  EXPECT_EQ(steps[0].crossings, 2u);  // readv, writev
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_FALSE(steps[i].progress) << i;
    EXPECT_EQ(steps[i].crossings, 0u) << i;
  }
  const Step idle = step();
  EXPECT_FALSE(idle.progress);
  EXPECT_EQ(idle.crossings, 0u);
}

TEST(Scenario2Proxy, IperfClientWaitsForSendSpaceWithoutCrossing) {
  // The client writes only when epoll_wait reports send space. Against a
  // peer that never reads, its buffer fills: the wait after the short
  // write crosses once to see it full, and every step after that crosses
  // nothing while the buffer stays full.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 4 << 20,
                  fast_options());
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  const int lfd = fstack::ff_socket(peer, fstack::kAfInet,
                                    fstack::kSockStream, 0);
  ASSERT_EQ(fstack::ff_bind(peer, lfd, {fstack::Ipv4Addr{}, 5301}), 0);
  ASSERT_EQ(fstack::ff_listen(peer, lfd, 1), 0);
  const auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView buf = rig.alloc(1448);
  std::unique_ptr<apps::IperfClient> cli;
  rig.run(0, [&] {
    cli = std::make_unique<apps::IperfClient>(
        &rig.ops(), &rig.testbed().clock(), MorelloTestbed::peer_ip(0), 5301,
        std::uint64_t{64} << 20, buf);
  });
  // Step until a step made progress and the next several made none: the
  // send buffer and the peer's window are full.
  int quiet = 0;
  for (int i = 0; i < 20'000 && quiet < 50; ++i) {
    const bool progress = rig.run(0, [&] { return cli->step(); });
    quiet = progress ? 0 : quiet + 1;
    rig.turn(progress);
  }
  ASSERT_EQ(quiet, 50);
  EXPECT_FALSE(cli->finished());
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t before = entries.crossings();
    EXPECT_FALSE(rig.run(0, [&] { return cli->step(); }));
    EXPECT_EQ(entries.crossings() - before, 0u) << i;
    rig.turn(false);
  }
}

TEST(Scenario2Proxy, IperfClientCrossingsPerMibArePinned) {
  // A proxied IperfClient against the peer's iperf server: every crossing
  // is a write, a wait or the setup and close-out. EPOLLOUT waits for the
  // send buffer's low-water mark, so a wake buys a batch of writes, and
  // the wake's own wait is answered from its edge CQE: 744.5 crossings per
  // MiB against a floor of 724 (one per 1448-byte write). The gather path
  // (8 MSS per ff_writev) waits the same way: 110.5 per MiB against a
  // floor of 90.5.
  constexpr std::uint64_t kBytes = 4 << 20;
  for (const auto& [batch, pinned] :
       {std::pair<std::size_t, std::uint64_t>{1, 2978}, {8, 442}}) {
    SCOPED_TRACE(batch);
    LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 8 << 20,
                    fast_options());
    PeerHost& peer = rig.testbed().peer(0);
    peer.serve_iperf(5201, 1);
    const auto& entries = rig.testbed().intravisor().entries();
    const machine::CapView buf = rig.alloc(1448);
    const std::uint64_t before = entries.crossings();
    std::unique_ptr<apps::IperfClient> cli;
    rig.run(0, [&] {
      cli = std::make_unique<apps::IperfClient>(
          &rig.ops(), &rig.testbed().clock(), MorelloTestbed::peer_ip(0),
          5201, kBytes, buf, 1448, batch);
    });
    while (!cli->finished()) {
      const bool progress = rig.run(0, [&] { return cli->step(); });
      ASSERT_TRUE(rig.turn(progress));
    }
    const std::uint64_t crossings = entries.crossings() - before;
    while (!peer.workload_finished() && rig.turn(false)) {
    }
    ASSERT_TRUE(peer.workload_finished());
    EXPECT_EQ(peer.server()->report().bytes, kBytes);
    EXPECT_EQ(crossings, pinned);
  }
}

TEST(Scenario2Proxy, IperfServerStopsReadingAtAShortRead) {
  // A read shorter than the buffer proves the socket drained, so a
  // readable wakeup crosses once: the wait is answered from the edge CQE,
  // and the one read ends the drain instead of a read that answers
  // -EAGAIN.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 4 << 20,
                  fast_options());
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  const auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView rx = rig.alloc(16 * 1024);
  const machine::CapView tx = rig.alloc(1000);
  std::unique_ptr<apps::IperfServer> srv;
  rig.run(0, [&] {
    srv = std::make_unique<apps::IperfServer>(
        &rig.ops(), &rig.testbed().clock(), 5302, rx);
  });
  const auto received = [&] {
    std::uint64_t n = 0;
    for (const apps::IperfReport& r : srv->connection_reports()) n += r.bytes;
    return n;
  };
  const auto step = [&] {  // returns the step's crossings
    const std::uint64_t before = entries.crossings();
    rig.turn(rig.run(0, [&] { return srv->step(); }));
    return entries.crossings() - before;
  };
  const int fd = fstack::ff_socket(peer, fstack::kAfInet,
                                   fstack::kSockStream, 0);
  ASSERT_EQ(fstack::ff_connect(peer, fd, {MorelloTestbed::morello_ip(0),
                                          5302}),
            -EINPROGRESS);
  std::uint64_t expect = 0;
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    std::int64_t w = -EAGAIN;
    for (int i = 0; i < 1000 && w == -EAGAIN; ++i) {
      w = fstack::ff_write(peer, fd, tx, 1000);
      if (w == -EAGAIN) step();  // accepts the connection first
    }
    ASSERT_EQ(w, 1000);
    expect += 1000;
    std::vector<std::uint64_t> wakes;  // crossings of each step that read
    for (int i = 0; i < 1000 && received() < expect; ++i) {
      const std::uint64_t got = received();
      const std::uint64_t crossings = step();
      if (received() != got) wakes.push_back(crossings);
    }
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], 1u);  // the read
  }
  EXPECT_FALSE(srv->finished());
}

TEST(Scenario2Proxy, IperfServerFinishesAStreamWhoseFinRidesItsLastData) {
  // The peer writes and closes at once, so the FIN lands right behind the
  // last data, before the server reads any of it. Reads that fill the
  // buffer go on; the short read that takes the rest stops the drain; the
  // next level-triggered wait still reports the fd, and its read sees EOF.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 4 << 20,
                  fast_options());
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  const auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView rx = rig.alloc(1024);
  const machine::CapView tx = rig.alloc(3000);
  std::unique_ptr<apps::IperfServer> srv;
  rig.run(0, [&] {
    srv = std::make_unique<apps::IperfServer>(
        &rig.ops(), &rig.testbed().clock(), 5303, rx);
  });
  const auto received = [&] {
    std::uint64_t n = 0;
    for (const apps::IperfReport& r : srv->connection_reports()) n += r.bytes;
    return n;
  };
  const auto step = [&] {
    const bool progress = rig.run(0, [&] { return srv->step(); });
    rig.turn(progress);
    return progress;
  };
  const int fd = fstack::ff_socket(peer, fstack::kAfInet,
                                   fstack::kSockStream, 0);
  ASSERT_EQ(fstack::ff_connect(peer, fd, {MorelloTestbed::morello_ip(0),
                                          5303}),
            -EINPROGRESS);
  for (int i = 0; i < 1000 && !step(); ++i) {  // until accepted
  }
  ASSERT_EQ(fstack::ff_write(peer, fd, tx, 3000), 3000);
  ASSERT_EQ(fstack::ff_close(peer, fd), 0);
  for (int i = 0; i < 200; ++i) rig.turn(false);  // data and FIN land
  const std::uint64_t before = entries.crossings();
  ASSERT_TRUE(step());
  EXPECT_EQ(received(), 3000u);
  EXPECT_EQ(entries.crossings() - before, 4u);  // the wait, 1024+1024+952
  EXPECT_FALSE(srv->finished());  // the short read stopped the drain
  ASSERT_TRUE(step());
  EXPECT_TRUE(srv->finished());
  EXPECT_EQ(srv->report().bytes, 3000u);
}

TEST(Scenario2Proxy, EchoTailOutlastsAPausedReader) {
  // An echo that outruns a small send buffer while its reader pauses: the
  // server keeps the unsent tail and waits for EPOLLOUT, which reports
  // only past the send buffer's low-water mark. Every byte still comes
  // back in order once the reader resumes (no lost wakeup), and every
  // wait answer the proxy gives is the stack's.
  TestbedOptions opt = fast_options();
  opt.sndbuf_bytes = 16 * 1024;
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 64 << 20, opt);
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  CheckedWaits ops(rig.ops(), rig.service()->instance().stack(),
                   rig.testbed().intravisor().entries());
  const machine::CapView scratch = rig.alloc(4096);
  const machine::CapView tx = rig.alloc(8 * 1024);
  const machine::CapView rx = rig.alloc(64 * 1024);
  std::unique_ptr<apps::EchoServer> srv;
  rig.run(0, [&] {
    srv = std::make_unique<apps::EchoServer>(&ops, 7000, scratch);
  });
  std::vector<std::byte> msg(1 << 20);
  std::mt19937_64 rng(7);
  for (std::byte& b : msg) b = static_cast<std::byte>(rng());
  const int fd = fstack::ff_socket(peer, fstack::kAfInet,
                                   fstack::kSockStream, 0);
  ASSERT_EQ(fstack::ff_connect(peer, fd, {MorelloTestbed::morello_ip(0),
                                          7000}),
            -EINPROGRESS);
  std::size_t sent = 0;
  std::vector<std::byte> got;
  std::vector<std::byte> chunk(rx.size());
  for (int i = 0; i < 400'000 && got.size() < msg.size(); ++i) {
    if (sent < msg.size()) {
      const std::size_t n =
          std::min<std::size_t>(tx.size(), msg.size() - sent);
      tx.write(0, std::span{msg}.subspan(sent, n));
      const std::int64_t w = fstack::ff_write(peer, fd, tx, n);
      if (w > 0) sent += static_cast<std::size_t>(w);
    }
    if ((i / 2000) % 2 == 1) {  // the reader pauses every other 2000 turns
      const std::int64_t r = fstack::ff_read(peer, fd, rx, rx.size());
      if (r > 0) {
        rx.read(0, std::span{chunk}.first(static_cast<std::size_t>(r)));
        got.insert(got.end(), chunk.begin(), chunk.begin() + r);
      }
    }
    const bool progress = rig.run(0, [&] { return srv->step(); });
    rig.turn(progress);
  }
  ASSERT_EQ(got.size(), msg.size());
  EXPECT_TRUE(got == msg);
  EXPECT_EQ(srv->bytes_echoed(), msg.size());
  EXPECT_GT(ops.mods, 0u);  // the server waited on EPOLLOUT for its tail
}

TEST(Scenario2Proxy, LocalWaitAnswersMatchTheStackSeeded) {
  // Differential check of the proxy's local answers: a seeded peer drives
  // an EchoServer (requests on four connections, one of them read only
  // in phases so the echo backs up and the server flips its interest to
  // EPOLLOUT and back, and connections closed and reopened), and every
  // epoll_wait answer the proxy gives must equal the stack's own answer
  // at that instant.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    TestbedOptions opt = fast_options();
    opt.sndbuf_bytes = 16 * 1024;  // a backed-up echo soon writes short
    LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 64 << 20, opt);
    fstack::FfStack& peer = rig.testbed().peer(0).stack();
    CheckedWaits ops(rig.ops(), rig.service()->instance().stack(),
                     rig.testbed().intravisor().entries());
    const machine::CapView scratch = rig.alloc(4096);
    const machine::CapView tx = rig.alloc(2048);
    const machine::CapView rx = rig.alloc(64 * 1024);
    std::unique_ptr<apps::EchoServer> srv;
    rig.run(0, [&] {
      srv = std::make_unique<apps::EchoServer>(&ops, 7000, scratch);
    });
    const auto open = [&] {
      const int fd =
          fstack::ff_socket(peer, fstack::kAfInet, fstack::kSockStream, 0);
      EXPECT_EQ(fstack::ff_connect(peer, fd, {MorelloTestbed::morello_ip(0),
                                              7000}),
                -EINPROGRESS);
      return fd;
    };
    std::array<int, 4> fds{};
    for (int& fd : fds) fd = open();
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t roll = rng() % 100;
      const std::size_t c = rng() % fds.size();
      const bool slow_reads = (i / 400) % 2 == 1;  // conn 0's read phases
      if (roll < 40) {
        const std::size_t k = c < 2 ? 0 : c;  // half the requests: conn 0
        const std::size_t len = 1 + rng() % tx.size();
        for (std::size_t b = 0; b < len; b += 64) {
          tx.store<std::uint8_t>(b, static_cast<std::uint8_t>(rng()));
        }
        (void)fstack::ff_write(peer, fds[k], tx, len);
      } else if (roll < 70 && (c != 0 || slow_reads)) {
        while (fstack::ff_read(peer, fds[c], rx, rx.size()) > 0) {
        }
      } else if (roll < 72 && c != 0) {
        fstack::ff_close(peer, fds[c]);
        fds[c] = open();
      }
      const bool progress = rig.run(0, [&] { return srv->step(); });
      rig.turn(progress);
    }
    EXPECT_GT(srv->bytes_echoed(), 0u);
    EXPECT_GT(ops.mods, 0u);    // EPOLLIN <-> EPOLLOUT flips happened
    EXPECT_GT(ops.closes, 0u);  // watched fds closed
    EXPECT_GT(ops.local, ops.waits / 2);  // most waits never crossed
  }
}

TEST(Scenario2Proxy, WaitStaysRightWhenTheAppArmsItsOwnRing) {
  // An app that arms its own ring on an epfd the proxy watches takes the
  // arm away; the proxy's ring hears it end and from then on every wait
  // crosses, so each answer is still the stack's.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 4 << 20,
                  fast_options());
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  const auto& entries = rig.testbed().intravisor().entries();
  CheckedWaits ops(rig.ops(), rig.service()->instance().stack(), entries);
  const int lfd =
      fstack::ff_socket(peer, fstack::kAfInet, fstack::kSockStream, 0);
  ASSERT_EQ(fstack::ff_bind(peer, lfd, {fstack::Ipv4Addr{}, 5302}), 0);
  ASSERT_EQ(fstack::ff_listen(peer, lfd, 1), 0);
  const machine::CapView buf = rig.alloc(4096);
  const machine::CapView ring_mem =
      rig.alloc(fstack::FfUring::bytes_for(8, 8));
  int fd = -1;
  int ep = -1;
  rig.run(0, [&] {
    fd = ops.socket_stream();
    ops.connect(fd, MorelloTestbed::peer_ip(0), 5302);
    ep = ops.epoll_create();
    ops.epoll_ctl(ep, fstack::EpollOp::kAdd, fd, fstack::kEpollIn, 9);
  });
  int pfd = -1;
  for (int i = 0; i < 10'000 && pfd < 0; ++i) {
    pfd = fstack::ff_accept(peer, lfd, nullptr);
    rig.turn(false);
  }
  ASSERT_GE(pfd, 0);
  fstack::FfEpollEvent ev[4];
  const auto wait = [&] {
    const std::uint64_t before = entries.crossings();
    const int n = rig.run(0, [&] { return ops.epoll_wait(ep, ev); });
    rig.turn(false);
    return std::pair{n, entries.crossings() - before};
  };
  const auto deliver = [&](std::size_t len) {
    ASSERT_EQ(fstack::ff_write(peer, pfd, buf, len),
              static_cast<std::int64_t>(len));
    for (int i = 0; i < 100; ++i) rig.turn(false);
  };
  for (int i = 0; i < 3; ++i) (void)wait();
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{0, 0}));  // local
  deliver(100);
  EXPECT_EQ(wait().first, 1);  // the edge made it cross
  rig.run(0, [&] {
    while (ops.read(fd, buf, buf.size()) > 0) {
    }
  });
  (void)wait();
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{0, 0}));

  // The app arms its own ring on the same epfd.
  fstack::FfUring ring(ring_mem, 8, 8);
  int id = -1;
  rig.run(0, [&] {
    id = ops.uring_attach(ring_mem, 8, 8);
    ASSERT_TRUE(apps::push_epoll_arm(ring, ep, 77));
    if (ring.stack_parked()) ops.uring_doorbell(id);
  });
  ASSERT_GT(id, 0);
  for (int i = 0; i < 10; ++i) rig.turn(false);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wait().second, 1u) << i;
  deliver(200);
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{1, 1}));
  fstack::FfUringCqe cq[8];
  const std::size_t got = ring.cq_pop(cq);
  ASSERT_GE(got, 1u);
  EXPECT_EQ(cq[got - 1].user_data, 77u);  // the app's arm saw the edge
  EXPECT_NE(cq[got - 1].result & fstack::kEpollIn, 0);
  rig.run(0, [&] {
    while (ops.read(fd, buf, buf.size()) > 0) {
    }
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{0, 1})) << i;
  }
  rig.run(0, [&] { ops.uring_detach(id); });
}

TEST(Scenario2Proxy, WaitAfterAnotherCrossingCrosses) {
  // An epoll_ctl that adds an already-readable fd changes the answer
  // before the loop publishes anything: the new fd's mask is unknown, so
  // the next wait must cross and see it.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 4 << 20,
                  fast_options());
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  const auto& entries = rig.testbed().intravisor().entries();
  CheckedWaits ops(rig.ops(), rig.service()->instance().stack(), entries);
  const int lfd =
      fstack::ff_socket(peer, fstack::kAfInet, fstack::kSockStream, 0);
  ASSERT_EQ(fstack::ff_bind(peer, lfd, {fstack::Ipv4Addr{}, 5303}), 0);
  ASSERT_EQ(fstack::ff_listen(peer, lfd, 1), 0);
  const machine::CapView buf = rig.alloc(256);
  int fd = -1;
  int ep = -1;
  rig.run(0, [&] {
    fd = ops.socket_stream();
    ops.connect(fd, MorelloTestbed::peer_ip(0), 5303);
    ep = ops.epoll_create();
  });
  int pfd = -1;
  for (int i = 0; i < 10'000 && pfd < 0; ++i) {
    pfd = fstack::ff_accept(peer, lfd, nullptr);
    rig.turn(false);
  }
  ASSERT_GE(pfd, 0);
  ASSERT_EQ(fstack::ff_write(peer, pfd, buf, 100), 100);
  for (int i = 0; i < 100; ++i) rig.turn(false);
  fstack::FfEpollEvent ev[4];
  const auto wait = [&] {
    const std::uint64_t before = entries.crossings();
    const int n = rig.run(0, [&] { return ops.epoll_wait(ep, ev); });
    return std::pair{n, entries.crossings() - before};
  };
  for (int i = 0; i < 3; ++i) {
    (void)wait();
    rig.turn(false);
  }
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{0, 0}));  // local
  rig.run(0, [&] {
    ops.epoll_ctl(ep, fstack::EpollOp::kAdd, fd, fstack::kEpollIn, 4);
  });
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{1, 1}));
  EXPECT_EQ(ev[0].data, 4u);
}

TEST(Scenario2Proxy, AnotherAppKeepsTheQuietUnlessItChangesInterest) {
  // Two apps on one shard. App B's ordinary crossings cannot add
  // readiness to app A's interest set, so A keeps answering 0 without
  // crossing; B's epoll_ctl on A's epfd can, and A's next wait crosses.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 4 << 20,
                  fast_options());
  const int b = rig.add_app("cVM3");
  fstack::FfStack& peer = rig.testbed().peer(0).stack();
  const auto& entries = rig.testbed().intravisor().entries();
  CheckedWaits ops(rig.ops(), rig.service()->instance().stack(), entries);
  const int lfd =
      fstack::ff_socket(peer, fstack::kAfInet, fstack::kSockStream, 0);
  ASSERT_EQ(fstack::ff_bind(peer, lfd, {fstack::Ipv4Addr{}, 5304}), 0);
  ASSERT_EQ(fstack::ff_listen(peer, lfd, 2), 0);
  const machine::CapView buf = rig.alloc(256, b);
  int fd_a = -1;
  int ep = -1;
  int fd_b = -1;
  // B connects first, so the peer's first accepted fd is B's.
  rig.run(b, [&] {
    fd_b = rig.ops(b).socket_stream();
    rig.ops(b).connect(fd_b, MorelloTestbed::peer_ip(0), 5304);
  });
  const auto accept_one = [&] {
    int fd = -1;
    for (int i = 0; i < 10'000 && fd < 0; ++i) {
      fd = fstack::ff_accept(peer, lfd, nullptr);
      rig.turn(false);
    }
    return fd;
  };
  const int peer_b = accept_one();
  ASSERT_GE(peer_b, 0);
  rig.run(0, [&] {
    fd_a = ops.socket_stream();
    ops.connect(fd_a, MorelloTestbed::peer_ip(0), 5304);
    ep = ops.epoll_create();
    ops.epoll_ctl(ep, fstack::EpollOp::kAdd, fd_a, fstack::kEpollIn, 1);
  });
  ASSERT_GE(accept_one(), 0);
  fstack::FfEpollEvent ev[4];
  const auto wait = [&] {
    const std::uint64_t before = entries.crossings();
    const int n = rig.run(0, [&] { return ops.epoll_wait(ep, ev); });
    return std::pair{n, entries.crossings() - before};
  };
  for (int i = 0; i < 3; ++i) {
    (void)wait();
    rig.turn(false);
  }
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{0, 0}));
  // B's writes cross, and the peer's bytes make B's fd readable.
  for (int i = 0; i < 3; ++i) {
    rig.run(b, [&] { return rig.ops(b).write(fd_b, buf, 100); });
    EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{0, 0})) << i;
    rig.turn(false);
  }
  ASSERT_EQ(fstack::ff_write(peer, peer_b, buf, 50), 50);
  for (int i = 0; i < 100; ++i) rig.turn(false);
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{0, 0}));  // not A's fd
  rig.run(b, [&] {
    rig.ops(b).epoll_ctl(ep, fstack::EpollOp::kAdd, fd_b, fstack::kEpollIn,
                         2);
  });
  EXPECT_EQ(wait(), (std::pair<int, std::uint64_t>{1, 1}));
  EXPECT_EQ(ev[0].data, 2u);
}

namespace {
/// The readiness mirror's stage: one proxied connection, accepted by the
/// peer, whose fd sits in one epfd with cookie 9, and every wait checked
/// by CheckedWaits. The waits the constructor makes arm the proxy's ring
/// and rebaseline the mirror.
struct WatchedConnection {
  explicit WatchedConnection(std::uint16_t port)
      : rig(ScenarioKind::kScenario2Uncontended, 1, 4 << 20, fast_options()),
        peer(rig.testbed().peer(0).stack()),
        entries(rig.testbed().intravisor().entries()),
        ops(rig.ops(), rig.service()->instance().stack(), entries),
        buf(rig.alloc(4096)),
        lfd(fstack::ff_socket(peer, fstack::kAfInet, fstack::kSockStream,
                              0)),
        port(port) {
    EXPECT_EQ(fstack::ff_bind(peer, lfd, {fstack::Ipv4Addr{}, port}), 0);
    EXPECT_EQ(fstack::ff_listen(peer, lfd, 4), 0);
    rig.run(0, [&] { ep = ops.epoll_create(); });
    std::tie(fd, pfd) = open(9);
    for (int i = 0; i < 3; ++i) {
      (void)wait();
      rig.turn(false);
    }
  }
  /// Connect one more fd, add it to the epfd with `cookie`; returns it and
  /// the peer's end.
  std::pair<int, int> open(std::uint64_t cookie) {
    int c = -1;
    rig.run(0, [&] {
      c = ops.socket_stream();
      ops.connect(c, MorelloTestbed::peer_ip(0), port);
      EXPECT_EQ(ops.epoll_ctl(ep, fstack::EpollOp::kAdd, c, fstack::kEpollIn,
                              cookie),
                0);
    });
    int p = -1;
    for (int i = 0; i < 10'000 && p < 0; ++i) {
      p = fstack::ff_accept(peer, lfd, nullptr);
      rig.turn(false);
    }
    EXPECT_GE(p, 0);
    return {c, p};
  }
  /// One epoll_wait into the first `max` records of `ev`: the answer and
  /// the crossings it made.
  std::pair<int, std::uint64_t> wait(std::size_t max = 4) {
    const std::uint64_t before = entries.crossings();
    const int n = rig.run(
        0, [&] { return ops.epoll_wait(ep, std::span{ev}.first(max)); });
    return {n, entries.crossings() - before};
  }
  std::int64_t read(int on, std::size_t n) {
    return rig.run(0, [&] { return ops.read(on, buf, n); });
  }
  /// The peer writes `n` bytes on `to`, and the rig runs until they land.
  void deliver(int to, std::size_t n) {
    ASSERT_EQ(fstack::ff_write(peer, to, buf, n),
              static_cast<std::int64_t>(n));
    settle();
  }
  void settle() {
    for (int i = 0; i < 100; ++i) rig.turn(false);
  }

  LockstepRig rig;
  fstack::FfStack& peer;
  const machine::EntryRegistry& entries;
  CheckedWaits ops;
  machine::CapView buf;
  int lfd;
  std::uint16_t port;
  int ep = -1;
  int fd = -1;   // the watched connection
  int pfd = -1;  // and the peer's end of it
  std::array<fstack::FfEpollEvent, 4> ev{};
};

using Answer = std::pair<int, std::uint64_t>;  // events, crossings
}  // namespace

TEST(Scenario2Proxy, FullLengthReadMakesTheMaskUnknown) {
  // A read that fills its buffer may leave bytes behind, so the wait
  // after it crosses; that holds when the bytes ran out exactly as well.
  WatchedConnection c(5310);
  EXPECT_EQ(c.wait(), (Answer{0, 0}));
  c.deliver(c.pfd, 300);
  EXPECT_EQ(c.wait(), (Answer{1, 0}));  // the edge CQE answers
  EXPECT_EQ(c.read(c.fd, 100), 100);
  EXPECT_EQ(c.wait(), (Answer{1, 1}));  // 200 bytes are left
  EXPECT_EQ(c.read(c.fd, 200), 200);
  EXPECT_EQ(c.wait(), (Answer{0, 1}));  // full-length, but drained
  EXPECT_EQ(c.wait(), (Answer{0, 0}));
}

TEST(Scenario2Proxy, ShortReadKeepsWhatAFinOrAResetLeaves) {
  // The peer writes and closes at once: the short read that drains the
  // data uncovers HUP, and the loop's next pass posts it. Behind a reset
  // the mask already holds ERR|HUP, so a short read leaves IN in it.
  WatchedConnection c(5311);
  ASSERT_EQ(fstack::ff_write(c.peer, c.pfd, c.buf, 500), 500);
  ASSERT_EQ(fstack::ff_close(c.peer, c.pfd), 0);
  c.settle();
  EXPECT_EQ(c.wait(), (Answer{1, 0}));
  EXPECT_EQ(c.ev[0].events, fstack::kEpollIn);
  EXPECT_EQ(c.read(c.fd, 4096), 500);
  c.rig.turn(false);
  EXPECT_EQ(c.wait(), (Answer{1, 0}));
  EXPECT_EQ(c.ev[0].events, fstack::kEpollIn | fstack::kEpollHup);
  EXPECT_EQ(c.read(c.fd, 4096), 0);  // EOF
  EXPECT_EQ(c.wait(), (Answer{1, 1}));

  const auto [fd, pfd] = c.open(10);
  c.deliver(pfd, 500);
  c.peer.sockets().get(pfd)->pcb->abort(ECONNRESET);  // RST on the wire
  c.settle();
  (void)c.wait();
  constexpr std::uint32_t kReset =
      fstack::kEpollIn | fstack::kEpollErr | fstack::kEpollHup;
  EXPECT_EQ(c.wait(), (Answer{2, 0}));
  EXPECT_EQ(c.ev[1].events, kReset);
  EXPECT_EQ(c.read(fd, 4096), 500);
  EXPECT_EQ(c.wait(), (Answer{2, 0}));
  EXPECT_EQ(c.ev[1].events, kReset);
  EXPECT_EQ(c.read(fd, 4096), -ECONNRESET);
  EXPECT_EQ(c.wait(), (Answer{2, 1}));
}

TEST(Scenario2Proxy, ReadBeforeItsEdgeIsReapedLeavesNoStaleIn) {
  // The edge of the bytes is still in the CQ when the app reads them all:
  // the read's crossing reaps it first, so the short read's fall is the
  // last word.
  WatchedConnection c(5312);
  c.deliver(c.pfd, 300);
  EXPECT_EQ(c.read(c.fd, 4096), 300);
  EXPECT_EQ(c.wait(), (Answer{0, 0}));
  c.deliver(c.pfd, 300);
  EXPECT_EQ(c.wait(), (Answer{1, 0}));
}

TEST(Scenario2Proxy, AnotherUntenantedAppReadingOurFdMakesTheWaitCross) {
  // Untenanted apps share fds: app B drains app A's connection. A's edge
  // CQE still says IN, so a non-zero answer needs that no other app
  // crossed since A's last rebaseline.
  WatchedConnection c(5313);
  const int b = c.rig.add_app("cVM3");
  const machine::CapView buf_b = c.rig.alloc(4096, b);
  c.deliver(c.pfd, 300);
  EXPECT_EQ(c.wait(), (Answer{1, 0}));
  EXPECT_EQ(c.rig.run(b, [&] { return c.rig.ops(b).read(c.fd, buf_b, 4096); }),
            300);
  EXPECT_EQ(c.wait(), (Answer{0, 1}));
  EXPECT_EQ(c.wait(), (Answer{0, 0}));
}

TEST(Scenario2Proxy, AnotherAppsRingReadingOurFdMakesTheWaitCross) {
  // App B's ring takes loans off app A's connection, and the loop drains
  // its SQE without a crossing: while any app on the shard holds a ring,
  // a non-zero answer crosses.
  WatchedConnection c(5316);
  const int b = c.rig.add_app("cVM3");
  const machine::CapView mem = c.rig.alloc(
      fstack::FfUring::bytes_for(test::ZcRxRing::kSq, test::ZcRxRing::kCq), b);
  std::optional<test::ZcRxRing> ring;
  c.rig.run(b, [&] { ring.emplace(c.rig.ops(b), mem); });
  (void)c.wait();  // B's doorbell-free attach moved no interest mark
  c.rig.turn(false);
  EXPECT_EQ(c.wait(), (Answer{0, 0}));  // a zero needs no such proof
  c.deliver(c.pfd, 300);
  EXPECT_EQ(c.wait(), (Answer{1, 1}));
  fstack::FfUringSqe e;
  e.op = fstack::UringOp::kZcRecv;
  e.fd = c.fd;
  e.a[0] = 8;
  (void)ring->ring().sq_push(e);  // no doorbell: the next pass drains it
  c.settle();
  EXPECT_EQ(c.wait(), (Answer{0, 1}));
  fstack::FfUringCqe cq[test::ZcRxRing::kCq];
  const std::size_t got = ring->ring().cq_pop(cq);
  ASSERT_GE(got, 1u);
  std::vector<std::uint64_t> tokens;
  for (std::size_t i = 0; i < got; ++i) tokens.push_back(cq[i].aux0);
  c.rig.run(b, [&] {
    EXPECT_EQ(ring->recycle(tokens).result,
              static_cast<std::int64_t>(got));
    EXPECT_EQ(c.rig.ops(b).uring_detach(ring->id()), 0);
  });
  (void)c.wait();
  c.deliver(c.pfd, 100);
  EXPECT_EQ(c.wait(), (Answer{1, 0}));  // no ring left on the shard
}

TEST(Scenario2Proxy, DuplicateCookieMakesEveryWaitCross) {
  // Two fds under one cookie: an edge cannot name its fd, so the set is
  // unknown and every wait crosses.
  WatchedConnection c(5314);
  const auto [fd, pfd] = c.open(9);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.wait(), (Answer{0, 1})) << i;
    c.rig.turn(false);
  }
  c.deliver(pfd, 100);
  EXPECT_EQ(c.wait(), (Answer{1, 1}));
  EXPECT_EQ(c.read(fd, 4096), 100);
  EXPECT_EQ(c.wait(), (Answer{0, 1}));
}

TEST(Scenario2Proxy, AnswerTruncatedAtMaxEventsKeepsTheStacksOrder) {
  // Three readable fds and room for two: the local answer lists the first
  // two in fd order, as the stack does. A crossing answer that fills its
  // room says nothing of the fds it left out.
  WatchedConnection c(5315);
  const auto [fd2, pfd2] = c.open(10);
  const auto [fd3, pfd3] = c.open(11);
  (void)c.wait();  // rebaseline the two new fds
  for (const int p : {c.pfd, pfd2, pfd3}) c.deliver(p, 100);
  EXPECT_EQ(c.wait(2), (Answer{2, 0}));
  EXPECT_EQ(c.wait(4), (Answer{3, 0}));
  EXPECT_EQ(c.read(fd3, 50), 50);       // full-length: fd3 unknown
  EXPECT_EQ(c.wait(2), (Answer{2, 1}));  // lists the first two only
  EXPECT_EQ(c.wait(4), (Answer{3, 1}));  // so fd3 is still unknown
  EXPECT_EQ(c.wait(4), (Answer{3, 0}));
}

TEST(Scenario2Proxy, RefusedRingAttachMakesEveryWaitCross) {
  // With no readiness ring (here: the app's tenant id is not registered,
  // so the attach entry refuses to bind it), the proxy cannot prove a 0
  // and every epoll_wait crosses.
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, 1 << 20,
                  fast_options());
  const int app = rig.add_app("cVM-unregistered", 7);
  const auto& entries = rig.testbed().intravisor().entries();
  int ep = -1;
  rig.run(app, [&] { ep = rig.ops(app).epoll_create(); });
  ASSERT_GE(ep, 0);
  fstack::FfEpollEvent ev[4];
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t before = entries.crossings();
    EXPECT_EQ(rig.run(app, [&] { return rig.ops(app).epoll_wait(ep, ev); }),
              0);
    // The first wait also pays the refused attach.
    EXPECT_EQ(entries.crossings() - before, i == 0 ? 2u : 1u) << i;
    rig.turn(false);
  }
}

TEST(Census, SameInputsSameCounts) {
  // The census runs every leg in single-threaded virtual-time lockstep, so
  // its counts are a function of the inputs alone: two runs of the same leg
  // agree field for field (virtual end time included), whatever the host
  // load. Scenario 1's turn enters the stack's cVM itself; Scenario 2's
  // enters cVM1 under the shard mutex.
  constexpr std::uint64_t kVolume = 256 * 1024;
  for (const ScenarioKind kind :
       {ScenarioKind::kScenario1, ScenarioKind::kScenario2Uncontended}) {
    for (const CensusLeg leg :
         {CensusLeg::kWrite, CensusLeg::kWritev, CensusLeg::kRead,
          CensusLeg::kRingWritev, CensusLeg::kRingZcSend,
          CensusLeg::kRingZcRecv}) {
      const Census a = run_census(kind, leg, kVolume, fast_options());
      const Census b = run_census(kind, leg, kVolume, fast_options());
      SCOPED_TRACE(std::string(to_string(kind)) + " leg " +
                   std::to_string(static_cast<int>(leg)));
      EXPECT_EQ(a.bytes, kVolume);
      // Scenario 1 ring legs cross nothing: its stack never parks, so no
      // doorbell is ever worth ringing.
      if (kind == ScenarioKind::kScenario2Uncontended) {
        EXPECT_GT(a.crossings, 0u);
      }
      EXPECT_TRUE(a == b) << "crossings " << a.crossings << " vs "
                          << b.crossings << ", virtual ns " << a.virtual_ns
                          << " vs " << b.virtual_ns;
    }
  }
  // Livelock guard: at a pool-starving volume the zc TX leg keeps bouncing
  // -ENOBUFS allocs. A bounced submission must wait for virtual time to
  // move, or the lockstep pump spins at one instant forever; the leg has to
  // terminate with the whole volume queued.
  constexpr std::uint64_t kStarving = 4 * 1024 * 1024;
  const Census zc = run_census(ScenarioKind::kScenario2Uncontended,
                               CensusLeg::kRingZcSend, kStarving,
                               fast_options());
  EXPECT_EQ(zc.bytes, kStarving);
  EXPECT_EQ(zc.tx_zc_bytes, kStarving);
}

TEST(Containment, AppCvmEscapeAttemptIsContainedFig3) {
  MorelloTestbed tb(fast_options());
  auto& iv = tb.intravisor();
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 32u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), tb.clock(),
                         tb.morello_cfg(0));
  iv::CVM& attacker = iv.create_cvm("cVM2", 4u << 20);

  // The stack's socket-buffer memory lives in cVM1's heap; the attacker
  // tries to read it with an address it guessed.
  const std::uint64_t secret_addr = cvm1.context().ddc.base() + 4096;
  attacker.run([&] {
    (void)iv.address_space().mem().load_scalar<std::uint64_t>(
        attacker.context().ddc, secret_addr);
  });
  EXPECT_TRUE(attacker.faulted());
  ASSERT_GE(iv.fault_log().size(), 1u);
  EXPECT_EQ(iv.fault_log()[0].cvm_name, "cVM2");
  const std::string console = iv.host().console_log().back();
  EXPECT_NE(console.find("CAP out-of-bounds"), std::string::npos);
  // cVM1's stack remains functional: its loop still runs.
  EXPECT_NO_THROW(inst.run_once());
}

TEST(ScenarioNames, Printable) {
  EXPECT_STREQ(to_string(ScenarioKind::kScenario1), "Scenario 1");
  EXPECT_STREQ(to_string(Direction::kMorelloReceives), "Server");
}
