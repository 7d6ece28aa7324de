// Scenario-level integration: all five Table II configurations at reduced
// volume, the crossing census and the cross-compartment proxy on the
// lockstep rig, the threaded ff_write latency probes, and
// compartment-escape containment (Fig. 3).
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>

#include "apps/iperf.hpp"
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
  // hostage to host load (this probe used to flake on busy CI), so the
  // test reads the VIRTUAL clock instead: per successful write, the
  // simulated-time span from first attempt to completion (virtual_ns).
  // Virtual time advances only through the arbiter's all-wait protocol,
  // paced by the simulated port drain — host slowdowns cannot stretch it.
  //
  // The separator is structural, not a mean: a solo writer's worst wait
  // is bounded by one drain epoch of its own backlog (observed ~90us,
  // quantized), while a contended writer is regularly held across
  // MULTIPLE drain/park epochs by the sibling occupying the shared window
  // (modal wait ~98us, tail to ~2.5ms spanning 500us park heartbeats).
  // Counting writes that waited > 150us separates the two configurations
  // with zero overlap on idle and 6-way-loaded hosts alike.
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
  // Observed: 12-25 multi-epoch stalls per contended stream, 0 solo.
  EXPECT_GE(tail(con.series[0]), 5u)
      << "contended writes should stall across drain epochs (paper: ~152x)";
  EXPECT_GE(tail(con.series[1]), 5u)
      << "contended writes should stall across drain epochs (paper: ~152x)";
  EXPECT_LE(tail(unc.series[0]), 2u)
      << "a paced solo writer must never wait out multiple drain epochs";
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
  // The classic zero-copy RX path end to end in Scenario 2: the peer
  // streams into cVM1's stack; the app compartment gates on epoll_wait and
  // drains ff_zc_recv loan bursts (read-only bounded views into cVM1's mbuf
  // arena), recycling in batches.
  constexpr std::uint64_t kVolume = 256 * 1024;
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, kVolume,
                  fast_options());
  rig.testbed().peer(0).run_iperf_client(MorelloTestbed::morello_ip(0), 5201,
                                         kVolume);
  apps::FfOps& ops = rig.ops();
  std::uint64_t received = 0;
  bool clean = true;
  rig.run(0, [&] {
    const int lfd = ops.socket_stream();
    ops.bind(lfd, fstack::Ipv4Addr{}, 5201);
    ops.listen(lfd, 4);
    const int ep = ops.epoll_create();
    ops.epoll_ctl(ep, fstack::EpollOp::kAdd, lfd, fstack::kEpollIn,
                  static_cast<std::uint64_t>(lfd));

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
        int fds[1];
        if (ops.accept_batch(lfd, fds) == 1) {
          cfd = fds[0];
          ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                        static_cast<std::uint64_t>(cfd));
          progress = true;
        }
      } else if (readable) {
        fstack::FfZcRxBuf loans[8];
        const std::int64_t n = ops.zc_recv(cfd, loans);
        if (n > 0) {
          for (std::int64_t i = 0; i < n; ++i) {
            received += loans[i].data.size();
            // Loans must be read-only views.
            const std::byte poison[1] = {std::byte{0xFF}};
            EXPECT_THROW(loans[i].data.write(0, poison), cheri::CapFault);
          }
          if (ops.zc_recycle_batch({loans, static_cast<std::size_t>(n)}) !=
              n) {
            clean = false;
          }
          progress = true;
        } else if (n == 0) {
          eof = true;
        }
      }
      if (!rig.turn(progress)) break;
    }
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
  // ff_zc_send consumes the token when the TCP connection is dead. The
  // proxied handle must end exactly where a direct caller's does — token 0,
  // no data view — and a late abort answers -EINVAL on both.
  for (const ScenarioKind kind :
       {ScenarioKind::kBaseline1Proc, ScenarioKind::kScenario2Uncontended}) {
    SCOPED_TRACE(to_string(kind));
    LockstepRig rig(kind, 1, 0, fast_options());
    apps::FfOps& ops = rig.ops();
    const machine::CapView probe = rig.alloc(16);
    rig.run(0, [&] {
      // Nothing listens on the peer's port: the SYN earns an RST.
      const int fd = ops.socket_stream();
      ops.connect(fd, MorelloTestbed::peer_ip(0), 5999);
      while (ops.write(fd, probe, 1) != -ECONNREFUSED && rig.turn(false)) {
      }
      fstack::FfZcBuf zc;
      ASSERT_EQ(ops.zc_alloc(64, &zc), 0);
      EXPECT_EQ(ops.zc_send(fd, zc, 64, {}), -ECONNREFUSED);
      EXPECT_EQ(zc.token, 0u);
      EXPECT_FALSE(zc.data.valid());
      EXPECT_EQ(ops.zc_abort(zc), -EINVAL);
      ops.close(fd);
    });
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
          CensusLeg::kZcRecv, CensusLeg::kRingWritev,
          CensusLeg::kRingZcSend, CensusLeg::kRingZcRecv}) {
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
  attacker.start([&] {
    (void)iv.address_space().mem().load_scalar<std::uint64_t>(
        attacker.context().ddc, secret_addr);
  });
  attacker.join();
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
