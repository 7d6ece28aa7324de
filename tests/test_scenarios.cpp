// Scenario-level integration, all on the lockstep rig: the five Table II
// configurations at reduced volume, the ff_write latency probes, the
// crossing census and the cross-compartment proxy (the echo server's
// crossing budget among it); plus compartment-escape containment (Fig. 3).
#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/echo.hpp"
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
        cfd = ops.accept(lfd);
        if (cfd >= 0) {
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

TEST(Scenario2Proxy, ShortZcRecvBufferFaultsBeforeAnyLoanMoves) {
  // The ff_zc_recv entry marshals one 16-byte record per loan into the
  // app's cap0. A buffer too short for the loans asked for answers -EFAULT
  // BEFORE the stack pops one: no loan strands in cVM1's table with no
  // token in the app's hands, and the bytes stay queued for a good call.
  // The ff_zc_recycle entry reads one record per token from the same
  // buffer; a batch longer than it answers -EFAULT before the first
  // recycle. The app runs as a tenant, whose stats row counts its loans.
  constexpr std::uint64_t kVolume = 64 * 1024;
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 1, kVolume,
                  fast_options());
  rig.testbed().peer(0).run_iperf_client(MorelloTestbed::morello_ip(0), 5201,
                                         kVolume);
  FullStackInstance& inst = rig.service()->instance();
  const int tid = fstack::ff_tenant_register(inst.stack(), "zc-app", {});
  const int app = rig.add_app("zc-app", tid);
  auto& ops = dynamic_cast<ProxyFfOps&>(rig.ops(app));
  const auto& api = inst.stack().api_stats();
  const fstack::TenantStats& tstats =
      *fstack::ff_tenant_stats(inst.stack(), tid);
  auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView short_buf = rig.alloc(16, app);
  rig.run(app, [&] {
    const int lfd = ops.socket_stream();
    ops.bind(lfd, fstack::Ipv4Addr{}, 5201);
    ops.listen(lfd, 4);
    int cfd = -1;
    while ((cfd = ops.accept(lfd)) < 0 && rig.turn(false)) {
    }
    ASSERT_GE(cfd, 0);
    const fstack::TcpPcb* pcb = inst.stack().sockets().get(cfd)->pcb;
    while (pcb->rx_used() < 16 * 1024 && rig.turn(false)) {
    }
    const std::uint64_t loans0 = api.zc_rx_loans;
    const std::uint32_t avail0 = inst.pool().available();
    const std::size_t queued0 = pcb->rx_used();
    ASSERT_GE(queued0, 16u * 1024u);

    machine::CrossCallArgs a;
    a.a[0] = static_cast<std::uint64_t>(cfd);
    a.a[1] = 8;  // eight records want 128 bytes; cap0 grants 16
    a.cap0 = short_buf;
    EXPECT_EQ(static_cast<std::int64_t>(
                  entries.invoke(ops.entry(ProxyFfOps::kZcRecv), a)),
              -EFAULT);
    EXPECT_EQ(api.zc_rx_loans, loans0);
    EXPECT_EQ(inst.pool().available(), avail0);
    EXPECT_EQ(pcb->rx_used(), queued0);

    // The ff_read entry forwards its buffer to the stack's own check,
    // which answers through the same door: 64 bytes claimed over the
    // 16-byte view is -EFAULT, and every byte stays queued.
    machine::CrossCallArgs rd;
    rd.a[0] = static_cast<std::uint64_t>(cfd);
    rd.a[1] = 64;
    rd.cap0 = short_buf;
    EXPECT_EQ(static_cast<std::int64_t>(
                  entries.invoke(ops.entry(ProxyFfOps::kRead), rd)),
              -EFAULT);
    EXPECT_EQ(pcb->rx_used(), queued0);

    // The queued bytes still loan out through a well-formed call.
    fstack::FfZcRxBuf loans[8];
    const std::int64_t n = ops.zc_recv(cfd, loans);
    EXPECT_EQ(n, 8);

    // Two token records want 32 bytes; cap0 grants 16.
    const std::uint64_t recycles0 = api.zc_rx_recycles;
    const std::uint32_t outstanding0 = tstats.loans_outstanding;
    short_buf.store<std::uint64_t>(0, loans[0].token);
    machine::CrossCallArgs r;
    r.a[0] = 2;
    r.cap0 = short_buf;
    EXPECT_EQ(static_cast<std::int64_t>(
                  entries.invoke(ops.entry(ProxyFfOps::kZcRecycle), r)),
              -EFAULT);
    EXPECT_EQ(api.zc_rx_recycles, recycles0);
    EXPECT_EQ(tstats.loans_outstanding, outstanding0);
    EXPECT_EQ(outstanding0, 8u);
    // The same loans then recycle through a good call.
    EXPECT_EQ(ops.zc_recycle_batch({loans, static_cast<std::size_t>(n)}), n);
    EXPECT_EQ(tstats.loans_outstanding, 0u);
    ops.close(cfd);
    ops.close(lfd);
  });
}

TEST(Scenario2Proxy, EchoServerCrossesOncePerIdleStep) {
  // The echo server waits on epoll: with four established connections an
  // idle step is its one epoll_wait crossing, and a step that echoes one
  // request adds exactly that connection's readv and writev.
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
  // echo is back; returns the steps that made progress.
  const auto round_trip = [&](std::size_t c, std::size_t len,
                              std::uint8_t tag) {
    std::vector<Step> busy;
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
      if (s.progress) busy.push_back(s);
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
    return busy;
  };
  // Setup: each connection is accepted and echoes one request.
  for (std::size_t c = 0; c < fds.size(); ++c) {
    round_trip(c, 64, static_cast<std::uint8_t>(c * 40));
  }

  for (int i = 0; i < 3; ++i) {
    const Step idle = step();
    EXPECT_FALSE(idle.progress);
    EXPECT_EQ(idle.crossings, 1u);  // epoll_wait only
  }
  const std::vector<Step> busy = round_trip(2, 200, 0x5A);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(busy[0].crossings, 3u);  // epoll_wait, readv, writev
  const Step idle = step();
  EXPECT_FALSE(idle.progress);
  EXPECT_EQ(idle.crossings, 1u);
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
