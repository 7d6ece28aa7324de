// Shard isolation: two FfStack shards on ONE port (2 RSS queues) churn
// connections side by side. Every flow must live and die entirely inside
// the shard its app was pinned to at attach time — per-shard PCB tables,
// mempools and timer wheels never see a sibling's traffic, and the leak
// gates hold per shard. Runs on the lockstep rig (one app cVM pinned to
// each shard, both shard loops and the peer taking turns on the test's
// thread), virtual-time only, so it replays identically under every leg.
#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "scenarios/experiment.hpp"
#include "scenarios/scenario2.hpp"

using namespace cherinet;
using namespace cherinet::scen;

namespace {
constexpr std::size_t kShards = 2;
constexpr int kConnsPerShard = 3;
constexpr std::uint64_t kBytesPerConn = 32 * 1024;
constexpr std::uint16_t kPort = 5201;

/// Two shards of one port: queue q of 2, same IP/MAC, disjoint state. The
/// rig pins app cVM j (cVM2, cVM3) to shard j.
TestbedOptions sharded_options() {
  TestbedOptions opt;
  opt.cost = sim::CostModel::disabled();
  opt.s2_shards = kShards;
  opt.s2_shards_same_port = true;
  return opt;
}

/// One app compartment's churn: sequential connect/write/close cycles,
/// every call proxied into its OWN shard, one call per rig turn.
struct Churn {
  int app;  // rig endpoint
  int conns;
  std::uint64_t bytes_per_conn;
  machine::CapView buf;
  int fd = -1;
  std::uint64_t sent = 0;
  int completed = 0;

  [[nodiscard]] bool done() const { return completed >= conns; }

  /// Open the next connection, or write one MSS (closing the connection
  /// once its bytes are out), inside the app's cVM. Returns whether an fd
  /// or bytes moved.
  bool step(LockstepRig& rig) {
    bool moved = false;
    rig.run(app, [&] {
      apps::FfOps& ops = rig.ops(app);
      if (fd < 0) {
        fd = ops.socket_stream();
        ASSERT_GE(fd, 3);
        const int cr = ops.connect(fd, MorelloTestbed::peer_ip(0), kPort);
        ASSERT_TRUE(cr == 0 || cr == -EINPROGRESS) << cr;
        moved = true;
        return;
      }
      const auto r = ops.write(fd, buf, 1448);
      if (r <= 0) return;
      sent += static_cast<std::uint64_t>(r);
      moved = true;
      if (sent >= bytes_per_conn) {
        ops.close(fd);
        fd = -1;
        sent = 0;
        ++completed;
      }
    });
    return moved;
  }
};

/// Step every churn once per turn until all are done. A capability fault
/// inside an app cVM propagates out of rig.run() and out of this call.
void drive(LockstepRig& rig, std::vector<Churn>& churns) {
  for (;;) {
    bool progress = false;
    bool running = false;
    for (Churn& c : churns) {
      if (c.done()) continue;
      running = true;
      progress |= c.step(rig);
    }
    if (!running || ::testing::Test::HasFatalFailure() ||
        !rig.turn(progress)) {
      return;
    }
  }
}

std::uint64_t outstanding(FullStackInstance& i) {
  return i.pool().stats().allocs - i.pool().stats().frees;
}
}  // namespace

TEST(ShardIsolation, ConcurrentChurnStaysWithinShards) {
  LockstepRig rig(ScenarioKind::kScenario2Contended, kShards,
                  kShards * kConnsPerShard * kBytesPerConn, sharded_options());
  Scenario2Service& svc = *rig.service();
  ASSERT_EQ(svc.shard_count(), kShards);
  PeerHost& peer = rig.testbed().peer(0);
  peer.serve_iperf(kPort, kShards * kConnsPerShard);
  FullStackInstance& inst0 = svc.instance(0);
  FullStackInstance& inst1 = svc.instance(1);

  // Post-attach mempool baseline: the RX ring keeps a fixed population of
  // staged buffers alive for the device's lifetime; the leak gate is that
  // churn returns each shard's OUTSTANDING count to this baseline.
  const std::uint64_t base_out0 = outstanding(inst0);
  const std::uint64_t base_out1 = outstanding(inst1);

  std::vector<Churn> churns;
  for (int j = 0; j < static_cast<int>(kShards); ++j) {
    ASSERT_EQ(rig.stack_of(j), static_cast<std::size_t>(j));
    churns.push_back({j, kConnsPerShard, kBytesPerConn, rig.alloc(2048, j)});
  }
  EXPECT_NO_THROW(drive(rig, churns));
  EXPECT_EQ(churns[0].completed, kConnsPerShard);
  EXPECT_EQ(churns[1].completed, kConnsPerShard);

  // Let FINs, final ACKs and the 2MSL reaps drain (virtual time jumps to
  // the TIME_WAIT deadlines once nothing progresses), then require both
  // shards back at their baselines — the per-shard leak gate.
  const auto shard_quiet = [](FullStackInstance& inst, std::uint64_t base) {
    return inst.stack().tcp_pcb_count() == 0 && outstanding(inst) == base;
  };
  while (!(peer.workload_finished() && shard_quiet(inst0, base_out0) &&
           shard_quiet(inst1, base_out1)) &&
         rig.turn(false)) {
  }

  EXPECT_TRUE(peer.workload_finished());
  EXPECT_EQ(peer.server()->report().bytes,
            kShards * kConnsPerShard *
                ((kBytesPerConn + 1447) / 1448) * 1448);

  FullStackInstance* insts[kShards] = {&inst0, &inst1};
  for (std::size_t s = 0; s < kShards; ++s) {
    auto& st = insts[s]->stack();
    SCOPED_TRACE("shard " + std::to_string(s));
    // The shard moved ITS OWN flows: frames in and out, API calls proxied
    // through ITS mutex only.
    EXPECT_GT(st.stats().rx_frames, 0u);
    EXPECT_GT(st.stats().tx_frames, 0u);
    EXPECT_GT(svc.proxied_calls(s), 20u);
    EXPECT_GT(svc.mutex(s).fast_acquires() +
                  svc.mutex(s).contended_acquires(),
              0u);
    // ZERO cross-shard traffic: a frame steered to the wrong shard would
    // find no PCB there and land in rx_dropped / provoke a RST.
    EXPECT_EQ(st.stats().rx_dropped, 0u);
    EXPECT_EQ(st.stats().tcp_rst_out, 0u);
    EXPECT_EQ(st.stats().csum_errors, 0u);
    // PCB census: every one of this shard's connections fully reaped —
    // TIME_WAIT expired through the shard's OWN timer wheel.
    EXPECT_EQ(st.tcp_pcb_count(), 0u);
    // Timer wheel back to at most the standing ARP slot.
    EXPECT_LE(st.timer_wheel().size(), 1u);
    // Mempool back at its post-attach baseline: the per-shard leak gate.
    const auto& p = insts[s]->pool().stats();
    EXPECT_EQ(p.allocs - p.frees, s == 0 ? base_out0 : base_out1);
    EXPECT_EQ(p.indirect_allocs, p.indirect_frees);
  }

  // The NIC agrees: both queues carried traffic, and the port aggregate is
  // exactly the sum of the two queues (frames landed on one queue each).
  nic::E82576Device& card = rig.testbed().card();
  const auto q0 = card.port(0).queue_stats(0);
  const auto q1 = card.port(0).queue_stats(1);
  const auto port = card.port(0).stats();
  EXPECT_GT(q0.rx_packets, 0u);
  EXPECT_GT(q1.rx_packets, 0u);
  EXPECT_EQ(port.rx_packets, q0.rx_packets + q1.rx_packets);
  EXPECT_EQ(port.tx_packets, q0.tx_packets + q1.tx_packets);
  EXPECT_EQ(q0.rx_no_desc + q1.rx_no_desc, 0u);
}

TEST(ShardIsolation, EphemeralPortsSteerRepliesHome) {
  // The connect() side of attach-time pinning: each shard picks source
  // ports whose REPLY direction RETA-maps to its own queue, so peer
  // traffic arrives where the flow's PCB lives without any L4 filter.
  // One connection per shard, one after the other.
  LockstepRig rig(ScenarioKind::kScenario2Contended, kShards,
                  kShards * 8 * 1448, sharded_options());
  Scenario2Service& svc = *rig.service();
  PeerHost& peer = rig.testbed().peer(0);
  peer.serve_iperf(kPort, 2);
  for (int s = 0; s < static_cast<int>(kShards); ++s) {
    ASSERT_EQ(rig.stack_of(s), static_cast<std::size_t>(s));
    std::vector<Churn> one{{s, 1, 8 * 1448, rig.alloc(2048, s)}};
    EXPECT_NO_THROW(drive(rig, one));
    EXPECT_TRUE(one[0].done());
  }
  while (!peer.workload_finished() && rig.turn(false)) {
  }

  EXPECT_TRUE(peer.workload_finished());
  // Each connection's inbound frames (SYN-ACK, ACKs, FIN) arrived on the
  // queue of the shard that initiated it — neither stack saw strays.
  FullStackInstance& inst0 = svc.instance(0);
  FullStackInstance& inst1 = svc.instance(1);
  EXPECT_GT(inst0.stack().stats().rx_frames, 0u);
  EXPECT_GT(inst1.stack().stats().rx_frames, 0u);
  EXPECT_EQ(inst0.stack().stats().rx_dropped, 0u);
  EXPECT_EQ(inst1.stack().stats().rx_dropped, 0u);
  EXPECT_EQ(inst0.stack().stats().tcp_rst_out, 0u);
  EXPECT_EQ(inst1.stack().stats().tcp_rst_out, 0u);
}
