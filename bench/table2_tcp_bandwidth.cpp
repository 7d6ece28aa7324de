// Table II — TCP bandwidth (server and client modes) across the five
// configurations: Baseline (two processes), Scenario 1, Baseline (single
// process), Scenario 2 uncontended, Scenario 2 contended.
//
// Efficiency follows the paper: achieved bandwidth over the theoretical
// port rate (1 Gbit/s per Ethernet port; the contended rows divide by the
// 500 Mbit/s fair share, which is how the paper reaches 106.2 %).
// Every row runs on the single-threaded lockstep rig (scen::run_bandwidth),
// so its goodputs and counts replay identically under any host load.
//
// Since the scatter-gather emission rework this bench also audits the
// DRIVER DOORBELL amortization: the Morello stack stages outbound frames
// per loop turn and flushes them with one tx_burst, so sustained send load
// must average >= 8 frames per tx_burst call (bursts of 1 happen only at
// flush boundaries — connect probes, lone ACKs, retransmissions). The
// census lands in BENCH_table2.json next to the fig4/fig5 artifacts so
// the goodput/burst trajectory is recorded across PRs.
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace cherinet;
using namespace cherinet::scen;
using namespace cherinet::bench;

namespace {
struct PaperRow {
  double server;
  double client;
};

struct RowCensus {
  const char* key = nullptr;  // JSON object key
  double send_mbps = 0;       // Morello-sends goodput (first endpoint)
  double recv_mbps = 0;       // Morello-receives goodput (first endpoint)
  double send_aggregate = 0;  // all endpoints summed (sharded rows)
  double recv_aggregate = 0;
  BandwidthOutcome::TxBurstCensus tx;  // Morello-sends direction
  bool gate_bursts = false;   // sustained single-stream send rows gate
  // Scenario 2 rows: per-shard goodput + mutex census, one per direction.
  std::vector<BandwidthOutcome::ShardCensus> shards;  // Morello sends
  std::vector<BandwidthOutcome::ShardCensus> recv_shards;
};

void print_shards(const char* dir,
                  const std::vector<BandwidthOutcome::ShardCensus>& shards) {
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& sc = shards[s];
    std::printf("  %s shard %zu: %.1f Mbit/s, mutex %llu fast / %llu "
                "contended, %llu proxied calls\n",
                dir, s, sc.mbps, static_cast<unsigned long long>(sc.mutex_fast),
                static_cast<unsigned long long>(sc.mutex_contended),
                static_cast<unsigned long long>(sc.proxied_calls));
  }
}

void set_shards(Fields& o, const char* key,
                const std::vector<BandwidthOutcome::ShardCensus>& shards) {
  for (const auto& sc : shards) {
    o.row(key)
        .set("mbps", sc.mbps)
        .set("mutex_fast", sc.mutex_fast)
        .set("mutex_contended", sc.mutex_contended)
        .set("proxied_calls", sc.proxied_calls);
  }
}

void run_row(ScenarioKind kind, std::uint64_t bytes, double fair_share_mbps,
             const PaperRow& paper, const TestbedOptions& opt,
             RowCensus* census) {
  std::printf("\n%s", to_string(kind));
  if (opt.s2_shards > 1) {
    std::printf(" [%u shards, %s]", opt.s2_shards,
                opt.s2_shards_same_port ? "RSS same-port" : "dual-port");
  } else if (opt.s2_shards_same_port) {
    std::printf(" [sharded service, 1 shard]");
  }
  std::printf("\n  %-12s %-18s %10s %11s %14s\n", "Mode", "endpoint",
              "Mbit/s", "efficiency", "paper Mbit/s");
  for (const Direction dir :
       {Direction::kMorelloReceives, Direction::kMorelloSends}) {
    const auto r = run_bandwidth(kind, dir, bytes, opt);
    const double paper_val =
        dir == Direction::kMorelloReceives ? paper.server : paper.client;
    double aggregate = 0;
    for (const auto& e : r.endpoints) {
      std::printf("  %-12s %-18s %10.1f %10.1f%% %14.1f\n", to_string(dir),
                  e.label.c_str(), e.mbps, 100.0 * e.mbps / fair_share_mbps,
                  paper_val);
      aggregate += e.mbps;
    }
    if (census != nullptr && !r.endpoints.empty()) {
      if (dir == Direction::kMorelloSends) {
        census->send_mbps = r.endpoints[0].mbps;
        census->send_aggregate = aggregate;
        census->tx = r.morello_tx;
        census->shards = r.shards;
      } else {
        census->recv_mbps = r.endpoints[0].mbps;
        census->recv_aggregate = aggregate;
        census->recv_shards = r.shards;
      }
    }
  }
  if (census != nullptr && census->tx.bursts > 0) {
    std::printf("  TX doorbell amortization (Morello sends): %llu frames / "
                "%llu bursts = %.1f frames per tx_burst (%llu segs)\n",
                static_cast<unsigned long long>(census->tx.frames),
                static_cast<unsigned long long>(census->tx.bursts),
                census->tx.frames_per_burst(),
                static_cast<unsigned long long>(census->tx.segs));
  }
  if (census != nullptr) {
    print_shards("Morello sends", census->shards);
    print_shards("Morello receives", census->recv_shards);
  }
}
}  // namespace

int main() {
  print_header("Table II: TCP bandwidth in the three scenarios",
               "paper Table II (values in Mbit/s)");
  const std::uint64_t bytes =
      env_u64("CHERINET_BENCH_BYTES", 8ull * 1024 * 1024);
  std::printf("workload: %llu bytes per stream (CHERINET_BENCH_BYTES to "
              "override); MSS 1448, 1 GbE ports, shared PCI bus model\n",
              static_cast<unsigned long long>(bytes));
  // F-Stack's deferred emission model (the one the paper's measurements
  // correspond to): ff_write queues, the main loop emits — which is also
  // what lets a loop turn's segments leave in one staged driver burst.
  TestbedOptions opt;
  opt.inline_tcp_output = false;

  RowCensus rows[9];
  rows[0].key = "baseline_2proc";
  rows[0].gate_bursts = true;
  rows[1].key = "scenario1";
  rows[1].gate_bursts = true;
  rows[2].key = "baseline_1proc";
  rows[2].gate_bursts = true;
  rows[3].key = "scenario2_uncontended";
  rows[3].gate_bursts = true;
  rows[4].key = "scenario2_contended";  // fair-share split row: no gate
  rows[5].key = "scenario2_uncontended_sharded1";
  rows[5].gate_bursts = true;
  rows[6].key = "scenario2_contended_sharded2";
  rows[7].key = "scenario2_contended_rss2q";
  // TSO ablation: frames-per-burst is NOT gated here — a super-segment
  // counts as one opacket carrying up to 8 MSS, so the ratio's meaning
  // changes; the tso_frames census and the no-regression gate below are
  // the row's checks.
  rows[8].key = "scenario2_uncontended_tso";
  run_row(ScenarioKind::kBaseline2Proc, bytes, 1000.0, {658, 757}, opt,
          &rows[0]);
  run_row(ScenarioKind::kScenario1, bytes, 1000.0, {658, 757}, opt,
          &rows[1]);
  run_row(ScenarioKind::kBaseline1Proc, bytes, 1000.0, {941, 941}, opt,
          &rows[2]);
  run_row(ScenarioKind::kScenario2Uncontended, bytes, 1000.0, {941, 941},
          opt, &rows[3]);
  run_row(ScenarioKind::kScenario2Contended, bytes, 500.0, {470, 470}, opt,
          &rows[4]);

  // --- Sharded Scenario 2 rows (per-core FfStack shards + RSS steering) ---
  // sharded1: the sharded service machinery (vector-of-shards, queue-aware
  // attach through the multi-queue NIC ABI) with ONE shard — must price in
  // at the classic single-stack goodput (<= 5% off, gated below).
  TestbedOptions opt_s1 = opt;
  opt_s1.s2_shards = 1;
  opt_s1.s2_shards_same_port = true;  // exercise the RSS attach path
  run_row(ScenarioKind::kScenario2Uncontended, bytes, 1000.0, {941, 941},
          opt_s1, &rows[5]);
  // sharded2 (dual-port): shard j owns port j, so the two contending
  // streams never share a stack, a mutex, or a wire — contended goodput
  // scales past the single-port fair share toward the PCI-bus plateau
  // (the paper's dual-port Table II rows). Gated >= 1.8x below.
  TestbedOptions opt_s2 = opt;
  opt_s2.s2_shards = 2;
  opt_s2.s2_shards_same_port = false;
  run_row(ScenarioKind::kScenario2Contended, bytes, 1000.0, {658, 757},
          opt_s2, &rows[6]);
  // rss2q (same-port): both shards behind ONE port identity, flows split
  // across two 82576 RSS queues by Toeplitz/RETA + listener L4 filters.
  // Still wire-fair-share-bound (one port), so census-only: what it shows
  // is per-shard mutexes with the port shared behind per-queue interfaces.
  TestbedOptions opt_rss = opt;
  opt_rss.s2_shards = 2;
  opt_rss.s2_shards_same_port = true;
  run_row(ScenarioKind::kScenario2Contended, bytes, 500.0, {470, 470},
          opt_rss, &rows[7]);
  // --- TSO on/off ablation (hardware offload path) ---
  // Same uncontended Scenario 2 leg as rows[3] (the TSO-off control: the
  // default offloads already negotiate checksum insertion) but with the
  // device slicing 8-MSS super-segments. Goodput must not regress and the
  // device must actually have sliced (gated below).
  TestbedOptions opt_tso = opt;
  opt_tso.offloads = updk::kOffloadAll;
  run_row(ScenarioKind::kScenario2Uncontended, bytes, 1000.0, {941, 941},
          opt_tso, &rows[8]);

  std::printf(
      "\nShape checks (paper §IV): CHERI scenarios match their baselines; "
      "dual-port runs plateau at the PCI-bus limit; the single port "
      "saturates at ~941 Mbit/s; contended Scenario 2 splits the port "
      "between cVM2/cVM3 while the aggregate stays at the link ceiling.\n");

  // The goodput + frames-per-tx_burst census, one object per row.
  Report rep("table2");
  rep.set("bytes", bytes);
  for (const RowCensus& r : rows) {
    Fields& o = rep.at(r.key)
                    .set("send_mbps", r.send_mbps)
                    .set("recv_mbps", r.recv_mbps)
                    .set("send_aggregate_mbps", r.send_aggregate)
                    .set("recv_aggregate_mbps", r.recv_aggregate)
                    .set("tx_frames", r.tx.frames)
                    .set("tx_bursts", r.tx.bursts)
                    .set("tx_segs", r.tx.segs)
                    .set("frames_per_burst", r.tx.frames_per_burst())
                    .set("tso_frames", r.tx.tso_frames)
                    .set("tso_bytes", r.tx.tso_bytes);
    set_shards(o, "shards", r.shards);
    set_shards(o, "recv_shards", r.recv_shards);
  }

  // Doorbell gate: sustained single-stream send rows must amortize the
  // driver doorbell >= 8 frames per tx_burst (per-frame bursting — the
  // pre-gather emission — averaged barely above 1).
  for (const RowCensus& r : rows) {
    if (r.gate_bursts) {
      rep.gate(std::string(r.key) + ".frames_per_burst",
               r.tx.frames_per_burst(), ">=", 8.0);
    }
  }
  // A ratio against a baseline that never moved data fails its gate.
  const auto ratio = [](double got, double base) {
    return base > 0 ? got / base : 0.0;
  };
  // Sharding gate 1: with 2 dual-port shards the contended AGGREGATE must
  // reach >= 1.8x the single-stack contended per-stream goodput, in both
  // directions — the wire fair-share ceiling that capped each stream at
  // ~half a port is gone once the flows stop sharing a stack and a port.
  rep.gate("sharded2 send aggregate / contended send_mbps >= 1.8",
           ratio(rows[6].send_aggregate, rows[4].send_mbps), ">=", 1.8);
  rep.gate("sharded2 recv aggregate / contended recv_mbps >= 1.8",
           ratio(rows[6].recv_aggregate, rows[4].recv_mbps), ">=", 1.8);
  // Sharding gate 2: the sharded service at ONE shard must not tax the
  // uncontended path — within 5% of the classic single-stack row from the
  // same run (same volume, same transients: self-calibrating).
  rep.gate("|sharded1 send / uncontended send - 1| <= 0.05",
           std::fabs(ratio(rows[5].send_mbps, rows[3].send_mbps) - 1.0), "<=",
           0.05);
  rep.gate("|sharded1 recv / uncontended recv - 1| <= 0.05",
           std::fabs(ratio(rows[5].recv_mbps, rows[3].recv_mbps) - 1.0), "<=",
           0.05);
  // TSO ablation gate: the offload row must actually have sliced in the
  // device (super-segments reached the wire) and goodput must not regress
  // against the TSO-off control from the same run.
  rep.gate("scenario2_uncontended_tso.tso_frames > 0", rows[8].tx.tso_frames,
           ">", 0);
  rep.gate("scenario2_uncontended_tso.tso_bytes > 0", rows[8].tx.tso_bytes,
           ">", 0);
  rep.gate("tso send / uncontended send >= 0.95",
           ratio(rows[8].send_mbps, rows[3].send_mbps), ">=", 0.95);
  // Sharding gate 3: every sharded row must report both of its shards and
  // show traffic on EVERY shard (steering worked: no shard sat idle while a
  // sibling carried both flows), and each shard's calls went through its
  // own mutex.
  for (const RowCensus* r : {&rows[6], &rows[7]}) {
    const std::string key = r->key;
    rep.gate(key + " shard count", r->shards.size(), "==", 2);
    for (std::size_t s = 0; s < r->shards.size(); ++s) {
      const auto& sc = r->shards[s];
      const std::string shard = key + ".shards[" + std::to_string(s) + "]";
      rep.gate(shard + ".mbps > 0", sc.mbps, ">", 0);
      rep.gate(shard + ".proxied_calls > 0", sc.proxied_calls, ">", 0);
      rep.gate(shard + " mutex acquisitions > 0",
               sc.mutex_fast + sc.mutex_contended, ">", 0);
    }
  }
  return rep.finish();
}
