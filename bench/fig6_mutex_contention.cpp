// Figure 6 — ff_write() execution time: Scenario 2 uncontended vs
// contended.
//
// The paper: with cVM2 and cVM3 both writing flat out, an acquisition of
// the F-Stack coordination mutex that finds it taken escalates through
// futex -> trampoline -> _umtx_op, and the mean write rises to ~19,000 ns
// (~152x the uncontended mean) — yet Table II shows the aggregate
// bandwidth still reaches the link ceiling.
//
// Both legs run on the lockstep rig (one thread, virtual time), so every
// leaf of BENCH_fig6.json outside "wall" replays byte for byte. Per series
// the bench reports each write's VIRTUAL wait, first attempt to success:
// a contended writer waits on the sibling sharing the port's drain, and
// some waits span several drain epochs (> 150 us); a writer paced 20 us
// apart, as the paper's uncontended one was, never does. The rig does not
// model the futex escalation itself: on one thread every mutex acquisition
// is a fast path, so mutex_contended is 0. bench_ablation_locking times
// real futex contention between threads.
#include "bench_common.hpp"

using namespace cherinet;
using namespace cherinet::bench;
using namespace cherinet::scen;

namespace {

constexpr double kStallNs = 150'000.0;  // a wait across several drain epochs

struct VirtualWaits {
  double mean = 0.0;
  double p99 = 0.0;
  std::size_t stalls = 0;  // writes that waited more than kStallNs
};

VirtualWaits virtual_waits(const LatencySeries& s) {
  std::vector<double> v = s.virtual_ns;
  std::sort(v.begin(), v.end());
  VirtualWaits w;
  w.mean = stats::summarize(v).mean;
  w.p99 = stats::quantile_sorted(v, 0.99);
  w.stalls = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), kStallNs));
  return w;
}

/// Record one leg under `key` (virtual waits and the mutex census) and its
/// wall-clock summaries under wall.`key`, and print them. Returns the
/// per-series virtual waits.
std::vector<VirtualWaits> record_leg(Report& rep, const std::string& key,
                                     const LatencyOutcome& out) {
  std::vector<VirtualWaits> waits;
  rep.at(key)
      .set("mutex_fast", out.mutex_fast)
      .set("mutex_contended", out.mutex_contended);
  std::printf("%s: stack mutex %llu fast / %llu contended acquisitions\n",
              to_string(out.kind),
              static_cast<unsigned long long>(out.mutex_fast),
              static_cast<unsigned long long>(out.mutex_contended));
  for (const LatencySeries& s : out.series) {
    const VirtualWaits w = waits.emplace_back(virtual_waits(s));
    rep.row(key + ".series")
        .set("label", s.label)
        .set("writes", s.virtual_ns.size())
        .set("virtual_mean_ns", w.mean)
        .set("virtual_p99_ns", w.p99)
        .set("stalls_over_150us", w.stalls);
    const stats::Summary wall = stats::summarize(stats::iqr_filter(s.samples_ns));
    rep.row("wall." + key)
        .set("label", s.label)
        .set("mean_ns", wall.mean)
        .set("median_ns", wall.median);
    std::printf("  %-5s virtual wait mean %9.0f ns  p99 %9.0f ns  "
                "%4zu writes waited > 150 us\n",
                s.label.c_str(), w.mean, w.p99, w.stalls);
  }
  return waits;
}

}  // namespace

int main() {
  print_header(
      "Figure 6: ff_write() — Scenario 2 uncontended vs contended",
      "paper Fig. 6 (~19 us mean under contention, ~152x uncontended)");
  const std::size_t iters_unc =
      static_cast<std::size_t>(env_u64("CHERINET_BENCH_ITERS", 100'000));
  const std::size_t iters_con = static_cast<std::size_t>(
      env_u64("CHERINET_BENCH_ITERS_CONTENDED", 25'000));
  std::printf("%zu uncontended / %zu contended ff_write(1448B) per cVM; "
              "wall-clock table IQR-filtered\n",
              iters_unc, iters_con);
  TestbedOptions opt;
  opt.inline_tcp_output = false;

  const LatencyOutcome unc = run_ffwrite_latency(
      ScenarioKind::kScenario2Uncontended, iters_unc, 1448, opt);
  const LatencyOutcome con = run_ffwrite_latency(
      ScenarioKind::kScenario2Contended, iters_con, 1448, opt);
  auto rows = reduce_latency(unc);
  const auto con_rows = reduce_latency(con);
  rows.insert(rows.end(), con_rows.begin(), con_rows.end());
  print_latency(rows);

  Report rep("fig6");
  rep.set("uncontended.writes_per_cvm", iters_unc)
      .set("contended.writes_per_cvm", iters_con);
  std::printf("virtual wait per write, first attempt to success:\n");
  const auto unc_waits = record_leg(rep, "uncontended", unc);
  const auto con_waits = record_leg(rep, "contended", con);
  std::printf("The rig runs every compartment on one thread, so each stack "
              "mutex acquisition is a fast path: the futex escalation the "
              "paper prices is not modeled here (bench_ablation_locking "
              "times it between real threads).\n");

  // --- batch-size sweep: the contention knob of API v2 ---
  // proxied_calls_ counts BATCHES, so each ff_writev of N iovecs is one
  // mutex acquisition moving N x 1448 bytes: widening the batch divides
  // the number of acquisitions needed for the same byte volume. Reported
  // per batch size: the contended virtual wait per CALL and per MSS chunk.
  const std::size_t iters_sweep = static_cast<std::size_t>(
      env_u64("CHERINET_FIG6_SWEEP_ITERS", 5'000));
  rep.set("sweep_writes_per_cvm", iters_sweep);
  std::printf("\nbatch-size sweep, contended (%zu batched writes per cVM):\n",
              iters_sweep);
  std::printf("  %-6s %18s %19s %16s\n", "batch", "virtual ns/call",
              "virtual ns/chunk", "wall ns/call");
  for (const std::size_t b : {1, 8, 32}) {
    const LatencyOutcome sw = run_ffwrite_latency(
        ScenarioKind::kScenario2Contended, iters_sweep, 1448, opt, b);
    double virt = 0.0;
    double wall = 0.0;
    for (const LatencySeries& s : sw.series) {
      virt = std::max(virt, virtual_waits(s).mean);
      wall = std::max(wall, stats::summarize(stats::iqr_filter(s.samples_ns)).mean);
    }
    const double bd = static_cast<double>(b);
    rep.row("sweep")
        .set("batch", b)
        .set("virtual_ns_per_call", virt)
        .set("virtual_ns_per_chunk", virt / bd)
        .set("mutex_fast", sw.mutex_fast)
        .set("mutex_contended", sw.mutex_contended);
    rep.row("wall.sweep").set("batch", b).set("mean_ns_per_call", wall);
    std::printf("  %-6zu %18.0f %19.0f %16.0f\n", b, virt, virt / bd, wall);
  }

  // The thresholds Latency.Scenario2ContentionDwarfsUncontended asserts.
  for (std::size_t i = 0; i < con_waits.size(); ++i) {
    rep.gate("contended." + con.series[i].label + " stalls_over_150us",
             con_waits[i].stalls, ">=", 5);
  }
  for (std::size_t i = 0; i < unc_waits.size(); ++i) {
    rep.gate("uncontended." + unc.series[i].label + " stalls_over_150us",
             unc_waits[i].stalls, "<=", 2);
  }
  return rep.finish();
}
