// Figure 5 — ff_write() execution time: Scenario 2 (uncontended) vs
// Baseline (single process).
//
// The measured call now crosses compartments: sealed-entry jump into the
// network cVM, stack mutex, write, return. The paper bounds the slowdown
// at ~200 ns over baseline (with writes paced to avoid mutex blocking).
#include "bench_common.hpp"

using namespace cherinet;
using namespace cherinet::bench;
using namespace cherinet::scen;

int main() {
  print_header("Figure 5: ff_write() — Scenario 2 (uncontended) vs Baseline",
               "paper Fig. 5 (delta ~200 ns: cross-cVM jump + mutex)");
  const std::size_t iters =
      static_cast<std::size_t>(env_u64("CHERINET_BENCH_ITERS", 200'000));
  std::printf("%zu measured ff_write(1448B) per endpoint "
              "(paper: 1M; CHERINET_BENCH_ITERS to override), IQR-filtered; "
              "uncontended writes paced as in the paper\n",
              iters);
  TestbedOptions opt;
  opt.inline_tcp_output = false;

  auto rows = reduce_latency(
      run_ffwrite_latency(ScenarioKind::kBaseline1Proc, iters, 1448, opt));
  const auto s2 = reduce_latency(run_ffwrite_latency(
      ScenarioKind::kScenario2Uncontended, iters, 1448, opt));
  rows.insert(rows.end(), s2.begin(), s2.end());
  print_latency(rows);

  std::printf("median delta (Scenario2u - Baseline): %+.0f ns  "
              "(paper: ~+200 ns)\n",
              rows[1].summary.median - rows[0].summary.median);

  // Crossing census: in Scenario 2 every v1 ff_write is its own cross-cVM
  // jump + mutex acquisition; the batch path must amortize >= 8x. On the
  // receive side, epoll-gated zc loan bursts must beat per-call
  // epoll_wait + ff_read by the same factor with zero copies. The v3 uring
  // leg then requires >= 2x fewer crossings than those batch paths with
  // zero crossings per op in steady state (doorbell-only), and the TSO
  // ablation >= 2x fewer TX descriptors per byte. The lossy-wire leg adds
  // bit-flip corruption on the peer's egress: it must be fully accounted by
  // the Morello port's FCS rejects + RX checksum verdicts while the stream
  // still delivers every byte. Every leg lands in BENCH_fig5.json.
  Report rep("fig5");
  run_crossing_census(ScenarioKind::kScenario2Uncontended, opt, rep);
  run_lossy_wire_census(ScenarioKind::kScenario2Uncontended, opt, rep);
  return rep.finish();
}
