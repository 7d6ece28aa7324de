// Figure 4 — ff_write() execution time: Scenario 1 vs Baseline (two
// processes), both ports.
//
// The paper: the CHERI compartment costs ~125 ns over the baseline — "the
// additional indirections required by the musl-Intravisor mechanism" (the
// measured window includes a trampolined clock_gettime; cVMs cannot read
// the timers directly).
#include "bench_common.hpp"

using namespace cherinet;
using namespace cherinet::bench;
using namespace cherinet::scen;

int main() {
  print_header("Figure 4: ff_write() — Scenario 1 vs Baseline",
               "paper Fig. 4 (delta ~125 ns from the trampoline)");
  const std::size_t iters =
      static_cast<std::size_t>(env_u64("CHERINET_BENCH_ITERS", 200'000));
  std::printf("%zu measured ff_write(1448B) per endpoint "
              "(paper: 1M; CHERINET_BENCH_ITERS to override), IQR-filtered\n",
              iters);
  TestbedOptions opt;
  opt.inline_tcp_output = false;  // F-Stack defers emission to the main loop

  auto rows = reduce_latency(
      run_ffwrite_latency(ScenarioKind::kBaseline2Proc, iters, 1448, opt));
  const auto s1 = reduce_latency(
      run_ffwrite_latency(ScenarioKind::kScenario1, iters, 1448, opt));
  rows.insert(rows.end(), s1.begin(), s1.end());
  print_latency(rows);

  const double base = rows[0].summary.median;
  const double cheri = rows[2].summary.median;
  std::printf("median delta (Scenario1 - Baseline): %+.0f ns  "
              "(paper: ~+125 ns)\n",
              cheri - base);

  // Crossing census: the TX batch path must amortize the measured-window
  // crossings >= 8x over per-call v1 for the same byte volume, and the
  // zero-copy RX path (epoll-gated mbuf loan bursts) must do the same on
  // the receive side with ZERO receive-sockbuf copies. The v3 uring leg
  // then requires >= 2x fewer crossings than those batch paths with zero
  // crossings per op in steady state, and the TSO ablation >= 2x fewer TX
  // descriptors per byte. Every leg lands in BENCH_fig4.json.
  Report rep("fig4");
  run_crossing_census(ScenarioKind::kScenario1, opt, rep);
  return rep.finish();
}
