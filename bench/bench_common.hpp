// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "scenarios/experiment.hpp"
#include "stats/box_plot.hpp"

namespace cherinet::bench {

/// Environment-tunable workload knobs (defaults keep the full harness under
/// a couple of minutes; raise for paper-scale runs).
inline std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

/// Run one latency configuration and reduce it to the paper's reporting
/// pipeline (IQR outlier removal, then summary stats).
inline std::vector<stats::NamedSummary> reduce_latency(
    const scen::LatencyOutcome& out) {
  std::vector<stats::NamedSummary> rows;
  for (const auto& s : out.series) {
    rows.push_back({std::string(to_string(out.kind)) + " " + s.label,
                    stats::summarize(stats::iqr_filter(s.samples_ns))});
  }
  return rows;
}

inline void print_latency(const std::vector<stats::NamedSummary>& rows) {
  std::printf("%s", stats::render_summary_table(rows).c_str());
  std::printf("\n%s\n", stats::render_box_plots(rows).c_str());
}

/// Everything the fig4/fig5 gates measure, kept so the bench can emit one
/// JSON artifact per figure (scripts/check.sh surfaces them as
/// BENCH_fig4.json / BENCH_fig5.json — the cross-PR perf trajectory).
struct BenchArtifacts {
  std::uint64_t census_bytes = 0;
  scen::Census tx_v1;
  scen::Census tx_v2;
  scen::Census rx_v1;
  scen::Census rx_zc;
  scen::Census tx_uring;
  scen::Census tx_uring_zc;  // TCP zc TX (OP_ZC_ALLOC + OP_ZC_SEND)
  scen::Census rx_uring;
  scen::Census rx_lossy;     // RX through a corrupting wire
  scen::BandwidthOutcome::TxBurstCensus tso;      // TSO negotiated
  scen::BandwidthOutcome::TxBurstCensus tso_ctl;  // same run, TSO masked
};

/// The census byte volume (CHERINET_CENSUS_KB). The floor keeps the gates
/// meaningful: below ~one batch of MSS-sized chunks every path degenerates
/// to a single call.
inline std::uint64_t census_bytes() {
  return std::max<std::uint64_t>(env_u64("CHERINET_CENSUS_KB", 4096), 256) *
         1024;
}

/// The census counts; it does not time, so crossings cost nothing.
inline scen::TestbedOptions counting(const scen::TestbedOptions& opt) {
  scen::TestbedOptions copt = opt;
  copt.cost = sim::CostModel::disabled();
  return copt;
}

/// API v2 regression gate shared by fig4/fig5: run the crossing census over
/// the same byte volume through the v1 per-call path and the batched path,
/// print the table, and require >= 8x crossing amortization plus strictly
/// lower modeled cost per MiB. Returns the process exit code (0 pass).
inline int run_census_gate(scen::ScenarioKind kind,
                           const scen::TestbedOptions& opt,
                           BenchArtifacts* art = nullptr) {
  const std::uint64_t bytes = census_bytes();
  const auto v1 =
      run_census(kind, scen::CensusLeg::kWrite, bytes, counting(opt));
  const auto v2 =
      run_census(kind, scen::CensusLeg::kWritev, bytes, counting(opt));
  if (art != nullptr) {
    art->census_bytes = bytes;
    art->tx_v1 = v1;
    art->tx_v2 = v2;
  }
  std::printf("\ncrossing census (%llu KiB, batch=%zu):\n",
              static_cast<unsigned long long>(bytes / 1024),
              scen::kCensusBatch);
  std::printf("  v1 ff_write : %8llu calls  %8llu crossings  %10.0f ns/MiB\n",
              static_cast<unsigned long long>(v1.api_calls),
              static_cast<unsigned long long>(v1.crossings),
              v1.modeled_ns_per_mib);
  std::printf("  v2 ff_writev: %8llu calls  %8llu crossings  %10.0f ns/MiB\n",
              static_cast<unsigned long long>(v2.api_calls),
              static_cast<unsigned long long>(v2.crossings),
              v2.modeled_ns_per_mib);
  if (v2.crossings * 8 > v1.crossings) {
    std::fprintf(stderr,
                 "FAIL: batch path crossed %llu times, v1 %llu — expected "
                 ">= 8x amortization\n",
                 static_cast<unsigned long long>(v2.crossings),
                 static_cast<unsigned long long>(v1.crossings));
    return 1;
  }
  if (!(v2.crossings < v1.crossings) ||
      !(v2.modeled_ns_per_mib < v1.modeled_ns_per_mib)) {
    std::fprintf(stderr, "FAIL: batch path must be strictly cheaper per MiB\n");
    return 1;
  }
  std::printf("  amortization: %.1fx fewer crossings, %.1fx lower modeled "
              "cost/MiB\n",
              static_cast<double>(v1.crossings) /
                  static_cast<double>(v2.crossings),
              v1.modeled_ns_per_mib / v2.modeled_ns_per_mib);
  return 0;
}

/// RX census gate shared by fig4/fig5: receive the same byte volume through
/// the per-call v1 path (epoll_wait + ff_read per MSS, every byte copied
/// out of the stack) and through the zero-copy path (epoll_wait-gated
/// ff_zc_recv loan bursts + batched recycling). Requires: the zc path
/// copies ZERO receive-side bytes, every loan is recycled, crossings
/// amortize >= 8x, and modeled cost/MiB is strictly lower. Returns the
/// process exit code (0 pass).
inline int run_rx_census_gate(scen::ScenarioKind kind,
                              const scen::TestbedOptions& opt,
                              BenchArtifacts* art = nullptr) {
  const std::uint64_t bytes = census_bytes();
  const auto v1 = run_census(kind, scen::CensusLeg::kRead, bytes, counting(opt));
  const auto zc =
      run_census(kind, scen::CensusLeg::kZcRecv, bytes, counting(opt));
  if (art != nullptr) {
    art->rx_v1 = v1;
    art->rx_zc = zc;
  }
  std::printf("\nRX census (%llu KiB received):\n",
              static_cast<unsigned long long>(bytes / 1024));
  std::printf("  v1 ff_read  : %8llu calls  %8llu crossings  %10llu copied B"
              "  %10.0f ns/MiB\n",
              static_cast<unsigned long long>(v1.api_calls),
              static_cast<unsigned long long>(v1.crossings),
              static_cast<unsigned long long>(v1.rx_copied_bytes),
              v1.modeled_ns_per_mib);
  std::printf("  zc ff_zc_recv: %7llu calls  %8llu crossings  %10llu copied B"
              "  %10.0f ns/MiB  (%llu loans, %llu recycled)\n",
              static_cast<unsigned long long>(zc.api_calls),
              static_cast<unsigned long long>(zc.crossings),
              static_cast<unsigned long long>(zc.rx_copied_bytes),
              zc.modeled_ns_per_mib,
              static_cast<unsigned long long>(zc.zc_loans),
              static_cast<unsigned long long>(zc.zc_recycles));
  if (zc.bytes < bytes || v1.bytes < bytes) {
    std::fprintf(stderr, "FAIL: RX census did not deliver the byte volume "
                         "(v1 %llu, zc %llu of %llu)\n",
                 static_cast<unsigned long long>(v1.bytes),
                 static_cast<unsigned long long>(zc.bytes),
                 static_cast<unsigned long long>(bytes));
    return 1;
  }
  if (zc.rx_copied_bytes != 0) {
    std::fprintf(stderr,
                 "FAIL: zero-copy RX path copied %llu bytes (expected 0)\n",
                 static_cast<unsigned long long>(zc.rx_copied_bytes));
    return 1;
  }
  if (zc.zc_loans == 0 || zc.zc_recycles != zc.zc_loans) {
    std::fprintf(stderr,
                 "FAIL: loan lifecycle broken (%llu loans, %llu recycles)\n",
                 static_cast<unsigned long long>(zc.zc_loans),
                 static_cast<unsigned long long>(zc.zc_recycles));
    return 1;
  }
  if (zc.crossings * 8 > v1.crossings) {
    std::fprintf(stderr,
                 "FAIL: zc RX path crossed %llu times, v1 %llu — expected "
                 ">= 8x amortization\n",
                 static_cast<unsigned long long>(zc.crossings),
                 static_cast<unsigned long long>(v1.crossings));
    return 1;
  }
  if (!(zc.modeled_ns_per_mib < v1.modeled_ns_per_mib)) {
    std::fprintf(stderr,
                 "FAIL: zc RX path must be strictly cheaper per MiB\n");
    return 1;
  }
  std::printf("  amortization: %.1fx fewer crossings, zero sockbuf copies "
              "(v1 copied %.1f MiB)\n",
              static_cast<double>(v1.crossings) /
                  static_cast<double>(zc.crossings),
              static_cast<double>(v1.rx_copied_bytes) / (1024.0 * 1024.0));
  return 0;
}

/// API v3 regression gate shared by fig4/fig5: move the same byte volume
/// through the ff_uring ring, both directions, and require
///   * >= 2x fewer crossings than the PR-2 batch path (TX) and zero-copy
///     path (RX) it replaces, and
///   * zero crossings per op under sustained load: the crossing count must
///     stay a small constant (arm + doorbells + one-time setup) while SQEs
///     scale with the volume — at most one crossing per 8 ring ops, with a
///     floor for tiny smoke volumes.
/// Requires the PR-2 censuses already recorded in `art` (run the v2 gates
/// first). Returns the process exit code (0 pass).
inline int run_uring_gate(scen::ScenarioKind kind,
                          const scen::TestbedOptions& opt,
                          BenchArtifacts* art) {
  const std::uint64_t census_bytes = bench::census_bytes();
  const auto tx = run_census(kind, scen::CensusLeg::kRingWritev, census_bytes,
                             counting(opt));
  const auto txz = run_census(kind, scen::CensusLeg::kRingZcSend,
                              census_bytes, counting(opt));
  const auto rx = run_census(kind, scen::CensusLeg::kRingZcRecv, census_bytes,
                             counting(opt));
  art->tx_uring = tx;
  art->tx_uring_zc = txz;
  art->rx_uring = rx;
  std::printf("\nuring census (%llu KiB each way):\n",
              static_cast<unsigned long long>(census_bytes / 1024));
  std::printf("  v3 TX ring : %8llu sqes  %8llu cqes  %4llu crossings "
              "(%llu doorbells)  %10.0f ns/MiB\n",
              static_cast<unsigned long long>(tx.sqes),
              static_cast<unsigned long long>(tx.cqes),
              static_cast<unsigned long long>(tx.crossings),
              static_cast<unsigned long long>(tx.doorbells),
              tx.modeled_ns_per_mib);
  std::printf("  v3 TX zc   : %8llu sqes  %8llu cqes  %4llu crossings "
              "(%llu doorbells)  %10llu tx copies  %10llu zc B  "
              "%6llu emit reads  %6llu sw-csum B\n",
              static_cast<unsigned long long>(txz.sqes),
              static_cast<unsigned long long>(txz.cqes),
              static_cast<unsigned long long>(txz.crossings),
              static_cast<unsigned long long>(txz.doorbells),
              static_cast<unsigned long long>(txz.tx_copied_bytes),
              static_cast<unsigned long long>(txz.tx_zc_bytes),
              static_cast<unsigned long long>(txz.tx_emit_payload_reads),
              static_cast<unsigned long long>(txz.stack_checksum_bytes));
  std::printf("  v3 RX ring : %8llu sqes  %8llu cqes  %4llu crossings "
              "(%llu doorbells)  %10.0f ns/MiB\n",
              static_cast<unsigned long long>(rx.sqes),
              static_cast<unsigned long long>(rx.cqes),
              static_cast<unsigned long long>(rx.crossings),
              static_cast<unsigned long long>(rx.doorbells),
              rx.modeled_ns_per_mib);
  if (tx.bytes < census_bytes || rx.bytes < census_bytes ||
      txz.bytes < census_bytes) {
    std::fprintf(stderr,
                 "FAIL: uring census did not move the byte volume "
                 "(tx %llu, tx-zc %llu, rx %llu of %llu)\n",
                 static_cast<unsigned long long>(tx.bytes),
                 static_cast<unsigned long long>(txz.bytes),
                 static_cast<unsigned long long>(rx.bytes),
                 static_cast<unsigned long long>(census_bytes));
    return 1;
  }
  // The TCP zc TX gate: the whole volume rides retained mbuf references —
  // ZERO send-side byte copies — while the crossing budget stays the
  // doorbell-only one of the OP_WRITEV path (the alloc round trip is ring
  // traffic, not crossings).
  if (txz.tx_copied_bytes != 0) {
    std::fprintf(stderr,
                 "FAIL: TCP zc TX path copied %llu send-side bytes "
                 "(expected 0)\n",
                 static_cast<unsigned long long>(txz.tx_copied_bytes));
    return 1;
  }
  if (txz.tx_zc_bytes < census_bytes) {
    std::fprintf(stderr,
                 "FAIL: TCP zc TX path queued only %llu zc bytes of %llu\n",
                 static_cast<unsigned long long>(txz.tx_zc_bytes),
                 static_cast<unsigned long long>(census_bytes));
    return 1;
  }
  // Scatter-gather emission gate: frames leave as indirect mbuf chains
  // with checksums COMPOSED from cached partials — the emission path may
  // read back exactly zero payload bytes (no staging copy, no checksum
  // re-read), first transmission and retransmission alike.
  if (txz.tx_emit_payload_reads != 0) {
    std::fprintf(stderr,
                 "FAIL: zc TX emission re-read %llu payload bytes "
                 "(expected 0: gather + cached checksums)\n",
                 static_cast<unsigned long long>(txz.tx_emit_payload_reads));
    return 1;
  }
  // Hardware-offload gate: with TX checksum insertion negotiated (the
  // default EthConf), the stack seeds pseudo-headers and never walks
  // payload bytes for a checksum — on top of the zero-copy and zero-re-read
  // gates above, at the same doorbell-only crossing budget.
  if ((opt.offloads & updk::kOffloadTxTcpCsum) != 0 &&
      (tx.stack_checksum_bytes != 0 || txz.stack_checksum_bytes != 0)) {
    std::fprintf(stderr,
                 "FAIL: offload path software-checksummed %llu (writev) / "
                 "%llu (zc) payload bytes (expected 0: device inserts)\n",
                 static_cast<unsigned long long>(tx.stack_checksum_bytes),
                 static_cast<unsigned long long>(txz.stack_checksum_bytes));
    return 1;
  }
  if (tx.crossings * 2 > art->tx_v2.crossings) {
    std::fprintf(stderr,
                 "FAIL: uring TX crossed %llu times, v2 batch %llu — "
                 "expected >= 2x fewer\n",
                 static_cast<unsigned long long>(tx.crossings),
                 static_cast<unsigned long long>(art->tx_v2.crossings));
    return 1;
  }
  if (rx.crossings * 2 > art->rx_zc.crossings) {
    std::fprintf(stderr,
                 "FAIL: uring RX crossed %llu times, PR-2 zc path %llu — "
                 "expected >= 2x fewer\n",
                 static_cast<unsigned long long>(rx.crossings),
                 static_cast<unsigned long long>(art->rx_zc.crossings));
    return 1;
  }
  // Steady-state: crossings must not scale with ops. The floors cover the
  // fixed setup (arm; RX also one accept-time epoll_ctl) plus doorbell
  // slack on tiny smoke volumes.
  const auto steady = [](const scen::Census& c,
                         std::uint64_t floor_) {
    return c.crossings <= std::max<std::uint64_t>(floor_, c.sqes / 8);
  };
  if (!steady(tx, 6) || !steady(rx, 8) || !steady(txz, 6)) {
    std::fprintf(stderr,
                 "FAIL: uring path is crossing per op (tx %llu/%llu sqes, "
                 "tx-zc %llu/%llu, rx %llu/%llu sqes) — steady state must "
                 "be doorbell-only\n",
                 static_cast<unsigned long long>(tx.crossings),
                 static_cast<unsigned long long>(tx.sqes),
                 static_cast<unsigned long long>(txz.crossings),
                 static_cast<unsigned long long>(txz.sqes),
                 static_cast<unsigned long long>(rx.crossings),
                 static_cast<unsigned long long>(rx.sqes));
    return 1;
  }
  std::printf("  steady state: zero crossings per op (TX %llu crossings / "
              "%llu ops, RX %llu / %llu)\n",
              static_cast<unsigned long long>(tx.crossings),
              static_cast<unsigned long long>(tx.sqes),
              static_cast<unsigned long long>(rx.crossings),
              static_cast<unsigned long long>(rx.sqes));
  return 0;
}

/// TSO ablation gate: the same fully-acked TCP volume once with TSO
/// negotiated and once with it masked off (checksum insertion stays on in
/// both). The TSO leg must hand super-segment chains to the device
/// (tso_frames > 0) and consume >= 2x fewer TX descriptors per emitted
/// byte than the control — the descriptor amortization TSO exists for.
/// Runs over run_bandwidth (not the uring census) so emission completes:
/// the census app exits with queued bytes unemitted, which would leave the
/// descriptor sample dominated by handshake frames. A sub-sockbuf-slice
/// MSS makes the win visible: the control pays a header descriptor per
/// MSS, the TSO leg one per 8-MSS super-segment. Returns process exit
/// code (0 pass).
inline int run_offload_gate(scen::ScenarioKind kind,
                            const scen::TestbedOptions& opt,
                            BenchArtifacts* art) {
  const std::uint64_t census_bytes = bench::census_bytes();
  scen::TestbedOptions copt = counting(opt);
  copt.inline_tcp_output = true;  // staged emission, full batches
  copt.mss = 724;
  copt.offloads = updk::kOffloadAll;
  const auto tso = run_bandwidth(kind, scen::Direction::kMorelloSends,
                                 census_bytes, copt);
  copt.offloads = updk::kOffloadDefault;  // csum insertion stays, TSO off
  const auto ctl = run_bandwidth(kind, scen::Direction::kMorelloSends,
                                 census_bytes, copt);
  art->tso = tso.morello_tx;
  art->tso_ctl = ctl.morello_tx;
  const auto moved = [](const scen::BandwidthOutcome& o) {
    std::uint64_t b = 0;
    for (const auto& e : o.endpoints) b += e.bytes;
    return b;
  };
  const auto per_kib = [](const scen::BandwidthOutcome::TxBurstCensus& c) {
    return c.bytes > 0 ? static_cast<double>(c.segs) * 1024.0 /
                             static_cast<double>(c.bytes)
                       : 0.0;
  };
  std::printf("\nTSO ablation (%llu KiB acked TCP, mss=%u):\n",
              static_cast<unsigned long long>(census_bytes / 1024), copt.mss);
  std::printf("  tso on  [%s]: %6llu descs / %llu wire B  %6.2f descs/KiB  "
              "%llu tso frames (%llu B sliced)\n",
              updk::offload_names(updk::kOffloadAll).c_str(),
              static_cast<unsigned long long>(tso.morello_tx.segs),
              static_cast<unsigned long long>(tso.morello_tx.bytes),
              per_kib(tso.morello_tx),
              static_cast<unsigned long long>(tso.morello_tx.tso_frames),
              static_cast<unsigned long long>(tso.morello_tx.tso_bytes));
  std::printf("  tso off [%s]: %6llu descs / %llu wire B  %6.2f descs/KiB\n",
              updk::offload_names(updk::kOffloadDefault).c_str(),
              static_cast<unsigned long long>(ctl.morello_tx.segs),
              static_cast<unsigned long long>(ctl.morello_tx.bytes),
              per_kib(ctl.morello_tx));
  if (moved(tso) < census_bytes || moved(ctl) < census_bytes) {
    std::fprintf(stderr,
                 "FAIL: TSO ablation did not move the byte volume "
                 "(tso %llu, ctl %llu of %llu)\n",
                 static_cast<unsigned long long>(moved(tso)),
                 static_cast<unsigned long long>(moved(ctl)),
                 static_cast<unsigned long long>(census_bytes));
    return 1;
  }
  if (tso.morello_tx.tso_frames == 0 || tso.morello_tx.tso_bytes == 0) {
    std::fprintf(stderr, "FAIL: TSO leg handed the device no super-segments\n");
    return 1;
  }
  if (ctl.morello_tx.tso_frames != 0) {
    std::fprintf(stderr,
                 "FAIL: control leg sent %llu TSO frames with TSO masked\n",
                 static_cast<unsigned long long>(ctl.morello_tx.tso_frames));
    return 1;
  }
  // Cross-multiplied to stay in integers: ctl descs/byte >= 2x tso's.
  if (ctl.morello_tx.segs * tso.morello_tx.bytes <
      2 * tso.morello_tx.segs * ctl.morello_tx.bytes) {
    std::fprintf(stderr,
                 "FAIL: TSO saved too few descriptors (%.2f vs %.2f "
                 "descs/KiB — expected >= 2x fewer)\n",
                 per_kib(tso.morello_tx), per_kib(ctl.morello_tx));
    return 1;
  }
  std::printf("  amortization: %.1fx fewer descriptors per emitted byte\n",
              per_kib(ctl.morello_tx) / per_kib(tso.morello_tx));
  return 0;
}

/// Lossy-wire gate: the RX census volume through a wire that bit-flips a
/// fraction of the peer's data frames. Every corruption must die at the
/// Morello port's FCS check (rx_crc_errors == the wire's own corruption
/// census) or — had it slipped through — at the RX checksum verdict; the
/// socket stream itself must still deliver every byte via retransmission.
/// Returns the process exit code (0 pass).
inline int run_lossy_wire_gate(scen::ScenarioKind kind,
                               const scen::TestbedOptions& opt,
                               BenchArtifacts* art) {
  const std::uint64_t census_bytes = bench::census_bytes();
  scen::TestbedOptions lopt = counting(opt);
  lopt.impair.corrupt = 0.02;
  lopt.impair.seed = 7;
  const auto rx =
      run_census(kind, scen::CensusLeg::kRingZcRecv, census_bytes, lopt);
  art->rx_lossy = rx;
  std::printf("\nlossy wire (%llu KiB RX, corrupt=%.0f%%):\n",
              static_cast<unsigned long long>(census_bytes / 1024),
              lopt.impair.corrupt * 100.0);
  std::printf("  %llu wire corrupts  %llu FCS rejects  %llu verdict drops  "
              "%llu B delivered\n",
              static_cast<unsigned long long>(rx.wire_corrupts),
              static_cast<unsigned long long>(rx.rx_crc_errors),
              static_cast<unsigned long long>(rx.stack_csum_drops),
              static_cast<unsigned long long>(rx.bytes));
  if (rx.bytes < census_bytes) {
    std::fprintf(stderr,
                 "FAIL: lossy-wire RX delivered %llu of %llu bytes\n",
                 static_cast<unsigned long long>(rx.bytes),
                 static_cast<unsigned long long>(census_bytes));
    return 1;
  }
  if (rx.wire_corrupts == 0) {
    std::fprintf(stderr, "FAIL: impairment stage corrupted nothing — the "
                         "leg tested a clean wire\n");
    return 1;
  }
  if (rx.rx_crc_errors + rx.stack_csum_drops != rx.wire_corrupts) {
    std::fprintf(stderr,
                 "FAIL: corruption census disagrees (%llu corrupts vs %llu "
                 "FCS + %llu verdict drops) — a corrupt frame reached a "
                 "socket\n",
                 static_cast<unsigned long long>(rx.wire_corrupts),
                 static_cast<unsigned long long>(rx.rx_crc_errors),
                 static_cast<unsigned long long>(rx.stack_csum_drops));
    return 1;
  }
  std::printf("  every corrupt frame died at FCS/verdict; stream intact\n");
  return 0;
}

/// Write the figure's census numbers as one JSON artifact (the perf
/// trajectory scripts/check.sh tracks across PRs). Path:
/// $CHERINET_BENCH_JSON_DIR/BENCH_<fig>.json, cwd when the env is unset.
inline void emit_bench_json(const char* fig, const BenchArtifacts& a) {
  const char* dir = std::getenv("CHERINET_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
      "BENCH_" + fig + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::fprintf(f, "{\n  \"figure\": \"%s\",\n  \"census_bytes\": %llu,\n",
               fig, u(a.census_bytes));
  std::fprintf(f,
               "  \"tx\": {\n"
               "    \"v1\":    {\"calls\": %llu, \"crossings\": %llu, "
               "\"ns_per_mib\": %.0f},\n"
               "    \"v2\":    {\"calls\": %llu, \"crossings\": %llu, "
               "\"ns_per_mib\": %.0f},\n"
               "    \"uring\": {\"sqes\": %llu, \"cqes\": %llu, "
               "\"crossings\": %llu, \"doorbells\": %llu, "
               "\"ns_per_mib\": %.0f},\n"
               "    \"zc\":    {\"sqes\": %llu, \"cqes\": %llu, "
               "\"crossings\": %llu, \"doorbells\": %llu, "
               "\"tx_copies\": %llu, \"zc_bytes\": %llu, "
               "\"emit_payload_reads\": %llu}\n  },\n",
               u(a.tx_v1.api_calls), u(a.tx_v1.crossings),
               a.tx_v1.modeled_ns_per_mib, u(a.tx_v2.api_calls),
               u(a.tx_v2.crossings), a.tx_v2.modeled_ns_per_mib,
               u(a.tx_uring.sqes), u(a.tx_uring.cqes),
               u(a.tx_uring.crossings), u(a.tx_uring.doorbells),
               a.tx_uring.modeled_ns_per_mib, u(a.tx_uring_zc.sqes),
               u(a.tx_uring_zc.cqes), u(a.tx_uring_zc.crossings),
               u(a.tx_uring_zc.doorbells), u(a.tx_uring_zc.tx_copied_bytes),
               u(a.tx_uring_zc.tx_zc_bytes),
               u(a.tx_uring_zc.tx_emit_payload_reads));
  std::fprintf(f,
               "  \"rx\": {\n"
               "    \"v1\":    {\"calls\": %llu, \"crossings\": %llu, "
               "\"copied_bytes\": %llu, \"ns_per_mib\": %.0f},\n"
               "    \"zc\":    {\"calls\": %llu, \"crossings\": %llu, "
               "\"copied_bytes\": %llu, \"loans\": %llu, "
               "\"recycles\": %llu, \"ns_per_mib\": %.0f},\n"
               "    \"uring\": {\"sqes\": %llu, \"cqes\": %llu, "
               "\"crossings\": %llu, \"doorbells\": %llu, "
               "\"ns_per_mib\": %.0f}\n  },\n",
               u(a.rx_v1.api_calls), u(a.rx_v1.crossings),
               u(a.rx_v1.rx_copied_bytes), a.rx_v1.modeled_ns_per_mib,
               u(a.rx_zc.api_calls), u(a.rx_zc.crossings),
               u(a.rx_zc.rx_copied_bytes), u(a.rx_zc.zc_loans),
               u(a.rx_zc.zc_recycles), a.rx_zc.modeled_ns_per_mib,
               u(a.rx_uring.sqes), u(a.rx_uring.cqes),
               u(a.rx_uring.crossings), u(a.rx_uring.doorbells),
               a.rx_uring.modeled_ns_per_mib);
  // Hardware-offload trajectory: stack_checksum_bytes from the default
  // (offload-negotiated) zc census, the TSO ablation descriptor counts, and
  // the lossy-wire corruption agreement. scripts/check.sh greps these.
  std::fprintf(f,
               "  \"offload\": {\n"
               "    \"stack_checksum_bytes\": %llu,\n"
               "    \"tso\": {\"tso_frames\": %llu, \"tso_bytes\": %llu, "
               "\"descs\": %llu, \"payload\": %llu},\n"
               "    \"tso_ctl\": {\"descs\": %llu, \"payload\": %llu},\n"
               "    \"lossy\": {\"wire_corrupts\": %llu, "
               "\"rx_crc_errors\": %llu, \"stack_csum_drops\": %llu}\n"
               "  }\n}\n",
               u(a.tx_uring_zc.stack_checksum_bytes), u(a.tso.tso_frames),
               u(a.tso.tso_bytes), u(a.tso.segs), u(a.tso.bytes),
               u(a.tso_ctl.segs), u(a.tso_ctl.bytes),
               u(a.rx_lossy.wire_corrupts), u(a.rx_lossy.rx_crc_errors),
               u(a.rx_lossy.stack_csum_drops));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace cherinet::bench
