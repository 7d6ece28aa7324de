// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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

// ---------------------------------------------------------------- artifacts

inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// One JSON scalar, rendered once: integers print as integers, doubles in
/// shortest round-trip form (non-finite ones as null), strings quoted.
/// `num` is what a gate compares.
struct Value {
  double num = 0.0;
  std::string json;

  Value(bool b) : num(b ? 1.0 : 0.0), json(b ? "true" : "false") {}
  template <std::integral T>
  Value(T v) : num(static_cast<double>(v)), json(std::to_string(v)) {}
  Value(double d) : num(d), json("null") {
    char buf[32];
    if (std::isfinite(d)) {
      json.assign(buf, std::to_chars(buf, buf + sizeof buf, d).ptr);
    }
  }
  Value(std::string_view s) : json(json_quote(s)) {}
  Value(const char* s) : Value(std::string_view(s)) {}
  Value(const std::string& s) : Value(std::string_view(s)) {}
};

/// An insertion-ordered JSON object (or array). Paths are dotted:
/// set("tx.v1.crossings", v) creates the "tx" and "v1" objects on the way.
class Fields {
 public:
  Fields& set(std::string_view path, const Value& v) {
    at(path).leaf_ = v.json;
    return *this;
  }
  /// The object at `path`, created empty if missing.
  Fields& at(std::string_view path) {
    Fields* node = this;
    for (std::size_t dot = 0; dot != std::string_view::npos;) {
      dot = path.find('.');
      node = &node->child(path.substr(0, dot));
      path.remove_prefix(dot == std::string_view::npos ? path.size()
                                                       : dot + 1);
    }
    return *node;
  }
  /// Appends an empty object to the array at `path` and returns it.
  Fields& row(std::string_view path) {
    Fields& arr = at(path);
    arr.array_ = true;
    return *arr.kids_.emplace_back(std::make_unique<Fields>());
  }
  /// Appends a scalar to the array at `path`.
  Fields& push(std::string_view path, const Value& v) {
    row(path).leaf_ = v.json;
    return *this;
  }

  /// Objects and arrays of scalars stay on one line; the rest nest.
  void render(std::string& out, int depth) const {
    if (!leaf_.empty()) {
      out += leaf_;
      return;
    }
    const bool flat = depth > 0 && std::all_of(kids_.begin(), kids_.end(),
                                               [](const auto& k) {
                                                 return !k->leaf_.empty();
                                               });
    out += array_ ? '[' : '{';
    for (std::size_t i = 0; i < kids_.size(); ++i) {
      out += i > 0 ? (flat ? ", " : ",") : "";
      if (!flat) out.append("\n").append(2 * (depth + 1), ' ');
      if (!array_) out += json_quote(kids_[i]->key_) + ": ";
      kids_[i]->render(out, depth + 1);
    }
    if (!flat && !kids_.empty()) out.append("\n").append(2 * depth, ' ');
    out += array_ ? ']' : '}';
  }

 private:
  Fields& child(std::string_view key) {
    for (auto& k : kids_) {
      if (k->key_ == key) return *k;
    }
    auto& k = kids_.emplace_back(std::make_unique<Fields>());
    k->key_ = key;
    return *k;
  }

  std::string key_;
  std::string leaf_;  // rendered scalar; empty for objects and arrays
  bool array_ = false;
  std::vector<std::unique_ptr<Fields>> kids_;
};

/// A bench's artifact and verdict: the measured fields plus one row per
/// gate. finish() writes $CHERINET_BENCH_JSON_DIR/BENCH_<figure>.json (cwd
/// when unset) — on failure too, so a stale passing artifact never
/// outlives a failing run — and returns the process exit status.
class Report : public Fields {
 public:
  explicit Report(std::string figure) : figure_(std::move(figure)) {
    set("figure", figure_);
  }

  /// Records `value op bound` (op: < <= == != >= >) and prints its
  /// PASS/FAIL line. NaN values fail.
  bool gate(std::string_view label, const Value& value, std::string_view op,
            const Value& bound) {
    const double a = value.num;
    const double b = bound.num;
    const bool pass = op == "<"    ? a < b
                      : op == "<=" ? a <= b
                      : op == "==" ? a == b
                      : op == "!=" ? a != b
                      : op == ">=" ? a >= b
                      : op == ">"  ? a > b
                                   : false;
    gates_.row("gates")
        .set("label", label)
        .set("value", value)
        .set("op", op)
        .set("bound", bound)
        .set("pass", pass);
    std::printf("%s: %.*s (%s %.*s %s)\n", pass ? "PASS" : "FAIL",
                static_cast<int>(label.size()), label.data(),
                value.json.c_str(), static_cast<int>(op.size()), op.data(),
                bound.json.c_str());
    ++total_;
    failed_ += pass ? 0 : 1;
    return pass;
  }

  int finish() {
    // Splice {"gates": [...], "gates_passed": ...} in as the last fields.
    std::string out;
    std::string gates;
    render(out, 0);
    gates_.set("gates_passed", failed_ == 0).render(gates, 0);
    out.resize(out.size() - 2);  // "\n}"
    out.append(",").append(gates, 1).append("\n");
    const char* dir = std::getenv("CHERINET_BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/"
                                        : std::string()) +
        "BENCH_" + figure_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool wrote = f != nullptr && std::fputs(out.c_str(), f) >= 0;
    if (f != nullptr) wrote &= std::fclose(f) == 0;
    std::printf("%zu/%zu gates passed; %s %s\n", total_ - failed_, total_,
                wrote ? "wrote" : "cannot write", path.c_str());
    return failed_ == 0 ? 0 : 1;
  }

 private:
  std::string figure_;
  Fields gates_;  // {"gates": [...], "gates_passed": ...}, spliced at finish
  std::size_t total_ = 0;
  std::size_t failed_ = 0;
};

// ------------------------------------------------- fig4/fig5 crossing census

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

/// API v2 TX leg: the same byte volume through the v1 per-call path and the
/// batched path; the batch must amortize crossings >= 8x and be strictly
/// cheaper per MiB. Returns the batch census (the uring leg's baseline).
inline scen::Census run_tx_census(scen::ScenarioKind kind,
                                  const scen::TestbedOptions& opt,
                                  Report& rep) {
  const std::uint64_t bytes = census_bytes();
  const auto v1 =
      run_census(kind, scen::CensusLeg::kWrite, bytes, counting(opt));
  const auto v2 =
      run_census(kind, scen::CensusLeg::kWritev, bytes, counting(opt));
  rep.at("tx.v1")
      .set("calls", v1.api_calls)
      .set("crossings", v1.crossings)
      .set("ns_per_mib", v1.modeled_ns_per_mib);
  rep.at("tx.v2")
      .set("calls", v2.api_calls)
      .set("crossings", v2.crossings)
      .set("ns_per_mib", v2.modeled_ns_per_mib);
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
  rep.gate("tx.v2.crossings <= tx.v1.crossings / 8", v2.crossings, "<=",
           static_cast<double>(v1.crossings) / 8.0);
  rep.gate("tx.v2.crossings < tx.v1.crossings", v2.crossings, "<",
           v1.crossings);
  rep.gate("tx.v2.ns_per_mib < tx.v1.ns_per_mib", v2.modeled_ns_per_mib, "<",
           v1.modeled_ns_per_mib);
  return v2;
}

/// RX leg: the per-call v1 path (epoll_wait + ff_read per MSS, every byte
/// copied out of the stack). Returns its census (the uring leg's
/// baseline: zero-copy RX has one door, the ring).
inline scen::Census run_rx_census(scen::ScenarioKind kind,
                                  const scen::TestbedOptions& opt,
                                  Report& rep) {
  const std::uint64_t bytes = census_bytes();
  const auto v1 = run_census(kind, scen::CensusLeg::kRead, bytes, counting(opt));
  rep.at("rx.v1")
      .set("calls", v1.api_calls)
      .set("crossings", v1.crossings)
      .set("copied_bytes", v1.rx_copied_bytes)
      .set("ns_per_mib", v1.modeled_ns_per_mib);
  std::printf("\nRX census (%llu KiB received):\n",
              static_cast<unsigned long long>(bytes / 1024));
  std::printf("  v1 ff_read  : %8llu calls  %8llu crossings  %10llu copied B"
              "  %10.0f ns/MiB\n",
              static_cast<unsigned long long>(v1.api_calls),
              static_cast<unsigned long long>(v1.crossings),
              static_cast<unsigned long long>(v1.rx_copied_bytes),
              v1.modeled_ns_per_mib);
  rep.gate("rx.v1 bytes delivered >= census volume", v1.bytes, ">=", bytes);
  return v1;
}

/// API v3 leg: the same byte volume through the ff_uring ring, both
/// directions, plus TCP zc TX. Requires
///   * >= 2x fewer crossings than the v2 batch path (TX), and >= 16x fewer
///     than the v1 per-call path (RX),
///   * zc RX: the whole volume arrives as loans (ZERO receive-side copies)
///     and every loan is recycled, at a lower modeled cost than v1,
///   * zero crossings per op under sustained load: the crossing count must
///     stay a small constant (arm + doorbells + one-time setup) while SQEs
///     scale with the volume — at most one crossing per 8 ring ops, with a
///     floor for tiny smoke volumes,
///   * zc TX: the whole volume rides retained mbuf references (ZERO send-
///     side copies) and emission gathers indirect chains with checksums
///     composed from cached partials (ZERO payload re-reads),
///   * with TX checksum insertion negotiated (the default EthConf), ZERO
///     payload bytes software-checksummed by the stack.
inline void run_uring_census(scen::ScenarioKind kind,
                             const scen::TestbedOptions& opt,
                             const scen::Census& tx_v2,
                             const scen::Census& rx_v1, Report& rep) {
  const std::uint64_t bytes = census_bytes();
  const auto tx =
      run_census(kind, scen::CensusLeg::kRingWritev, bytes, counting(opt));
  const auto txz =
      run_census(kind, scen::CensusLeg::kRingZcSend, bytes, counting(opt));
  const auto rx =
      run_census(kind, scen::CensusLeg::kRingZcRecv, bytes, counting(opt));
  rep.at("tx.uring")
      .set("sqes", tx.sqes)
      .set("cqes", tx.cqes)
      .set("crossings", tx.crossings)
      .set("doorbells", tx.doorbells)
      .set("ns_per_mib", tx.modeled_ns_per_mib);
  rep.at("tx.zc")
      .set("sqes", txz.sqes)
      .set("cqes", txz.cqes)
      .set("crossings", txz.crossings)
      .set("doorbells", txz.doorbells)
      .set("tx_copies", txz.tx_copied_bytes)
      .set("zc_bytes", txz.tx_zc_bytes)
      .set("emit_payload_reads", txz.tx_emit_payload_reads);
  rep.at("rx.uring")
      .set("sqes", rx.sqes)
      .set("cqes", rx.cqes)
      .set("crossings", rx.crossings)
      .set("doorbells", rx.doorbells)
      .set("copied_bytes", rx.rx_copied_bytes)
      .set("loans", rx.zc_loans)
      .set("recycles", rx.zc_recycles)
      .set("ns_per_mib", rx.modeled_ns_per_mib);
  rep.set("offload.stack_checksum_bytes", txz.stack_checksum_bytes);
  std::printf("\nuring census (%llu KiB each way):\n",
              static_cast<unsigned long long>(bytes / 1024));
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
              "(%llu doorbells)  %10llu copied B  %10.0f ns/MiB  "
              "(%llu loans, %llu recycled)\n",
              static_cast<unsigned long long>(rx.sqes),
              static_cast<unsigned long long>(rx.cqes),
              static_cast<unsigned long long>(rx.crossings),
              static_cast<unsigned long long>(rx.doorbells),
              static_cast<unsigned long long>(rx.rx_copied_bytes),
              rx.modeled_ns_per_mib,
              static_cast<unsigned long long>(rx.zc_loans),
              static_cast<unsigned long long>(rx.zc_recycles));
  rep.gate("tx.uring bytes queued >= census volume", tx.bytes, ">=", bytes);
  rep.gate("tx.zc bytes queued >= census volume", txz.bytes, ">=", bytes);
  rep.gate("rx.uring bytes delivered >= census volume", rx.bytes, ">=",
           bytes);
  rep.gate("rx.uring.copied_bytes == 0", rx.rx_copied_bytes, "==", 0);
  rep.gate("rx.uring.loans > 0", rx.zc_loans, ">", 0);
  rep.gate("rx.uring.recycles == rx.uring.loans", rx.zc_recycles, "==",
           rx.zc_loans);
  rep.gate("tx.zc.tx_copies == 0", txz.tx_copied_bytes, "==", 0);
  rep.gate("tx.zc.zc_bytes >= census volume", txz.tx_zc_bytes, ">=", bytes);
  rep.gate("tx.zc.emit_payload_reads == 0", txz.tx_emit_payload_reads, "==",
           0);
  if ((opt.offloads & updk::kOffloadTxTcpCsum) != 0) {
    rep.gate("tx.uring software-checksummed bytes == 0",
             tx.stack_checksum_bytes, "==", 0);
    rep.gate("offload.stack_checksum_bytes == 0", txz.stack_checksum_bytes,
             "==", 0);
  }
  rep.gate("tx.uring.crossings <= tx.v2.crossings / 2", tx.crossings, "<=",
           static_cast<double>(tx_v2.crossings) / 2.0);
  rep.gate("rx.uring.crossings <= rx.v1.crossings / 16", rx.crossings, "<=",
           static_cast<double>(rx_v1.crossings) / 16.0);
  rep.gate("rx.uring.ns_per_mib < rx.v1.ns_per_mib", rx.modeled_ns_per_mib,
           "<", rx_v1.modeled_ns_per_mib);
  // Steady state: crossings must not scale with ops. The floors cover the
  // fixed setup (arm; RX also one accept-time epoll_ctl) plus doorbell
  // slack on tiny smoke volumes.
  const auto budget = [](const scen::Census& c, std::uint64_t floor_) {
    return std::max<std::uint64_t>(floor_, c.sqes / 8);
  };
  rep.gate("tx.uring.crossings <= max(6, sqes / 8)", tx.crossings, "<=",
           budget(tx, 6));
  rep.gate("tx.zc.crossings <= max(6, sqes / 8)", txz.crossings, "<=",
           budget(txz, 6));
  rep.gate("rx.uring.crossings <= max(8, sqes / 8)", rx.crossings, "<=",
           budget(rx, 8));
}

/// TSO ablation leg: the same fully-acked TCP volume once with TSO
/// negotiated and once with it masked off (checksum insertion stays on in
/// both). The TSO leg must hand super-segment chains to the device
/// (tso_frames > 0) and consume >= 2x fewer TX descriptors per emitted
/// byte than the control — the descriptor amortization TSO exists for.
/// Runs over run_bandwidth (not the uring census) so emission completes:
/// the census app exits with queued bytes unemitted, which would leave the
/// descriptor sample dominated by handshake frames. A sub-sockbuf-slice
/// MSS makes the win visible: the control pays a header descriptor per
/// MSS, the TSO leg one per 8-MSS super-segment.
inline void run_offload_census(scen::ScenarioKind kind,
                               const scen::TestbedOptions& opt, Report& rep) {
  const std::uint64_t bytes = census_bytes();
  scen::TestbedOptions copt = counting(opt);
  copt.inline_tcp_output = true;  // staged emission, full batches
  copt.mss = 724;
  copt.offloads = updk::kOffloadAll;
  const auto tso =
      run_bandwidth(kind, scen::Direction::kMorelloSends, bytes, copt);
  copt.offloads = updk::kOffloadDefault;  // csum insertion stays, TSO off
  const auto ctl =
      run_bandwidth(kind, scen::Direction::kMorelloSends, bytes, copt);
  const auto& t = tso.morello_tx;
  const auto& c = ctl.morello_tx;
  rep.at("offload.tso")
      .set("tso_frames", t.tso_frames)
      .set("tso_bytes", t.tso_bytes)
      .set("descs", t.segs)
      .set("payload", t.bytes);
  rep.at("offload.tso_ctl").set("descs", c.segs).set("payload", c.bytes);
  const auto moved = [](const scen::BandwidthOutcome& o) {
    std::uint64_t b = 0;
    for (const auto& e : o.endpoints) b += e.bytes;
    return b;
  };
  const auto per_kib = [](const scen::BandwidthOutcome::TxBurstCensus& x) {
    return x.bytes > 0 ? static_cast<double>(x.segs) * 1024.0 /
                             static_cast<double>(x.bytes)
                       : 0.0;
  };
  std::printf("\nTSO ablation (%llu KiB acked TCP, mss=%u):\n",
              static_cast<unsigned long long>(bytes / 1024), copt.mss);
  std::printf("  tso on  [%s]: %6llu descs / %llu wire B  %6.2f descs/KiB  "
              "%llu tso frames (%llu B sliced)\n",
              updk::offload_names(updk::kOffloadAll).c_str(),
              static_cast<unsigned long long>(t.segs),
              static_cast<unsigned long long>(t.bytes), per_kib(t),
              static_cast<unsigned long long>(t.tso_frames),
              static_cast<unsigned long long>(t.tso_bytes));
  std::printf("  tso off [%s]: %6llu descs / %llu wire B  %6.2f descs/KiB\n",
              updk::offload_names(updk::kOffloadDefault).c_str(),
              static_cast<unsigned long long>(c.segs),
              static_cast<unsigned long long>(c.bytes), per_kib(c));
  rep.gate("offload.tso bytes moved >= census volume", moved(tso), ">=",
           bytes);
  rep.gate("offload.tso_ctl bytes moved >= census volume", moved(ctl), ">=",
           bytes);
  rep.gate("offload.tso.tso_frames > 0", t.tso_frames, ">", 0);
  rep.gate("offload.tso.tso_bytes > 0", t.tso_bytes, ">", 0);
  rep.gate("offload.tso_ctl tso frames == 0", c.tso_frames, "==", 0);
  rep.gate("tso_ctl descs/KiB / tso descs/KiB >= 2",
           per_kib(t) > 0 ? per_kib(c) / per_kib(t) : 0.0, ">=", 2.0);
}

/// Lossy-wire leg: the RX census volume through a wire that bit-flips a
/// fraction of the peer's data frames. Every corruption must die at the
/// Morello port's FCS check (rx_crc_errors == the wire's own corruption
/// census) or — had it slipped through — at the RX checksum verdict; the
/// socket stream itself must still deliver every byte via retransmission.
inline void run_lossy_wire_census(scen::ScenarioKind kind,
                                  const scen::TestbedOptions& opt,
                                  Report& rep) {
  const std::uint64_t bytes = census_bytes();
  scen::TestbedOptions lopt = counting(opt);
  lopt.impair.corrupt = 0.02;
  lopt.impair.seed = 7;
  const auto rx = run_census(kind, scen::CensusLeg::kRingZcRecv, bytes, lopt);
  rep.at("offload.lossy")
      .set("wire_corrupts", rx.wire_corrupts)
      .set("rx_crc_errors", rx.rx_crc_errors)
      .set("stack_csum_drops", rx.stack_csum_drops);
  std::printf("\nlossy wire (%llu KiB RX, corrupt=%.0f%%):\n",
              static_cast<unsigned long long>(bytes / 1024),
              lopt.impair.corrupt * 100.0);
  std::printf("  %llu wire corrupts  %llu FCS rejects  %llu verdict drops  "
              "%llu B delivered\n",
              static_cast<unsigned long long>(rx.wire_corrupts),
              static_cast<unsigned long long>(rx.rx_crc_errors),
              static_cast<unsigned long long>(rx.stack_csum_drops),
              static_cast<unsigned long long>(rx.bytes));
  rep.gate("lossy rx bytes delivered >= census volume", rx.bytes, ">=",
           bytes);
  rep.gate("offload.lossy.wire_corrupts > 0", rx.wire_corrupts, ">", 0);
  rep.gate("rx_crc_errors + stack_csum_drops == wire_corrupts",
           rx.rx_crc_errors + rx.stack_csum_drops, "==", rx.wire_corrupts);
}

/// The fig4/fig5 census legs, in order; every leg runs whatever an earlier
/// gate decided, so every artifact field was measured.
inline void run_crossing_census(scen::ScenarioKind kind,
                                const scen::TestbedOptions& opt,
                                Report& rep) {
  rep.set("census_bytes", census_bytes());
  const scen::Census tx_v2 = run_tx_census(kind, opt, rep);
  const scen::Census rx_v1 = run_rx_census(kind, opt, rep);
  run_uring_census(kind, opt, tx_v2, rx_v1, rep);
  run_offload_census(kind, opt, rep);
}

}  // namespace cherinet::bench
