// Hostile-wire census (ISSUE 8 tentpole): what the netem-style impairment
// stage and the classed QoS TX scheduler buy, measured in virtual time.
//
// Leg 1 — goodput-vs-loss curve: one bulk TCP flow across the 1 GbE testbed
// wire under uniform loss {0, 0.1%, 1%, 3%} plus a Gilbert-Elliott burst
// profile. Gates: goodput is monotonically non-increasing in the uniform
// loss rate, and 1% loss retains >= 50% of the lossless goodput (NewReno
// fast recovery must be doing the work — pure RTO stalls would crater it).
// The RTO clamps scale with the testbed (min_rto 5 ms against a ~30 us
// RTT), mirroring how production stacks tune RTO floors to their RTT class.
//
// Leg 2 — mixed-class latency: a rate-limited bulk flow (class 0) and a
// 64-byte echo flow (class 2) share one stack. Gates: the echo p99 under
// bulk load stays within 5x the unloaded p99, and BOTH classes make
// progress (DRR shares the burst window; the bucket paces bulk).
//
// Leg 3 — corruption: bit-flips on the wire must die at the MAC's FCS
// check (rx_crc_errors > 0), never reach the app (zero corrupt bytes
// delivered), and TCP must still complete the stream.
//
// Leg 4 — determinism: the same impairment seed over the same workload
// must replay the identical per-cause drop/dup/reorder/corrupt/jitter
// census (the property that makes hostile-wire bugs reproducible).
//
// Results persist as $CHERINET_BENCH_JSON_DIR/BENCH_impairment.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fstack/api.hpp"
#include "fstack/qos.hpp"
#include "nic/impairment.hpp"
#include "scenarios/two_stacks.hpp"

using namespace cherinet;
using namespace cherinet::bench;

namespace {

/// Lossy transfers recover through long RTO backoffs: a wider step cap than
/// the twin-stack rig's default.
constexpr int kPumpIters = 4'000'000;

/// Timer clamps scaled to the testbed's ~30 us RTT (the defaults' 200 ms
/// RTO floor is three decades above the RTT and would turn every tail
/// loss into a goodput cliff no deployment at this RTT class would see).
/// The delayed-ACK timeout scales WITH the floor and stays below it — a
/// min_rto under the delack timer makes every stretch-ACK wait a spurious
/// RTO, which is a misconfiguration, not a wire property.
fstack::TcpConfig scaled_rto_config() {
  fstack::TcpConfig tcp;
  tcp.delack_timeout = sim::Ns{2'000'000};  // 2 ms
  tcp.min_rto = sim::Ns{10'000'000};        // 10 ms (5x delack, as default)
  tcp.initial_rto = sim::Ns{40'000'000};    // 40 ms until the first sample
  // Socket buffers sized to the network (~20x the 3.5 KB BDP, still wire-
  // saturating): the default 256 KB lets cwnd hold ~177 segments in flight,
  // more than max_ooo_segments can reassemble past a hole — every loss
  // would degenerate into a go-back-N drain of data the wire delivered.
  tcp.sndbuf_bytes = 64 * 1024;
  tcp.rcvbuf_bytes = 64 * 1024;
  return tcp;
}

std::uint8_t stamp(std::uint64_t pos) {
  return static_cast<std::uint8_t>((pos * 131) >> 3);
}

struct Xfer {
  bool ok = false;
  std::uint64_t received = 0;
  std::uint64_t corrupt_bytes = 0;
  double virt_secs = 0.0;
  double goodput_mbps = 0.0;
};

/// Pattern-stamped bulk transfer A->B over a fresh connection; every
/// delivered byte is checked against its position stamp, so corruption
/// that leaks past the MAC is counted, not silently absorbed.
Xfer run_transfer(scen::TwoStacks& rig, std::uint64_t total,
                  std::uint16_t port) {
  fstack::FfStack& a = rig.a();
  fstack::FfStack& b = rig.b();
  Xfer res;
  const int lfd = ff_socket(b, fstack::kAfInet, fstack::kSockStream, 0);
  if (ff_bind(b, lfd, {fstack::Ipv4Addr{}, port}) != 0) return res;
  if (ff_listen(b, lfd, 4) != 0) return res;
  const int afd = ff_socket(a, fstack::kAfInet, fstack::kSockStream, 0);
  ff_connect(a, afd, {rig.ip_b(), port});
  int bfd = -1;
  rig.pump_until([&] {
    bfd = ff_accept(b, lfd, nullptr);
    return bfd >= 0;
  }, kPumpIters);
  if (bfd < 0) return res;

  machine::CapView src = rig.heap_a().alloc_view(4096);
  machine::CapView dst = rig.heap_b().alloc_view(4096);
  std::uint64_t sent = 0;
  const sim::Ns t0 = rig.clock().now();
  const bool done = rig.pump_until([&] {
    while (sent < total) {
      const auto n = std::min<std::uint64_t>(4096, total - sent);
      for (std::uint64_t i = 0; i < n; ++i) {
        src.store<std::uint8_t>(i, stamp(sent + i));
      }
      const auto w = ff_write(a, afd, src, n);
      if (w <= 0) break;
      sent += static_cast<std::uint64_t>(w);
    }
    while (true) {
      const auto r = ff_read(b, bfd, dst, 4096);
      if (r <= 0) break;
      for (std::int64_t i = 0; i < r; ++i) {
        if (dst.load<std::uint8_t>(static_cast<std::uint64_t>(i)) !=
            stamp(res.received + static_cast<std::uint64_t>(i))) {
          res.corrupt_bytes++;
        }
      }
      res.received += static_cast<std::uint64_t>(r);
    }
    return res.received == total;
  }, kPumpIters);
  res.virt_secs =
      static_cast<double>((rig.clock().now() - t0).count()) * 1e-9;
  res.goodput_mbps = res.virt_secs > 0
                         ? static_cast<double>(res.received) * 8.0 /
                               res.virt_secs / 1e6
                         : 0.0;
  res.ok = done && res.corrupt_bytes == 0;
  return res;
}

// ---------------------------------------------------------------------------
// Leg 1: goodput vs loss
// ---------------------------------------------------------------------------

struct CurveRow {
  std::string label;
  double uniform_loss = -1.0;  // < 0: not part of the monotonicity gate
  nic::ImpairmentProfile profile;
  Xfer xfer;
  fstack::FfStack::TcpRecoveryStats rec;
  std::uint64_t wire_drops = 0;
};

std::vector<CurveRow> run_goodput_curve(std::uint64_t volume) {
  std::vector<CurveRow> rows;
  rows.push_back({"clean", 0.0, nic::ImpairmentProfile{}, {}, {}, 0});
  rows.push_back({"0.1% uniform", 0.001,
                  nic::ImpairmentProfile::uniform_loss(0.001, 101), {}, {}, 0});
  rows.push_back({"1% uniform", 0.01,
                  nic::ImpairmentProfile::uniform_loss(0.01, 102), {}, {}, 0});
  rows.push_back({"3% uniform", 0.03,
                  nic::ImpairmentProfile::uniform_loss(0.03, 103), {}, {}, 0});
  rows.push_back({"GE bursts", -1.0,
                  nic::ImpairmentProfile::gilbert_elliott(0.01, 0.33, 104),
                  {}, {}, 0});
  for (CurveRow& row : rows) {
    scen::TwoStacks rig(sim::Testbed::unconstrained(), scaled_rto_config());
    rig.wire().set_impairment(0, row.profile);  // data direction only
    row.xfer = run_transfer(rig, volume, 5500);
    row.rec = rig.a().tcp_recovery_stats();
    row.wire_drops = rig.wire().stats(0).dropped;
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Leg 2: mixed-class p99 latency
// ---------------------------------------------------------------------------

struct QosLeg {
  bool ok = false;
  double p99_unloaded_us = 0.0;
  double p99_loaded_us = 0.0;
  double bulk_goodput_mbps = 0.0;
  std::uint64_t sent_class0 = 0;
  std::uint64_t sent_class2 = 0;
  std::uint64_t throttled_class0 = 0;
  std::uint64_t drr_rounds = 0;
};

double p99_us(std::vector<double>& us) {
  std::sort(us.begin(), us.end());
  const std::size_t idx =
      us.empty() ? 0 : (us.size() * 99 + 99) / 100 - 1;
  return us.empty() ? 0.0 : us[std::min(idx, us.size() - 1)];
}

QosLeg run_mixed_class(std::size_t probes) {
  scen::TwoStacks rig;
  fstack::FfStack& a = rig.a();
  fstack::FfStack& b = rig.b();
  QosLeg leg;

  // Echo service on class 2: the listener is classed BEFORE any accept, so
  // children inherit; A classes its probe socket explicitly.
  const int elfd = ff_socket(b, fstack::kAfInet, fstack::kSockStream, 0);
  ff_bind(b, elfd, {fstack::Ipv4Addr{}, 5600});
  ff_listen(b, elfd, 4);
  if (ff_set_class(b, elfd, 2) != 0) return leg;
  const int efd = ff_socket(a, fstack::kAfInet, fstack::kSockStream, 0);
  ff_connect(a, efd, {rig.ip_b(), 5600});
  int ebfd = -1;
  rig.pump_until([&] {
    ebfd = ff_accept(b, elfd, nullptr);
    return ebfd >= 0;
  }, kPumpIters);
  if (ebfd < 0 || ff_set_class(a, efd, 2) != 0) return leg;

  // Bulk flow on the default class 0, token-bucketed to ~600 Mbit/s with a
  // shallow bucket: pacing keeps the staged-burst backlog ahead of a probe
  // to a frame or two instead of a full 32-chain tx_burst.
  const int blfd = ff_socket(b, fstack::kAfInet, fstack::kSockStream, 0);
  ff_bind(b, blfd, {fstack::Ipv4Addr{}, 5601});
  ff_listen(b, blfd, 4);
  const int bfd_a = ff_socket(a, fstack::kAfInet, fstack::kSockStream, 0);
  ff_connect(a, bfd_a, {rig.ip_b(), 5601});
  int bbfd = -1;
  rig.pump_until([&] {
    bbfd = ff_accept(b, blfd, nullptr);
    return bbfd >= 0;
  }, kPumpIters);
  if (bbfd < 0) return leg;
  fstack::QosConfig qcfg;
  qcfg.cls[0].rate_bytes_per_sec = 75'000'000;  // 600 Mbit/s
  qcfg.cls[0].burst_bytes = 4096;
  a.set_qos_config(qcfg);

  machine::CapView probe_tx = rig.heap_a().alloc_view(64);
  machine::CapView probe_rx = rig.heap_a().alloc_view(64);
  machine::CapView echo_buf = rig.heap_b().alloc_view(64);
  machine::CapView bulk_tx = rig.heap_a().alloc_view(4096);
  machine::CapView bulk_rx = rig.heap_b().alloc_view(4096);
  std::uint64_t bulk_received = 0;
  bool bulk_on = false;

  // One echo round trip in virtual time; the pump also services the echo
  // peer and (when enabled) keeps the bulk flow saturated. Every stage
  // retries on -EAGAIN (a momentarily staged class queue backpressures).
  const auto probe_rtt_us = [&]() -> double {
    const sim::Ns t0 = rig.clock().now();
    int st = 0;  // 0 probe-write, 1 echo-read, 2 echo-write, 3 reply-read
    const bool done = rig.pump_until([&] {
      if (bulk_on) {
        while (ff_write(a, bfd_a, bulk_tx, 4096) > 0) {
        }
        while (true) {
          const auto r = ff_read(b, bbfd, bulk_rx, 4096);
          if (r <= 0) break;
          bulk_received += static_cast<std::uint64_t>(r);
        }
      }
      if (st == 0 && ff_write(a, efd, probe_tx, 64) == 64) st = 1;
      if (st == 1 && ff_read(b, ebfd, echo_buf, 64) == 64) st = 2;
      if (st == 2 && ff_write(b, ebfd, echo_buf, 64) == 64) st = 3;
      if (st == 3 && ff_read(a, efd, probe_rx, 64) == 64) st = 4;
      return st == 4;
    }, kPumpIters);
    return done ? static_cast<double>((rig.clock().now() - t0).count()) / 1e3
                : -1.0;
  };

  std::vector<double> unloaded, loaded;
  for (std::size_t i = 0; i < probes; ++i) {
    const double rtt = probe_rtt_us();
    if (rtt < 0) return leg;
    unloaded.push_back(rtt);
  }
  bulk_on = true;
  const sim::Ns bulk_t0 = rig.clock().now();
  for (std::size_t i = 0; i < probes; ++i) {
    const double rtt = probe_rtt_us();
    if (rtt < 0) return leg;
    loaded.push_back(rtt);
  }
  const double bulk_secs =
      static_cast<double>((rig.clock().now() - bulk_t0).count()) * 1e-9;

  leg.p99_unloaded_us = p99_us(unloaded);
  leg.p99_loaded_us = p99_us(loaded);
  leg.bulk_goodput_mbps =
      bulk_secs > 0
          ? static_cast<double>(bulk_received) * 8.0 / bulk_secs / 1e6
          : 0.0;
  const auto& qs = a.qos().stats();
  leg.sent_class0 = qs.sent[0];
  leg.sent_class2 = qs.sent[2];
  leg.throttled_class0 = qs.throttled[0];
  leg.drr_rounds = qs.drr_rounds;
  leg.ok = true;
  return leg;
}

// ---------------------------------------------------------------------------
// Legs 3+4: corruption containment, seed determinism
// ---------------------------------------------------------------------------

struct CorruptionLeg {
  Xfer xfer;
  std::uint64_t wire_corrupts = 0;
  std::uint64_t rx_crc_errors = 0;
};

CorruptionLeg run_corruption(std::uint64_t volume) {
  scen::TwoStacks rig(sim::Testbed::unconstrained(), scaled_rto_config());
  nic::ImpairmentProfile prof;
  prof.corrupt = 0.02;
  prof.seed = 301;
  rig.wire().set_impairment(0, prof);
  CorruptionLeg leg;
  leg.xfer = run_transfer(rig, volume, 5700);
  leg.wire_corrupts = rig.wire().stats(0).impair_corrupts;
  leg.rx_crc_errors = rig.card_b().port(0).stats().rx_crc_errors;
  return leg;
}

struct CauseCensus {
  std::uint64_t loss, burst_loss, dups, reorders, corrupts, jittered;
  bool operator==(const CauseCensus&) const = default;
};

CauseCensus run_seeded_census(std::uint64_t volume) {
  scen::TwoStacks rig(sim::Testbed::unconstrained(), scaled_rto_config());
  nic::ImpairmentProfile prof;
  prof.seed = 77;
  prof.loss = 0.005;
  prof.duplicate = 0.005;
  prof.reorder = 0.01;
  prof.corrupt = 0.002;
  prof.jitter = sim::Ns{200'000};
  rig.wire().set_impairment(0, prof);
  (void)run_transfer(rig, volume, 5800);
  const nic::Wire::Stats s = rig.wire().stats(0);
  return {s.impair_loss, s.impair_burst_loss, s.impair_dups,
          s.impair_reorders, s.impair_corrupts, s.impair_jittered};
}

}  // namespace

int main() {
  print_header("Hostile wire: goodput under impairment + classed QoS p99",
               "ISSUE 8 (netem-style impairment stage; DRR + token-bucket "
               "TX classes)");
  Report rep("impairment");

  // ---- Leg 1: goodput vs loss --------------------------------------------
  const std::uint64_t volume =
      env_u64("CHERINET_IMP_KB", 4096) * 1024;
  std::printf("\ngoodput vs loss (%llu KiB per row, 1 GbE wire, data "
              "direction impaired):\n",
              static_cast<unsigned long long>(volume / 1024));
  const std::vector<CurveRow> curve = run_goodput_curve(volume);
  rep.set("volume_bytes", volume);
  for (const CurveRow& r : curve) {
    std::printf("  %-12s %8.1f Mbit/s  (%llu rexmits: %llu fast + %llu rto, "
                "%llu wire drops)%s\n",
                r.label.c_str(), r.xfer.goodput_mbps,
                static_cast<unsigned long long>(r.rec.rexmits),
                static_cast<unsigned long long>(r.rec.fast_rexmits),
                static_cast<unsigned long long>(r.rec.rto_expirations),
                static_cast<unsigned long long>(r.wire_drops),
                r.xfer.ok ? "" : "  [INCOMPLETE]");
    rep.row("goodput_curve")
        .set("label", r.label)
        .set("uniform_loss", r.uniform_loss)
        .set("goodput_mbps", r.xfer.goodput_mbps)
        .set("virt_secs", r.xfer.virt_secs)
        .set("rexmits", r.rec.rexmits)
        .set("fast_rexmits", r.rec.fast_rexmits)
        .set("rto_expirations", r.rec.rto_expirations)
        .set("wire_drops", r.wire_drops);
    rep.gate(r.label + " stream completed intact", r.xfer.ok, "==", true);
  }
  // Monotone in the uniform rows (tiny slack for recovery-path noise).
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].uniform_loss < 0 || curve[i - 1].uniform_loss < 0) continue;
    rep.gate(curve[i].label + " goodput <= 1.02 x " + curve[i - 1].label,
             curve[i].xfer.goodput_mbps, "<=",
             curve[i - 1].xfer.goodput_mbps * 1.02);
  }
  const double retained_at_1pct =
      curve[0].xfer.goodput_mbps > 0
          ? curve[2].xfer.goodput_mbps / curve[0].xfer.goodput_mbps
          : 0.0;
  std::printf("  1%% loss retains %.0f%% of lossless goodput "
              "(budget >= 50%%)\n",
              retained_at_1pct * 100.0);
  rep.set("retained_at_1pct", retained_at_1pct);
  rep.gate("retained_at_1pct >= 0.5", retained_at_1pct, ">=", 0.5);

  // ---- Leg 2: mixed-class p99 --------------------------------------------
  const auto probes =
      static_cast<std::size_t>(env_u64("CHERINET_IMP_PROBES", 200));
  std::printf("\nmixed-class latency (%zu echo probes on class 2, "
              "token-bucketed bulk on class 0):\n", probes);
  const QosLeg qos = run_mixed_class(probes);
  std::printf("  echo p99: %.1f us unloaded -> %.1f us under bulk "
              "(%.1fx)\n  bulk: %.1f Mbit/s while probed "
              "(%llu class-0 sends, %llu throttles, %llu class-2 sends, "
              "%llu DRR rounds)\n",
              qos.p99_unloaded_us, qos.p99_loaded_us,
              qos.p99_unloaded_us > 0 ? qos.p99_loaded_us / qos.p99_unloaded_us
                                      : 0.0,
              qos.bulk_goodput_mbps,
              static_cast<unsigned long long>(qos.sent_class0),
              static_cast<unsigned long long>(qos.throttled_class0),
              static_cast<unsigned long long>(qos.sent_class2),
              static_cast<unsigned long long>(qos.drr_rounds));
  rep.at("qos")
      .set("p99_unloaded_us", qos.p99_unloaded_us)
      .set("p99_loaded_us", qos.p99_loaded_us)
      .set("bulk_goodput_mbps", qos.bulk_goodput_mbps)
      .set("sent_class0", qos.sent_class0)
      .set("sent_class2", qos.sent_class2)
      .set("throttled_class0", qos.throttled_class0)
      .set("drr_rounds", qos.drr_rounds);
  rep.gate("mixed-class leg ran to completion", qos.ok, "==", true);
  rep.gate("qos.p99_loaded_us <= 5 x qos.p99_unloaded_us", qos.p99_loaded_us,
           "<=", 5.0 * qos.p99_unloaded_us);
  rep.gate("qos.sent_class0 > 0", qos.sent_class0, ">", 0);
  rep.gate("qos.sent_class2 > 0", qos.sent_class2, ">", 0);
  rep.gate("qos.bulk_goodput_mbps >= 100", qos.bulk_goodput_mbps, ">=",
           100.0);

  // ---- Leg 3: corruption dies at the MAC ---------------------------------
  const std::uint64_t corr_volume =
      std::min<std::uint64_t>(volume, 512 * 1024);
  const CorruptionLeg corr = run_corruption(corr_volume);
  std::printf("\ncorruption containment (2%% bit-flip rate, %llu KiB):\n"
              "  %llu frames corrupted on the wire, %llu FCS rejects at the "
              "MAC, %llu corrupt bytes delivered\n",
              static_cast<unsigned long long>(corr_volume / 1024),
              static_cast<unsigned long long>(corr.wire_corrupts),
              static_cast<unsigned long long>(corr.rx_crc_errors),
              static_cast<unsigned long long>(corr.xfer.corrupt_bytes));
  rep.at("corruption")
      .set("wire_corrupts", corr.wire_corrupts)
      .set("rx_crc_errors", corr.rx_crc_errors)
      .set("corrupt_bytes_delivered", corr.xfer.corrupt_bytes)
      .set("completed", corr.xfer.ok);
  rep.gate("corruption.completed", corr.xfer.ok, "==", true);
  rep.gate("corruption.rx_crc_errors > 0", corr.rx_crc_errors, ">", 0);
  rep.gate("corruption.corrupt_bytes_delivered == 0", corr.xfer.corrupt_bytes,
           "==", 0);

  // ---- Leg 4: seed determinism -------------------------------------------
  const std::uint64_t seed_volume =
      std::min<std::uint64_t>(volume, 256 * 1024);
  const CauseCensus census_a = run_seeded_census(seed_volume);
  const CauseCensus census_b = run_seeded_census(seed_volume);
  const bool seed_identical = census_a == census_b;
  std::printf("\nseed determinism (mixed profile, seed 77, two fresh runs):\n"
              "  loss %llu/%llu  dups %llu/%llu  reorders %llu/%llu  "
              "corrupts %llu/%llu  jittered %llu/%llu  -> %s\n",
              static_cast<unsigned long long>(census_a.loss),
              static_cast<unsigned long long>(census_b.loss),
              static_cast<unsigned long long>(census_a.dups),
              static_cast<unsigned long long>(census_b.dups),
              static_cast<unsigned long long>(census_a.reorders),
              static_cast<unsigned long long>(census_b.reorders),
              static_cast<unsigned long long>(census_a.corrupts),
              static_cast<unsigned long long>(census_b.corrupts),
              static_cast<unsigned long long>(census_a.jittered),
              static_cast<unsigned long long>(census_b.jittered),
              seed_identical ? "identical" : "DIVERGED");
  rep.set("seed_replay_identical", seed_identical);
  rep.gate("seed_replay_identical", seed_identical, "==", true);
  return rep.finish();
}
