// The hostile wire (ISSUE 8): netem-style impairment stage between
// serialization and delivery. Wire-level tests pin the mechanics (drop,
// duplicate, hold-back reorder, bit-flip corruption, jitter, arrival-sorted
// delivery, seed determinism); stack-level tests prove TCP survives each
// hostility and that corrupted frames die at the MAC's FCS check — never
// reaching an application — while the recovery counters explain the damage.
#include <gtest/gtest.h>

#include <cstring>

#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "nic/impairment.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::nic::ImpairmentEngine;
using cherinet::nic::ImpairmentProfile;
using cherinet::test::TwoStacks;

namespace {

/// A bare wire (no stacks, no cards): frames go in one end, impaired frames
/// come out the other, all on a manually-advanced clock.
struct BareWire {
  sim::VirtualClock clock;
  nic::Wire wire{&clock, nullptr, sim::Testbed::unconstrained()};

  nic::Frame frame(std::size_t n, std::byte fill = std::byte{0x5A}) {
    nic::Frame f;
    f.data.assign(n, fill);
    return f;
  }

  /// Advance far enough that everything in flight (including held reorder
  /// frames and jittered arrivals) is deliverable, then poll side 1.
  std::vector<nic::Frame> drain(std::int64_t horizon_ns = 1'000'000'000) {
    clock.advance_to(clock.now() + sim::Ns{horizon_ns});
    return wire.poll(1);
  }
};

struct Conn {
  int afd = -1;
  int bfd = -1;
  int lfd = -1;
};

Conn establish(TwoStacks& ts, std::uint16_t port) {
  Conn c;
  c.lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_bind(ts.b(), c.lfd, {Ipv4Addr{}, port}), 0);
  EXPECT_EQ(ff_listen(ts.b(), c.lfd, 4), 0);
  c.afd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_connect(ts.a(), c.afd, {ts.ip_b(), port}), -EINPROGRESS);
  ts.pump_until([&] {
    c.bfd = ff_accept(ts.b(), c.lfd, nullptr);
    return c.bfd >= 0;
  });
  EXPECT_GE(c.bfd, 0);
  return c;
}

/// Pattern-stamped bulk transfer A->B; returns {received, corrupt_bytes}.
std::pair<std::uint64_t, std::uint64_t> transfer(TwoStacks& ts, const Conn& c,
                                                 std::uint64_t total,
                                                 int max_iters = 3'000'000) {
  auto src = ts.heap_a().alloc_view(4096);
  auto dst = ts.heap_b().alloc_view(4096);
  std::uint64_t sent = 0, received = 0, corrupt = 0;
  ts.pump_until(
      [&] {
        while (sent < total) {
          const std::size_t n = std::min<std::uint64_t>(4096, total - sent);
          for (std::size_t i = 0; i < n; ++i) {
            src.store<std::uint8_t>(
                i, static_cast<std::uint8_t>((sent + i) * 131 >> 3));
          }
          const auto w = ff_write(ts.a(), c.afd, src, n);
          if (w <= 0) break;
          sent += static_cast<std::uint64_t>(w);
        }
        while (true) {
          const auto r = ff_read(ts.b(), c.bfd, dst, 4096);
          if (r <= 0) break;
          for (std::size_t i = 0; i < static_cast<std::size_t>(r); ++i) {
            const auto expect =
                static_cast<std::uint8_t>((received + i) * 131 >> 3);
            if (dst.load<std::uint8_t>(i) != expect) ++corrupt;
          }
          received += static_cast<std::uint64_t>(r);
        }
        return received == total;
      },
      max_iters);
  return {received, corrupt};
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine-level: the PRNG decision stream is seed-deterministic.
// ---------------------------------------------------------------------------

TEST(ImpairmentEngine, SameSeedSameVerdictStream) {
  ImpairmentProfile prof;
  prof.seed = 42;
  prof.loss = 0.1;
  prof.duplicate = 0.05;
  prof.reorder = 0.05;
  prof.corrupt = 0.05;
  prof.jitter = sim::Ns{50'000};
  ImpairmentEngine x, y;
  x.configure(prof);
  y.configure(prof);
  for (int i = 0; i < 10'000; ++i) {
    const auto a = x.next_frame();
    const auto b = y.next_frame();
    ASSERT_EQ(a.drop, b.drop) << "frame " << i;
    ASSERT_EQ(a.duplicate, b.duplicate) << "frame " << i;
    ASSERT_EQ(a.reorder, b.reorder) << "frame " << i;
    ASSERT_EQ(a.corrupt, b.corrupt) << "frame " << i;
    ASSERT_EQ(a.corrupt_bit, b.corrupt_bit) << "frame " << i;
    ASSERT_EQ(a.extra_delay, b.extra_delay) << "frame " << i;
  }
  // A different seed diverges (not a constant stream).
  x.configure(ImpairmentProfile::uniform_loss(0.5, 42));
  y.configure(ImpairmentProfile::uniform_loss(0.5, 43));
  int diverged = 0;
  for (int i = 0; i < 1000; ++i) {
    if (x.next_frame().drop != y.next_frame().drop) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(ImpairmentEngine, UniformLossHitsNearProbability) {
  ImpairmentEngine e;
  e.configure(ImpairmentProfile::uniform_loss(0.1, 7));
  int drops = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (e.next_frame().drop) ++drops;
  }
  EXPECT_GT(drops, kN / 10 * 8 / 10);  // within ~20% of 10%
  EXPECT_LT(drops, kN / 10 * 12 / 10);
}

TEST(ImpairmentEngine, GilbertElliottDropsComeInBursts) {
  // p_enter 0.02, p_recover 0.25 => mean burst length 4 frames. Drops must
  // cluster: the number of distinct burst runs is far below the drop count.
  ImpairmentEngine e;
  e.configure(ImpairmentProfile::gilbert_elliott(0.02, 0.25, 9));
  int drops = 0, runs = 0;
  bool in_run = false;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    const bool d = e.next_frame().burst_drop;
    if (d) {
      ++drops;
      if (!in_run) ++runs;
    }
    in_run = d;
  }
  ASSERT_GT(drops, 0);
  ASSERT_GT(runs, 0);
  const double mean_run =
      static_cast<double>(drops) / static_cast<double>(runs);
  EXPECT_GT(mean_run, 2.0) << drops << " drops in " << runs << " runs";
  EXPECT_LT(mean_run, 8.0);
}

// ---------------------------------------------------------------------------
// Wire-level: the verdicts are applied faithfully.
// ---------------------------------------------------------------------------

TEST(ImpairmentWire, UniformLossDropsAndCounts) {
  BareWire w;
  w.wire.set_impairment(0, ImpairmentProfile::uniform_loss(1.0, 3));
  for (int i = 0; i < 8; ++i) w.wire.transmit(0, w.frame(100), w.clock.now());
  EXPECT_TRUE(w.drain().empty());
  const auto s = w.wire.stats(0);
  EXPECT_EQ(s.impair_loss, 8u);
  EXPECT_EQ(s.dropped, 8u);
  EXPECT_EQ(s.tx_frames, 8u);  // transmit attempts still count
}

TEST(ImpairmentWire, DuplicateDeliversTwiceAndCounts) {
  BareWire w;
  ImpairmentProfile prof;
  prof.duplicate = 1.0;
  w.wire.set_impairment(0, prof);
  w.wire.transmit(0, w.frame(64), w.clock.now());
  const auto got = w.drain();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].data, got[1].data);  // the copy is intact
  EXPECT_EQ(w.wire.stats(0).impair_dups, 1u);
}

TEST(ImpairmentWire, CorruptFlipsExactlyOneBit) {
  BareWire w;
  ImpairmentProfile prof;
  prof.corrupt = 1.0;
  w.wire.set_impairment(0, prof);
  const nic::Frame sent = w.frame(256);
  w.wire.transmit(0, sent, w.clock.now());
  const auto got = w.drain();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].data.size(), sent.data.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < sent.data.size(); ++i) {
    const auto x = std::to_integer<unsigned>(sent.data[i] ^ got[0].data[i]);
    flipped_bits += __builtin_popcount(x);
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(w.wire.stats(0).impair_corrupts, 1u);
}

TEST(ImpairmentWire, ReorderHoldsBehindOvertakers) {
  BareWire w;
  ImpairmentProfile prof;
  prof.reorder = 1.0;  // decide "reorder" for the FIRST frame...
  prof.reorder_hold = 2;
  prof.reorder_extra = sim::Ns{1'000};
  w.wire.set_impairment(0, prof);
  w.wire.transmit(0, w.frame(64, std::byte{0xAA}), w.clock.now());
  // ...then restore the clean wire so the overtakers pass undisturbed (the
  // held frame and its counters persist across reconfiguration).
  w.wire.set_impairment(0, ImpairmentProfile{});
  w.wire.transmit(0, w.frame(64, std::byte{0xBB}), w.clock.now());
  w.wire.transmit(0, w.frame(64, std::byte{0xCC}), w.clock.now());
  const auto got = w.drain();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].data[0], std::byte{0xBB});
  EXPECT_EQ(got[1].data[0], std::byte{0xCC});
  EXPECT_EQ(got[2].data[0], std::byte{0xAA});  // overtaken twice
  EXPECT_EQ(w.wire.stats(0).impair_reorders, 1u);
}

TEST(ImpairmentWire, HeldFrameIsNeverStrandedWithoutOvertakers) {
  BareWire w;
  ImpairmentProfile prof;
  prof.reorder = 1.0;
  prof.reorder_hold = 5;
  prof.reorder_extra = sim::Ns{10'000};
  w.wire.set_impairment(0, prof);
  w.wire.transmit(0, w.frame(64), w.clock.now());
  // No further traffic: the deadline (arrival + reorder_extra) must still
  // release it, and next_delivery must report that deadline to the driver.
  const auto nd = w.wire.next_delivery(1);
  ASSERT_TRUE(nd.has_value());
  w.clock.advance_to(*nd);
  EXPECT_EQ(w.wire.poll(1).size(), 1u);
}

TEST(ImpairmentWire, JitterDelaysButArrivalStaysSorted) {
  BareWire w;
  ImpairmentProfile prof;
  prof.jitter = sim::Ns{500'000};
  prof.seed = 11;
  w.wire.set_impairment(0, prof);
  for (int i = 0; i < 32; ++i) {
    w.wire.transmit(0, w.frame(64), w.clock.now());
  }
  EXPECT_GT(w.wire.stats(0).impair_jittered, 0u);
  // Polls at any instant only ever see arrivals <= now, in sorted order:
  // drain in small time steps and count everything out.
  std::size_t got = 0;
  for (int step = 0; step < 64; ++step) {
    w.clock.advance_to(w.clock.now() + sim::Ns{20'000});
    got += w.wire.poll(1).size();
  }
  w.clock.advance_to(w.clock.now() + sim::Ns{1'000'000});
  got += w.wire.poll(1).size();
  EXPECT_EQ(got, 32u);
}

TEST(ImpairmentWire, SameSeedSamePerCauseCounters) {
  // The seed-reproducibility acceptance gate at wire level: two identical
  // runs, identical per-cause counters.
  ImpairmentProfile prof;
  prof.seed = 1234;
  prof.loss = 0.2;
  prof.duplicate = 0.1;
  prof.reorder = 0.1;
  prof.corrupt = 0.1;
  prof.jitter = sim::Ns{10'000};
  nic::Wire::Stats runs[2];
  for (int r = 0; r < 2; ++r) {
    BareWire w;
    w.wire.set_impairment(0, prof);
    for (int i = 0; i < 2000; ++i) {
      w.wire.transmit(0, w.frame(64), w.clock.now());
    }
    (void)w.drain();
    runs[r] = w.wire.stats(0);
  }
  EXPECT_EQ(runs[0].impair_loss, runs[1].impair_loss);
  EXPECT_EQ(runs[0].impair_burst_loss, runs[1].impair_burst_loss);
  EXPECT_EQ(runs[0].impair_dups, runs[1].impair_dups);
  EXPECT_EQ(runs[0].impair_reorders, runs[1].impair_reorders);
  EXPECT_EQ(runs[0].impair_corrupts, runs[1].impair_corrupts);
  EXPECT_EQ(runs[0].impair_jittered, runs[1].impair_jittered);
  EXPECT_GT(runs[0].impair_loss, 0u);
  EXPECT_GT(runs[0].impair_dups, 0u);
}

// ---------------------------------------------------------------------------
// Stack-level: TCP survives the hostile wire; corruption dies at the MAC.
// ---------------------------------------------------------------------------

TEST(ImpairmentTcp, SurvivesDuplicationAndReordering) {
  TwoStacks ts;
  ImpairmentProfile prof;
  prof.seed = 5;
  prof.duplicate = 0.05;
  prof.reorder = 0.05;
  prof.reorder_hold = 3;
  prof.reorder_extra = sim::Ns{50'000};
  ts.wire().set_impairment(0, prof);
  const Conn c = establish(ts, 5201);
  constexpr std::uint64_t kTotal = 128 * 1024;
  const auto [received, corrupt] = transfer(ts, c, kTotal);
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(corrupt, 0u);
  const auto ws = ts.wire().stats(0);
  EXPECT_GT(ws.impair_dups + ws.impair_reorders, 0u);
}

TEST(ImpairmentTcp, SurvivesGilbertElliottBursts) {
  TwoStacks ts;
  // Mean outage ~3 frames entered ~1% of the time: multi-frame holes force
  // multi-segment recovery (SACK-less NewReno's worst case).
  ts.wire().set_impairment(
      0, ImpairmentProfile::gilbert_elliott(0.01, 0.33, 6));
  const Conn c = establish(ts, 5201);
  constexpr std::uint64_t kTotal = 128 * 1024;
  const auto [received, corrupt] = transfer(ts, c, kTotal);
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(corrupt, 0u);
  EXPECT_GT(ts.wire().stats(0).impair_burst_loss, 0u);
  // Recovery counters surface WHY: segments were retransmitted.
  const auto rec = ts.a().tcp_recovery_stats();
  EXPECT_GT(rec.rexmits, 0u);
}

TEST(ImpairmentTcp, CorruptionDiesAtTheMacNeverAtTheApp) {
  TwoStacks ts;
  ImpairmentProfile prof;
  prof.seed = 21;
  prof.corrupt = 0.03;  // ~3% of A->B frames take a random bit flip
  ts.wire().set_impairment(0, prof);
  const Conn c = establish(ts, 5201);
  constexpr std::uint64_t kTotal = 192 * 1024;
  const auto [received, corrupt] = transfer(ts, c, kTotal);
  // Every corrupted frame was caught by the 82576's FCS verification and
  // dropped BEFORE the stack; TCP retransmitted; the app saw intact bytes.
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(corrupt, 0u);
  const auto wire_corrupts = ts.wire().stats(0).impair_corrupts;
  ASSERT_GT(wire_corrupts, 0u);
  const auto mac = ts.card_b().port(0).stats();
  EXPECT_EQ(mac.rx_crc_errors, wire_corrupts);
  // Per-queue attribution: the single-queue setup steers every classifiable
  // reject to queue 0.
  EXPECT_GT(ts.card_b().port(0).queue_stats(0).rx_crc_errors, 0u);
}

TEST(ImpairmentTcp, RecoveryCountersSurfaceAcrossReap) {
  TwoStacks ts;
  ts.wire().set_impairment(0, ImpairmentProfile::uniform_loss(0.03, 17));
  const Conn c = establish(ts, 5201);
  constexpr std::uint64_t kTotal = 128 * 1024;
  const auto [received, corrupt] = transfer(ts, c, kTotal);
  ASSERT_EQ(received, kTotal);
  ASSERT_EQ(corrupt, 0u);
  const auto live = ts.a().tcp_recovery_stats();
  EXPECT_GT(live.rexmits, 0u);
  // Tear the connection down and reap: history must survive in the
  // accumulator (tcp_recovery_stats is a lifetime aggregate, not a live-PCB
  // snapshot).
  ff_close(ts.a(), c.afd);
  auto dst = ts.heap_b().alloc_view(64);
  ts.pump_until([&] { return ff_read(ts.b(), c.bfd, dst, 64) == 0; });
  ff_close(ts.b(), c.bfd);
  ts.pump_until([&] { return ts.a().tcp_pcb_count() == 0; }, 2'000'000);
  const auto reaped = ts.a().tcp_recovery_stats();
  EXPECT_GE(reaped.rexmits, live.rexmits);
  EXPECT_GE(reaped.rto_expirations, live.rto_expirations);
  EXPECT_GE(reaped.spurious_rexmit_bytes, live.spurious_rexmit_bytes);
}
