// Deeper protocol behaviours: zero-window persist probing, delayed-ACK
// timing, TIME_WAIT reaping, idle quiescence, loss recovery (SACK, RACK,
// the tail-loss probe, recovery after an RTO), representable-alignment
// properties, and regression checks for the allocator/compression
// interplay that keeps compartments disjoint.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <vector>

#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "machine/heap.hpp"
#include "nic/impairment.hpp"

namespace cherinet::fstack {
/// The test window into a PCB's recovery state (TcpPcb befriends it).
class StackTcpAccess {
 public:
  static const SackScoreboard& board(const TcpPcb& p) { return p.sb_; }
  static std::uint8_t snd_wscale(const TcpPcb& p) { return p.snd_wscale_; }
  /// Both ends forget SACK-permitted: the connection recovers as one with
  /// a peer that never offered it.
  static void drop_sack(TcpPcb& a, TcpPcb& b) {
    a.sack_on_ = false;
    b.sack_on_ = false;
  }
  /// Out-of-order data the receiver holds that reaches rcv_nxt: the next
  /// in-order bytes, held back because the receive buffer is full.
  static bool holds_back(const TcpPcb& p) {
    for (const auto& [seq, bytes] : p.ooo_) {
      if (seq_le(seq, p.rcv_nxt_)) return true;
    }
    return false;
  }
  /// The SACK blocks the receiver's next pure ACK would carry.
  static TcpOptions sack_blocks(const TcpPcb& p) {
    TcpOptions o;
    p.sack_blocks(o, 0);
    return o;
  }
  static std::uint32_t rcv_nxt(const TcpPcb& p) { return p.rcv_nxt_; }
  /// Move the idle stream tx -> rx `delta` bytes along the sequence space,
  /// on both ends at once (nothing may be in flight either way).
  static void shift_stream(TcpPcb& tx, TcpPcb& rx, std::uint32_t delta) {
    tx.iss_ += delta;
    tx.snd_una_ += delta;
    tx.snd_nxt_ += delta;
    tx.snd_wl2_ += delta;
    tx.rack_fack_ += delta;
    tx.recover_ += delta;
    tx.rtt_seq_ += delta;
    rx.irs_ += delta;
    rx.rcv_nxt_ += delta;
    rx.snd_wl1_ += delta;
  }
};
}  // namespace cherinet::fstack

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::TwoStacks;

namespace {
struct Conn {
  int afd = -1;
  int bfd = -1;
  int lfd = -1;
};
Conn establish(TwoStacks& ts, std::uint16_t port) {
  Conn c;
  c.lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), c.lfd, {Ipv4Addr{}, port});
  ff_listen(ts.b(), c.lfd, 4);
  c.afd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_connect(ts.a(), c.afd, {ts.ip_b(), port});
  ts.pump_until([&] {
    c.bfd = ff_accept(ts.b(), c.lfd, nullptr);
    return c.bfd >= 0;
  });
  return c;
}
const TcpPcb* sender_pcb(TwoStacks& ts) {
  for (std::uint16_t p = 49152; p < 49170; ++p) {
    if (const auto* pcb =
            ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201})) {
      return pcb;
    }
  }
  return nullptr;
}
/// B's end of the connection whose A end is `a`.
const TcpPcb* peer_pcb(TwoStacks& ts, const TcpPcb& a) {
  return ts.b().find_pcb({ts.ip_b(), 5201, ts.ip_a(), a.tuple().local_port});
}
/// One pump step of a one-way bulk stream: the sender writes what its send
/// buffer takes (up to `total`), the receiver reads everything it holds.
/// True once `total` bytes arrived.
struct Bulk {
  FfStack& tx;
  int txfd;
  machine::CapView src;
  FfStack& rx;
  int rxfd;
  machine::CapView dst;
  std::uint64_t total;
  std::uint64_t sent = 0, received = 0;

  bool step() {
    while (sent < total) {
      const auto w = ff_write(tx, txfd, src,
                              std::min<std::uint64_t>(4096, total - sent));
      if (w <= 0) break;
      sent += static_cast<std::uint64_t>(w);
    }
    while (true) {
      const auto r = ff_read(rx, rxfd, dst, 4096);
      if (r <= 0) break;
      received += static_cast<std::uint64_t>(r);
    }
    return received == total;
  }
};
Bulk a_to_b(TwoStacks& ts, const Conn& c, std::uint64_t total) {
  return {ts.a(), c.afd, ts.heap_a().alloc_view(4096),
          ts.b(), c.bfd, ts.heap_b().alloc_view(4096), total};
}
Bulk b_to_a(TwoStacks& ts, const Conn& c, std::uint64_t total) {
  return {ts.b(), c.bfd, ts.heap_b().alloc_view(4096),
          ts.a(), c.afd, ts.heap_a().alloc_view(4096), total};
}
/// A one-way stream whose every byte is stamped with its position and
/// checked on arrival: `corrupt` counts bytes that did not arrive as sent.
struct StampedBulk {
  Bulk bulk;
  std::uint64_t corrupt = 0;
  bool reading = true;  // false: the receiving application stops reading

  static std::uint8_t stamp(std::uint64_t pos) {
    return static_cast<std::uint8_t>((pos * 131) >> 3);
  }
  bool step() {
    Bulk& b = bulk;
    while (b.sent < b.total) {
      const auto n = std::min<std::uint64_t>(4096, b.total - b.sent);
      for (std::uint64_t i = 0; i < n; ++i) {
        b.src.store<std::uint8_t>(i, stamp(b.sent + i));
      }
      const auto w = ff_write(b.tx, b.txfd, b.src, n);
      if (w <= 0) break;
      b.sent += static_cast<std::uint64_t>(w);
    }
    while (reading) {
      const auto r = ff_read(b.rx, b.rxfd, b.dst, 4096);
      if (r <= 0) break;
      for (std::int64_t i = 0; i < r; ++i) {
        const auto k = static_cast<std::uint64_t>(i);
        if (b.dst.load<std::uint8_t>(k) != stamp(b.received + k)) ++corrupt;
      }
      b.received += static_cast<std::uint64_t>(r);
    }
    return b.received == b.total;
  }
  /// Arrived whole and intact.
  [[nodiscard]] bool intact() const {
    return bulk.received == bulk.total && corrupt == 0;
  }
};
}  // namespace

TEST(TcpPersist, ZeroWindowProbeReopensFlow) {
  TcpConfig tcp;
  tcp.rcvbuf_bytes = 8 * 1024;  // collapses quickly
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const Conn c = establish(ts, 5201);
  auto src = ts.heap_a().alloc_view(4096);
  // Fill the receiver's window completely; B does not read.
  std::uint64_t sent = 0;
  ts.pump_until(
      [&] {
        const auto w = ff_write(ts.a(), c.afd, src, 4096);
        if (w > 0) sent += static_cast<std::uint64_t>(w);
        return false;
      },
      20000);
  const auto* pcb = sender_pcb(ts);
  ASSERT_NE(pcb, nullptr);
  // The sender must be window-limited now, with more data buffered.
  const auto snap = pcb->debug_snapshot();
  EXPECT_GT(snap.snd_used, snap.snd_nxt - snap.snd_una);

  // Let B drain slowly; the persist/window-update machinery must push ALL
  // remaining bytes through eventually.
  auto dst = ts.heap_b().alloc_view(4096);
  std::uint64_t received = 0;
  const bool done = ts.pump_until(
      [&] {
        const auto r = ff_read(ts.b(), c.bfd, dst, 512);
        if (r > 0) received += static_cast<std::uint64_t>(r);
        // Keep topping the sender up so the stream keeps pressure.
        return received >= sent && pcb->debug_snapshot().snd_used == 0;
      },
      3'000'000);
  EXPECT_TRUE(done) << "received " << received << " of " << sent;
}

TEST(TcpDelack, SingleSegmentIsAckedWithinDelackTimeout) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  auto src = ts.heap_a().alloc_view(2048);
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, src, 100) == 100; });
  const auto* pcb = sender_pcb(ts);
  ASSERT_NE(pcb, nullptr);
  const sim::Ns t0 = ts.clock().now();
  // A single small segment triggers the delayed-ACK path; the ACK must
  // arrive within the 40 ms delack timeout (plus transit).
  ts.pump_until([&] {
    const auto s = pcb->debug_snapshot();
    return s.snd_una == s.snd_nxt;
  });
  const sim::Ns elapsed = ts.clock().now() - t0;
  EXPECT_LE(elapsed.count(), 45'000'000) << "ACK later than delack timeout";
  EXPECT_GE(elapsed.count(), 0);
}

TEST(TcpTimeWait, PcbIsReapedAfterTimeWait) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  auto buf = ts.heap_a().alloc_view(64);
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, buf, 8) == 8; });
  auto dst = ts.heap_b().alloc_view(64);
  ts.pump_until([&] { return ff_read(ts.b(), c.bfd, dst, 64) == 8; });
  ff_close(ts.a(), c.afd);
  ts.pump_until([&] { return ff_read(ts.b(), c.bfd, dst, 64) == 0; });
  ff_close(ts.b(), c.bfd);
  // Active closer passes through TIME_WAIT; once 2*MSL elapses both
  // directions are reaped and the tuple is reusable.
  const bool reaped = ts.pump_until(
      [&] { return sender_pcb(ts) == nullptr; }, 2'000'000);
  EXPECT_TRUE(reaped);
  // The (still-open) listener accepts a fresh connection afterwards.
  const int afd2 = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_connect(ts.a(), afd2, {ts.ip_b(), 5201});
  int bfd2 = -1;
  ts.pump_until([&] {
    bfd2 = ff_accept(ts.b(), c.lfd, nullptr);
    return bfd2 >= 0;
  });
  EXPECT_GE(bfd2, 0);
}

// An idle established connection is quiescent: once the last delayed or
// coalesced ACK has left, neither side keeps a protocol timer on the wheel,
// so hours of virtual idleness put no frame on the wire and the connection
// is still usable afterwards.
TEST(TcpTimers, IdleEstablishedPairArmsNoTimer) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  const TcpPcb* pb = ts.b().find_pcb(
      {ts.ip_b(), 5201, ts.ip_a(), pa->tuple().local_port});
  ASSERT_NE(pb, nullptr);

  const std::size_t n = 6 * 1024;
  auto src = ts.heap_a().alloc_view(n);
  auto dst = ts.heap_b().alloc_view(n);
  const auto transfer = [&](std::uint8_t salt) {
    for (std::uint32_t i = 0; i < n; ++i) {
      src.store<std::uint8_t>(i, static_cast<std::uint8_t>(i * 7 + salt));
    }
    std::size_t sent = 0, got = 0;
    ts.pump_until([&] {
      if (sent < n) {
        const auto w = ff_write(ts.a(), c.afd, src.window(sent, n - sent),
                                n - sent);
        if (w > 0) sent += static_cast<std::size_t>(w);
      }
      const auto r = ff_read(ts.b(), c.bfd, dst.window(got, n - got),
                             n - got);
      if (r > 0) got += static_cast<std::size_t>(r);
      return got == n;
    });
    ASSERT_EQ(got, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(dst.load<std::uint8_t>(i), src.load<std::uint8_t>(i));
    }
  };
  transfer(1);

  // Let the last delayed/coalesced ACK leave; then only the ARP sentinel
  // may remain on either wheel.
  ASSERT_TRUE(ts.pump_until([&] {
    const auto sa = pa->debug_snapshot();
    const auto sb = pb->debug_snapshot();
    return !sa.ack_pending && !sb.ack_pending && sa.snd_una == sa.snd_nxt &&
           !sa.rexmit_armed && !sb.delack_armed && !sa.delack_armed;
  }));
  EXPECT_FALSE(pa->next_deadline().has_value());
  EXPECT_FALSE(pb->next_deadline().has_value());
  EXPECT_LE(ts.a().timer_wheel().size(), 1u);
  EXPECT_LE(ts.b().timer_wheel().size(), 1u);

  const auto frames_out = [&] {
    return ts.card_a().port(0).stats().tx_packets +
           ts.card_b().port(0).stats().tx_packets;
  };
  const std::uint64_t before = frames_out();
  const sim::Ns two_hours{7'200'000'000'000};
  ts.clock().advance_to(ts.clock().now() + two_hours);
  ts.pump(1000);
  EXPECT_EQ(frames_out(), before) << "an idle connection put a frame out";
  EXPECT_EQ(pa->state(), TcpState::kEstablished);
  EXPECT_EQ(pb->state(), TcpState::kEstablished);

  transfer(2);  // still usable, byte-identical
}

TEST(TcpNagleFree, SmallWriteWithNoOutstandingDataGoesImmediately) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  auto src = ts.heap_a().alloc_view(64);
  auto dst = ts.heap_b().alloc_view(64);
  // Request/response pattern: each small write must arrive without waiting
  // for any timer (latency far below delack/persist timeouts).
  for (int i = 0; i < 5; ++i) {
    const sim::Ns t0 = ts.clock().now();
    ts.pump_until([&] { return ff_write(ts.a(), c.afd, src, 10) == 10; });
    std::int64_t r = 0;
    ts.pump_until([&] { return (r = ff_read(ts.b(), c.bfd, dst, 64)) > 0; });
    EXPECT_EQ(r, 10);
    EXPECT_LT((ts.clock().now() - t0).count(), 5'000'000) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------
// RTO properties under a jittery wire (ISSUE 8): exponential backoff must
// stay inside the [min_rto, max_rto] clamps while a blackout starves the
// flow of ACKs, the connection must survive well under the kMaxRexmit
// give-up, and Karn's rule must keep retransmit-inflated samples out of
// SRTT so recovery leaves the timer sane.
// ---------------------------------------------------------------------

TEST(TcpRtoProps, BackoffUnderJitterStaysClampedAndKarnProtectsSrtt) {
  TcpConfig tcp;
  tcp.max_rto = sim::Ns{1'600'000'000};  // clamp reachable inside the test
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  // Symmetric 5 ms jitter: RTT samples are noisy and ACKs arrive reordered.
  nic::ImpairmentProfile jit;
  jit.seed = 11;
  jit.jitter = sim::Ns{5'000'000};
  ts.wire().set_impairment(0, jit);
  jit.seed = 12;
  ts.wire().set_impairment(1, jit);

  const Conn c = establish(ts, 5201);
  auto src = ts.heap_a().alloc_view(1024);
  auto dst = ts.heap_b().alloc_view(4096);
  // Warm up with real round trips: RTT is microseconds-to-milliseconds, so
  // the computed RTO must sit on the min clamp.
  for (int i = 0; i < 20; ++i) {
    ts.pump_until([&] { return ff_write(ts.a(), c.afd, src, 512) == 512; });
    std::uint64_t got = 0;
    ts.pump_until([&] {
      const auto r = ff_read(ts.b(), c.bfd, dst, 4096);
      if (r > 0) got += static_cast<std::uint64_t>(r);
      return got == 512;
    });
  }
  const auto* pcb = sender_pcb(ts);
  ASSERT_NE(pcb, nullptr);
  ts.pump_until([&] {
    const auto s = pcb->debug_snapshot();
    return s.snd_una == s.snd_nxt;
  });
  EXPECT_GE(pcb->rto(), tcp.min_rto);

  // Total blackout (both directions) via the surgical shim, on top of the
  // jitter profiles; one unacked write now drives pure RTO backoff.
  std::atomic<bool> blackout{true};
  ts.wire().set_loss([&](int, std::uint64_t) { return blackout.load(); });
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, src, 700) == 700; });

  std::vector<sim::Ns> backed_off;
  std::uint64_t expirations = pcb->counters().rto_expirations;
  const std::uint64_t before = expirations;
  const sim::Ns t_end = ts.clock().now() + sim::Ns{8'000'000'000};
  ts.pump_until(
      [&] {
        if (pcb->counters().rto_expirations != expirations) {
          expirations = pcb->counters().rto_expirations;
          backed_off.push_back(pcb->rto());
        }
        return ts.clock().now() >= t_end;
      },
      2'000'000);
  // 0.2 + 0.4 + 0.8 + 1.6 + ... within 8 s: at least four backoff events,
  // and nowhere near the kMaxRexmit=12 give-up (the flow must still exist).
  ASSERT_GE(backed_off.size(), 4u);
  EXPECT_LT(expirations - before, TcpPcb::kMaxRexmit);
  ASSERT_NE(sender_pcb(ts), nullptr) << "blackout aborted the connection";
  for (std::size_t i = 0; i < backed_off.size(); ++i) {
    EXPECT_GE(backed_off[i], tcp.min_rto) << "sample " << i;
    EXPECT_LE(backed_off[i], tcp.max_rto) << "sample " << i;
    if (i > 0) {
      EXPECT_GE(backed_off[i], backed_off[i - 1]) << "backoff shrank at " << i;
      EXPECT_LE(backed_off[i].count(), 2 * backed_off[i - 1].count())
          << "backoff grew faster than doubling at " << i;
    }
  }
  EXPECT_EQ(backed_off.back(), tcp.max_rto) << "never reached the clamp";

  // Lift the blackout: the retransmission must complete the stream.
  blackout.store(false);
  std::uint64_t got = 0;
  const bool recovered = ts.pump_until(
      [&] {
        const auto r = ff_read(ts.b(), c.bfd, dst, 4096);
        if (r > 0) got += static_cast<std::uint64_t>(r);
        return got == 700;
      },
      2'000'000);
  ASSERT_TRUE(recovered) << got << " of 700 after blackout lifted";
  // Karn's rule: the ~8 s the retransmitted segment sat in backoff must
  // never have been taken as an RTT sample — SRTT stays at wire scale.
  EXPECT_LT(pcb->srtt().count(), 200'000'000);
  // And one fresh, timed round trip restores a sane RTO from that SRTT.
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, src, 64) == 64; });
  ts.pump_until([&] {
    const auto s = pcb->debug_snapshot();
    return s.snd_una == s.snd_nxt;
  });
  EXPECT_LE(pcb->rto().count(), 2 * tcp.min_rto.count())
      << "RTO still inflated after a valid sample";
}

// A sender whose flight sits below the stretch-ACK count must stay
// ACK-clocked, not delack-clocked: the GRO idle flush
// (TcpConfig::ack_flush_timeout) ACKs a paused sub-threshold burst µs after
// the arrival stream stops, so a small-cwnd flow never waits the full
// 40 ms delayed-ACK timeout per window.
TEST(TcpAckFlush, SmallCwndFlowIsNotDelackClocked) {
  const auto timed_transfer = [](const TcpConfig& tcp) {
    TwoStacks ts(sim::Testbed::unconstrained(), tcp);
    const Conn c = establish(ts, 5201);
    auto src = ts.heap_a().alloc_view(4096);
    auto dst = ts.heap_b().alloc_view(4096);
    const std::uint64_t total = 64 * 1024;
    std::uint64_t sent = 0, received = 0;
    const auto start = ts.clock().now();
    ts.pump_until([&] {
      while (sent < total) {
        const auto w = ff_write(ts.a(), c.afd, src,
                                std::min<std::uint64_t>(4096, total - sent));
        if (w <= 0) break;
        sent += static_cast<std::uint64_t>(w);
      }
      while (true) {
        const auto r = ff_read(ts.b(), c.bfd, dst, 4096);
        if (r <= 0) break;
        received += static_cast<std::uint64_t>(r);
      }
      return received == total;
    });
    EXPECT_EQ(received, total);
    return (ts.clock().now() - start).count();
  };
  TcpConfig tcp;
  tcp.init_cwnd_segments = 4;  // below the stretch-ACK count (8)
  // The first window is 4 full segments with data still queued behind them
  // (no PSH): without the flush the receiver holds that ACK for the 40 ms
  // delack timeout and the whole transfer pays it. One delack round alone
  // would blow the flushed bound.
  EXPECT_LT(timed_transfer(tcp), 20'000'000)
      << "sub-coalesce-threshold window stalled on the delayed-ACK timer";
  // Control: flush disabled reverts to delack clocking — proving the bound
  // above is the flush at work, not some other ACK trigger.
  tcp.ack_flush_timeout = sim::Ns{0};
  EXPECT_GE(timed_transfer(tcp), 40'000'000)
      << "flush disabled, yet no delack stall: the test lost its subject";
}

// Limited transmit (RFC 3042): a loss at the head of a cwnd-filling burst
// leaves only cwnd-1 segments to raise dupacks. With cwnd = 3 that is two
// dupacks — one short of fast retransmit — so without limited transmit the
// hole can only resolve by RTO. The first two dupacks must each release a
// new segment, whose out-of-order arrival supplies the third dupack.
TEST(TcpLimitedTransmit, HeadLossAtTinyCwndRecoversWithoutRto) {
  TcpConfig tcp;
  tcp.init_cwnd_segments = 3;
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const Conn c = establish(ts, 5201);
  const TcpPcb* pcb = sender_pcb(ts);
  ASSERT_NE(pcb, nullptr);
  // Everything A transmits from here on is bulk data; drop the first frame
  // (the head of the initial 3-segment window), exactly once.
  const std::uint64_t head = ts.wire().stats(0).tx_frames;
  ts.wire().set_loss([head](int side, std::uint64_t idx) {
    return side == 0 && idx == head;
  });
  auto src = ts.heap_a().alloc_view(4096);
  auto dst = ts.heap_b().alloc_view(4096);
  const std::uint64_t total = 64 * 1024;
  std::uint64_t sent = 0, received = 0;
  const auto start = ts.clock().now();
  ts.pump_until([&] {
    while (sent < total) {
      const auto w = ff_write(ts.a(), c.afd, src,
                              std::min<std::uint64_t>(4096, total - sent));
      if (w <= 0) break;
      sent += static_cast<std::uint64_t>(w);
    }
    while (true) {
      const auto r = ff_read(ts.b(), c.bfd, dst, 4096);
      if (r <= 0) break;
      received += static_cast<std::uint64_t>(r);
    }
    return received == total;
  });
  ASSERT_EQ(received, total);
  EXPECT_GE(pcb->counters().fast_rexmits, 1u)
      << "head loss did not trigger fast retransmit";
  EXPECT_EQ(pcb->counters().rto_expirations, 0u)
      << "limited transmit failed to feed the third dupack; RTO carried it";
  // The RTO path would cost at least min_rto (200 ms).
  EXPECT_LT((ts.clock().now() - start).count(), 100'000'000);
}

// Congestion avoidance counts bytes (RFC 3465 §2.1): one MSS per cwnd of
// acknowledged data. The receiver ACKs every 8th segment, so counting ACKs
// instead (MSS^2/cwnd each) would grow cwnd by an eighth of that and leave
// a halved window under the stretch count for most of the time to the next
// loss.
TEST(TcpCongestionAvoidance, OneCwndOfAckedBytesGrowsCwndByOneMss) {
  TwoStacks ts(sim::Testbed::unconstrained());
  const Conn c = establish(ts, 5201);
  const TcpPcb* pcb = sender_pcb(ts);
  ASSERT_NE(pcb, nullptr);
  // One data frame lost in slow start; fast recovery halves cwnd and
  // leaves the sender in congestion avoidance (cwnd == ssthresh).
  const std::uint64_t drop = ts.wire().stats(0).tx_frames + 40;
  ts.wire().set_loss([drop](int side, std::uint64_t idx) {
    return side == 0 && idx == drop;
  });
  Bulk bulk = a_to_b(ts, c, 8 * 1024 * 1024);
  ASSERT_TRUE(ts.pump_until([&] {
    bulk.step();
    return pcb->counters().fast_rexmits == 1 &&
           !pcb->debug_snapshot().in_recovery;
  }));
  const auto cwnd0 = pcb->cwnd();
  const auto una0 = pcb->debug_snapshot().snd_una;
  ASSERT_GE(cwnd0, pcb->ssthresh());
  ASSERT_TRUE(ts.pump_until([&] {
    bulk.step();
    return pcb->debug_snapshot().snd_una - una0 >= cwnd0;
  }));
  const std::uint32_t acked = pcb->debug_snapshot().snd_una - una0;
  const std::uint32_t mss = pcb->mss_eff();
  EXPECT_EQ(pcb->counters().fast_rexmits, 1u);
  EXPECT_EQ(pcb->counters().rto_expirations, 0u);
  // The check runs between stack steps, so `acked` may overshoot cwnd0 by
  // the last stretch ACK; growth is still acked/cwnd0 MSS, within rounding.
  const double expected = static_cast<double>(mss) * acked / cwnd0;
  EXPECT_GE(pcb->cwnd() - cwnd0, 0.9 * expected)
      << "cwnd " << cwnd0 << " grew only " << pcb->cwnd() - cwnd0
      << " bytes over " << acked << " acknowledged bytes (mss " << mss << ")";
  EXPECT_LE(pcb->cwnd() - cwnd0, expected + 1);
  EXPECT_GE(pcb->cwnd() - cwnd0, mss * 3 / 4);
}

// A segment that fills a hole is ACKed at once (RFC 5681 §4.2): the ACK
// covering the repair leaves in the stack step that absorbs the
// retransmission, not ack_flush_timeout later and not after the next
// stretch of in-order segments.
TEST(TcpGapFill, RepairIsAckedInTheStepThatAbsorbsIt) {
  const TcpConfig tcp;
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  const TcpPcb* pb = peer_pcb(ts, *pa);
  ASSERT_NE(pb, nullptr);
  const std::uint64_t drop = ts.wire().stats(0).tx_frames + 20;
  ts.wire().set_loss([drop](int side, std::uint64_t idx) {
    return side == 0 && idx == drop;
  });
  Bulk bulk = a_to_b(ts, c, 1024 * 1024);
  // Each predicate call follows exactly one stack step (or one clock
  // advance). B is observed before the app calls and recorded after them,
  // so a change between two calls happened in that one step.
  std::optional<std::uint32_t> hole;  // B's rcv_nxt while OOO data waits
  std::uint32_t last_rcv_nxt = 0;
  std::uint64_t last_b_segs_out = 0;
  std::optional<std::uint32_t> repaired;  // rcv_nxt right after the fill
  sim::Ns absorbed_at{};
  bool acked_in_step = false;
  ASSERT_TRUE(ts.pump_until([&] {
    const auto rcv_nxt = pb->debug_snapshot().rcv_nxt;
    if (!hole && pb->counters().ooo_segs > 0) hole = rcv_nxt;
    if (hole && !repaired && last_rcv_nxt == *hole && rcv_nxt != *hole) {
      repaired = rcv_nxt;
      absorbed_at = ts.clock().now();
      acked_in_step = pb->counters().segs_out > last_b_segs_out;
    }
    bulk.step();
    last_rcv_nxt = pb->debug_snapshot().rcv_nxt;
    last_b_segs_out = pb->counters().segs_out;
    return repaired && static_cast<std::int32_t>(
                           pa->debug_snapshot().snd_una - *repaired) >= 0;
  }));
  EXPECT_EQ(pa->counters().fast_rexmits, 1u);
  EXPECT_EQ(pa->counters().rto_expirations, 0u);
  EXPECT_TRUE(acked_in_step)
      << "B absorbed the retransmission and sent nothing in that step";
  // The ACK crosses the wire in a few µs; a flushed one waits 50 µs first.
  EXPECT_LT((ts.clock().now() - absorbed_at).count(),
            tcp.ack_flush_timeout.count() / 2)
      << "the repair ACK reached A only "
      << (ts.clock().now() - absorbed_at).count() << " ns after the fill";
}

// Per stack step, B's in-order arrivals and the ACKs it sent: the counters
// are read between steps, and the receiving app's reads (which may send a
// window update) are left out by sampling again after them.
struct AckTally {
  const TcpPcb& pb;
  std::uint64_t in = 0, ooo = 0, out = 0;

  struct Step {
    std::uint64_t in_order, ooo, acks;
  };
  Step step() {
    const TcpPcb::Counters& k = pb.counters();
    const Step s{k.segs_in - in - (k.ooo_segs - ooo), k.ooo_segs - ooo,
                 k.segs_out - out};
    mark();
    return s;
  }
  /// Count from here; true if B sent something since the last mark.
  bool mark() {
    const TcpPcb::Counters& k = pb.counters();
    const bool sent = k.segs_out != out;
    in = k.segs_in;
    ooo = k.ooo_segs;
    out = k.segs_out;
    return sent;
  }
};

// Recovery halves cwnd, here below B's 8-segment stretch: without more
// ACKs than the stretch gives, each window the sender could send would
// wait out ack_flush_timeout for its ACK (RFC 2525 §2.13). The segment
// that fills the hole opens a quick-ACK window: it and each of the next
// 15 in-order segments are ACKed in the stack step that absorbs them, and
// the 17th waits for the stretch or the flush again.
TEST(TcpGapFill, RepairAndTheNextFifteenSegmentsAreAckedAtOnce) {
  TwoStacks ts(sim::Testbed::unconstrained());
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  const TcpPcb* pb = peer_pcb(ts, *pa);
  ASSERT_NE(pb, nullptr);
  // The third frame of the first flight (the cold cwnd of 10 segments):
  // the seven behind it SACK the hole and recovery halves cwnd.
  const std::uint64_t drop = ts.wire().stats(0).tx_frames + 2;
  ts.wire().set_loss([drop](int side, std::uint64_t idx) {
    return side == 0 && idx == drop;
  });
  Bulk bulk = a_to_b(ts, c, 1024 * 1024);
  AckTally tally{*pb};
  tally.mark();
  std::optional<std::uint32_t> hole;  // B's rcv_nxt while OOO data waits
  std::uint32_t last_rcv_nxt = pb->debug_snapshot().rcv_nxt;
  bool repaired = false;
  std::uint32_t cwnd_at_repair = 0;
  std::uint64_t seen = 0;  // in-order segments since the repair, it first
  ASSERT_TRUE(ts.pump_until([&] {
    const AckTally::Step s = tally.step();
    const auto rcv_nxt = pb->debug_snapshot().rcv_nxt;
    if (!hole && pb->counters().ooo_segs > 0) hole = rcv_nxt;
    if (hole && !repaired && last_rcv_nxt == *hole && rcv_nxt != *hole) {
      repaired = true;  // before it, every arrival was out of order
      cwnd_at_repair = pa->cwnd();
    }
    if (repaired && s.in_order > 0 && seen <= 16) {
      // Each out-of-order arrival ACKs at once; of the in-order ones, the
      // repair and the 15 after it (j < 16), then every 8th: not the 17th.
      std::uint64_t want = s.ooo;
      for (std::uint64_t j = seen; j < seen + s.in_order; ++j) {
        if (j < 16 || (j - 15) % 8 == 0) ++want;
      }
      EXPECT_EQ(s.acks, want)
          << "segments " << seen << ".." << seen + s.in_order - 1
          << " after the repair (" << s.ooo << " out of order)";
      seen += s.in_order;
    }
    bulk.step();
    tally.mark();
    last_rcv_nxt = pb->debug_snapshot().rcv_nxt;
    return seen > 16;
  }));
  EXPECT_EQ(pa->counters().fast_rexmits, 1u);
  EXPECT_EQ(pa->counters().rto_expirations, 0u);
  EXPECT_LT(cwnd_at_repair, 8u * pa->mss_eff())
      << "recovery left cwnd at or above the stretch";
}

// The quick-ACK window opens only at a repair: a stream that loses
// nothing ACKs every 8th in-order segment, and shorter stretches only
// from the ack-flush timeout or a window-reopening read.
TEST(TcpGapFill, LossFreeStreamAcksEveryEighthSegment) {
  TwoStacks ts(sim::Testbed::unconstrained());
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  const TcpPcb* pb = peer_pcb(ts, *pa);
  ASSERT_NE(pb, nullptr);
  Bulk bulk = a_to_b(ts, c, 1024 * 1024);
  AckTally tally{*pb};
  tally.mark();
  std::uint64_t unacked = 0;  // in-order segments B has not ACKed
  std::uint64_t stretch_acks = 0;
  ASSERT_TRUE(ts.pump_until([&] {
    const AckTally::Step s = tally.step();
    if (s.in_order + s.ooo > 0) {
      EXPECT_EQ(s.ooo, 0u);
      EXPECT_EQ(s.acks, (unacked + s.in_order) / 8)
          << s.in_order << " segments arrived with " << unacked
          << " unacknowledged";
      unacked = (unacked + s.in_order) % 8;
      stretch_acks += s.acks;
    } else if (s.acks > 0) {
      unacked = 0;  // the flush
    }
    const bool done = bulk.step();
    if (tally.mark()) unacked = 0;  // a window update
    return done;
  }));
  EXPECT_EQ(ts.wire().stats(0).dropped, 0u);
  EXPECT_EQ(pa->counters().rexmits, 0u);
  EXPECT_GE(stretch_acks * 8, pa->counters().segs_out / 2)
      << "most of the stream should be ACKed in stretches of 8";
}

// A duplicate ACK carries no data (RFC 5681 §2). In a bidirectional stream
// the peer's data segments repeat the same ACK while it sends; counting
// them as dupacks fast-retransmits a stream that lost nothing and halves
// cwnd each time.
TEST(TcpDupAck, LossFreeBidirectionalStreamNeverRetransmits) {
  TwoStacks ts(sim::Testbed::unconstrained());
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  const TcpPcb* pb = peer_pcb(ts, *pa);
  ASSERT_NE(pb, nullptr);
  const std::uint64_t total = 4 * 1024 * 1024;
  Bulk dirs[] = {a_to_b(ts, c, total), b_to_a(ts, c, total)};
  ASSERT_TRUE(ts.pump_until([&] {
    bool done = true;
    for (Bulk& d : dirs) done = d.step() && done;
    return done;
  }));
  EXPECT_EQ(ts.wire().stats(0).dropped + ts.wire().stats(1).dropped, 0u);
  for (const TcpPcb* pcb : {pa, pb}) {
    EXPECT_EQ(pcb->counters().fast_rexmits, 0u);
    EXPECT_EQ(pcb->counters().rexmits, 0u);
    EXPECT_EQ(pcb->counters().rto_expirations, 0u);
  }
}

// After an RTO the scoreboard still knows every hole (RFC 6675 §5.1): the
// recovery resends them lowest first as the window reopens. Resending only
// snd_una, with cwnd at one and then two MSS under the old flight, left the
// window's second hole to a second RTO.
TEST(TcpRtoRecovery, SecondHoleOfTheWindowIsRepairedWithoutASecondRto) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  // Two data frames of one window are lost, then the first retransmission
  // and everything after it until the RTO fires.
  const std::uint64_t base = ts.wire().stats(0).tx_frames;
  ts.wire().set_loss([base, pa](int side, std::uint64_t idx) {
    if (side != 0) return false;
    if (idx == base + 30 || idx == base + 36) return true;
    return pa->counters().fast_rexmits > 0 &&
           pa->counters().rto_expirations == 0;
  });
  StampedBulk bulk{a_to_b(ts, c, 1024 * 1024)};
  ASSERT_TRUE(ts.pump_until([&] { return bulk.step(); }));
  EXPECT_TRUE(bulk.intact());
  EXPECT_EQ(pa->counters().rto_expirations, 1u)
      << "a hole the scoreboard knew about waited for another RTO";
  // The two holes, the fast retransmit and what followed it.
  EXPECT_GE(ts.wire().stats(0).dropped, 3u);
}

// RACK (RFC 8985 §6): a retransmission is lost once data sent after it is
// SACKed, and goes again without waiting out the RTO. NewReno cannot see a
// lost fast retransmit at all.
TEST(TcpRack, LostFastRetransmitIsResentWithoutAnRto) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  // One data frame is lost, then the fast retransmit that repairs it: the
  // first frame A sends once it has fast-retransmitted (one ACK arrives per
  // step, and the retransmission leaves before anything that ACK releases).
  const std::uint64_t drop = ts.wire().stats(0).tx_frames + 30;
  bool rexmit_dropped = false;
  ts.wire().set_loss([&](int side, std::uint64_t idx) {
    if (side != 0) return false;
    if (idx == drop) return true;
    if (!rexmit_dropped && pa->counters().fast_rexmits > 0) {
      rexmit_dropped = true;
      return true;
    }
    return false;
  });
  StampedBulk bulk{a_to_b(ts, c, 1024 * 1024)};
  ASSERT_TRUE(ts.pump_until([&] { return bulk.step(); }));
  EXPECT_TRUE(rexmit_dropped);
  EXPECT_TRUE(bulk.intact());
  EXPECT_EQ(pa->counters().rto_expirations, 0u)
      << "the lost retransmission waited for the RTO";
  EXPECT_GE(pa->counters().fast_rexmits, 2u);
}

// An RTO whose retransmission cannot be emitted (here: A's mbuf pool is
// empty) still leaves the timer running. Everything in flight was lost, so
// no ACK will come: without the timer the connection would stall for good
// and never back off to ETIMEDOUT.
TEST(TcpRtoRecovery, RtoWhoseResendCannotBeEmittedFiresAgain) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  bool blackout = false;
  ts.wire().set_loss([&](int, std::uint64_t) { return blackout; });
  // The whole stream fits the send buffer: once it is written, no write
  // calls output() again, and only the timer can restart the sender.
  StampedBulk bulk{a_to_b(ts, c, 128 * 1024)};
  ASSERT_TRUE(ts.pump_until([&] {
    bulk.step();
    return pa->counters().segs_out > 40;
  }));
  // Mid-stream the wire goes dark both ways: nothing reaches B, and no ACK
  // is left to reach A. Once what was in flight has settled, A's pool runs
  // dry until the RTO has fired.
  blackout = true;
  const sim::Ns dark = ts.clock().now();
  ASSERT_TRUE(ts.pump_until([&] {
    bulk.step();
    return ts.clock().now() > dark + sim::Ns{1'000'000};
  }));
  const std::uint64_t rexmits = pa->counters().rexmits;
  std::vector<updk::Mbuf*> hoard;
  ASSERT_TRUE(ts.pump_until([&] {
    while (updk::Mbuf* m = ts.pool_a().alloc()) hoard.push_back(m);
    bulk.step();
    return pa->counters().rto_expirations == 1;
  }));
  EXPECT_EQ(pa->counters().rexmits, rexmits) << "the RTO's resend got out";
  for (updk::Mbuf* m : hoard) ts.pool_a().free(m);
  // The pool is back, the wire is not: the RTO backs off and fires again.
  EXPECT_TRUE(ts.pump_until(
      [&] {
        bulk.step();
        return pa->counters().rto_expirations >= 2;
      },
      20'000))
      << "the RTO left no timer behind";
  blackout = false;
  ASSERT_TRUE(ts.pump_until([&] { return bulk.step(); }));
  EXPECT_TRUE(bulk.intact());
}

// A hole fill into a nearly full receive buffer leaves part of the SACKed
// out-of-order data waiting in ooo_ at rcv_nxt until the application
// reads. Those bytes are the next in-order data, not a block above a hole
// (RFC 2018 §3): no SACK block may start at or below the ACK, which the
// sender would otherwise take for reneging.
TEST(TcpSack, HeldBackDataIsNotReportedAsABlock) {
  fstack::TcpConfig tcp;
  tcp.sndbuf_bytes = 64 * 1024;
  tcp.rcvbuf_bytes = 64 * 1024;
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const Conn c = establish(ts, 5201);
  const TcpPcb* pa = sender_pcb(ts);
  ASSERT_NE(pa, nullptr);
  const TcpPcb* pb = peer_pcb(ts, *pa);
  ASSERT_NE(pb, nullptr);
  const std::uint64_t base = ts.wire().stats(0).tx_frames;
  ts.wire().set_loss([base](int side, std::uint64_t idx) {
    return side == 0 && idx == base + 20;
  });
  StampedBulk bulk{a_to_b(ts, c, 512 * 1024)};
  // B's application does not read until the buffer holds data back.
  bulk.reading = false;
  ASSERT_TRUE(ts.pump_until([&] {
    bulk.step();
    return StackTcpAccess::holds_back(*pb);
  })) << "the hole fill found room for everything";
  const TcpOptions o = StackTcpAccess::sack_blocks(*pb);
  const std::uint32_t ack = StackTcpAccess::rcv_nxt(*pb);
  for (std::size_t k = 0; k < o.sack_count; ++k) {
    EXPECT_TRUE(seq_gt(o.sack[k].left, ack))
        << "block " << k << " starts at or below rcv_nxt";
  }
  bulk.reading = true;
  ASSERT_TRUE(ts.pump_until([&] { return bulk.step(); }));
  EXPECT_TRUE(bulk.intact());
  EXPECT_EQ(pa->counters().rto_expirations, 0u);
}

// A seeded storm of hostile SACK blocks — below snd_una, past snd_nxt,
// reversed, straddling either edge, and lies inside the window — injected
// as extra ACKs in the middle of a lossy stream. The board stays within its
// bound, marks nothing outside what was sent, and the stream arrives
// byte-identical: a lie that hides a real hole is undone when the RTO finds
// the receiver never delivered it.
TEST(TcpSack, HostileBlocksMidStreamLeaveTheStreamIntact) {
  TwoStacks ts;
  ts.wire().set_impairment(0, nic::ImpairmentProfile::uniform_loss(0.01, 9));
  const Conn c = establish(ts, 5201);
  TcpPcb* pa = ts.a().find_pcb(
      {ts.ip_a(), sender_pcb(ts)->tuple().local_port, ts.ip_b(), 5201});
  ASSERT_NE(pa, nullptr);
  std::uint64_t rng = 0x5eed;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  StampedBulk bulk{a_to_b(ts, c, 512 * 1024)};
  std::uint64_t steps = 0, injected = 0;
  ASSERT_TRUE(ts.pump_until(
      [&] {
        if (++steps % 7 == 0) {
          const auto snap = pa->debug_snapshot();
          const std::uint32_t out = snap.snd_nxt - snap.snd_una;
          TcpHeader h;
          h.src_port = 5201;
          h.dst_port = pa->tuple().local_port;
          h.seq = snap.rcv_nxt;
          h.ack = snap.snd_una;
          h.flags = tcpflag::kAck;
          h.window = static_cast<std::uint16_t>(
              snap.snd_wnd >> StackTcpAccess::snd_wscale(*pa));
          TcpOptions o;
          o.sack_count = static_cast<std::uint8_t>(1 + next() % 4);
          for (std::size_t k = 0; k < o.sack_count; ++k) {
            const std::uint32_t left =
                snap.snd_una - 20000 + next() % (out + 40000);
            const std::uint32_t right = left + 1 + next() % 8000;
            o.sack[k] = next() % 4 == 0 ? SackBlock{right, left}
                                        : SackBlock{left, right};
          }
          pa->input(h, o, {});
          ++injected;
          const auto ranges = StackTcpAccess::board(*pa).ranges();
          const auto now = pa->debug_snapshot();
          EXPECT_LE(ranges.size(), SackScoreboard::kMaxRanges);
          if (!ranges.empty()) {
            EXPECT_EQ(ranges.front().start, now.snd_una);
            EXPECT_TRUE(seq_le(ranges.back().end, now.snd_nxt))
                << "the board marks bytes never sent";
          }
        }
        return bulk.step();
      },
      2'000'000));
  EXPECT_GT(injected, 100u);
  EXPECT_TRUE(bulk.intact());
}

// ooo_ is keyed on raw seq, so a window that straddles 2^32 sorts its tail
// first; the receiver orders SACK blocks by distance from rcv_nxt and the
// sender's scoreboard by offset from snd_una. Two holes either side of the
// wrap are repaired by SACK recovery alone.
TEST(TcpSack, RecoveryAcrossTheSequenceWrap) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  TcpPcb* pa = ts.a().find_pcb(
      {ts.ip_a(), sender_pcb(ts)->tuple().local_port, ts.ip_b(), 5201});
  ASSERT_NE(pa, nullptr);
  TcpPcb* pb = ts.b().find_pcb({ts.ip_b(), 5201, ts.ip_a(),
                                pa->tuple().local_port});
  ASSERT_NE(pb, nullptr);
  // The stream's next byte lands 20,000 bytes (13.8 MSS) short of 2^32.
  const std::uint32_t una = pa->debug_snapshot().snd_una;
  StackTcpAccess::shift_stream(*pa, *pb, 0xFFFFFFFFu - 19'999u - una);
  ASSERT_EQ(pa->debug_snapshot().snd_una, 0xFFFFFFFFu - 19'999u);
  const std::uint64_t base = ts.wire().stats(0).tx_frames;
  ts.wire().set_loss([base](int side, std::uint64_t idx) {
    return side == 0 && (idx == base + 11 || idx == base + 16);
  });
  StampedBulk bulk{a_to_b(ts, c, 512 * 1024)};
  ASSERT_TRUE(ts.pump_until([&] { return bulk.step(); }));
  EXPECT_TRUE(bulk.intact());
  EXPECT_EQ(ts.wire().stats(0).dropped, 2u);
  EXPECT_GE(pb->counters().ooo_segs, 2u);
  EXPECT_EQ(pa->counters().fast_rexmits, 2u);
  EXPECT_EQ(pa->counters().rto_expirations, 0u);
  EXPECT_LT(pa->debug_snapshot().snd_una, 1'000'000u) << "no wrap crossed";
}

// A peer that never offered SACK runs the same recovery: each duplicate ACK
// stands for one MSS delivered above the hole, three of them mark the head
// lost, and each partial ACK marks the next head (RFC 6582).
TEST(TcpSack, PeerWithoutSackRecoversThroughTheSamePath) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  TcpPcb* pa = ts.a().find_pcb(
      {ts.ip_a(), sender_pcb(ts)->tuple().local_port, ts.ip_b(), 5201});
  ASSERT_NE(pa, nullptr);
  TcpPcb* pb = ts.b().find_pcb({ts.ip_b(), 5201, ts.ip_a(),
                                pa->tuple().local_port});
  ASSERT_NE(pb, nullptr);
  StackTcpAccess::drop_sack(*pa, *pb);
  const std::uint64_t base = ts.wire().stats(0).tx_frames;
  ts.wire().set_loss([base](int side, std::uint64_t idx) {
    return side == 0 && (idx == base + 30 || idx == base + 34);
  });
  StampedBulk bulk{a_to_b(ts, c, 1024 * 1024)};
  ASSERT_TRUE(ts.pump_until([&] { return bulk.step(); }));
  EXPECT_TRUE(bulk.intact());
  EXPECT_GE(pa->counters().dup_acks_in, 3u);
  EXPECT_EQ(pa->counters().fast_rexmits, 2u);
  EXPECT_EQ(pa->counters().rto_expirations, 0u);
}

// A loss at the very end of a stream leaves nothing behind it to SACK: the
// tail-loss probe (RFC 8985 §7) resends the last segment after 2·SRTT plus
// the worst-case ACK delay, well inside the RTO.
TEST(TcpTlp, TailLossIsProbedNotTimedOut) {
  constexpr std::uint64_t kTotal = 64 * 1024;
  // A clean run counts the frames the stream takes; the second run loses
  // the last of them.
  std::uint64_t frames = 0;
  for (const bool lossy : {false, true}) {
    TwoStacks ts;
    const Conn c = establish(ts, 5201);
    const TcpPcb* pa = sender_pcb(ts);
    ASSERT_NE(pa, nullptr);
    const std::uint64_t base = ts.wire().stats(0).tx_frames;
    if (lossy) {
      ts.wire().set_loss([last = base + frames - 1](int side,
                                                     std::uint64_t idx) {
        return side == 0 && idx == last;
      });
    }
    StampedBulk bulk{a_to_b(ts, c, kTotal)};
    const sim::Ns t0 = ts.clock().now();
    ASSERT_TRUE(ts.pump_until([&] { return bulk.step(); }));
    EXPECT_TRUE(bulk.intact());
    if (!lossy) {
      frames = ts.wire().stats(0).tx_frames - base;
      EXPECT_EQ(pa->counters().tlp_probes, 0u);
      continue;
    }
    EXPECT_EQ(ts.wire().stats(0).dropped, 1u);
    EXPECT_EQ(pa->counters().tlp_probes, 1u);
    EXPECT_EQ(pa->counters().rexmits, 1u);
    EXPECT_EQ(pa->counters().rto_expirations, 0u);
    EXPECT_LT(ts.clock().now() - t0, pa->rto());
  }
}

// ---------------------------------------------------------------------
// Representable-alignment properties (the allocator/compression contract
// that keeps compartments and allocations disjoint).
// ---------------------------------------------------------------------

class AlignmentSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignmentSweep, AlignedAllocationsAreExactAndDisjoint) {
  const std::uint64_t size = GetParam();
  machine::AddressSpace as(256u << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(128u << 20, cheri::PermSet::data_rw(), "sweep"));
  const auto a = heap.alloc(size);
  const auto b = heap.alloc(size);
  // Exactly representable: base/top match the allocation bounds.
  EXPECT_EQ(a.base() % cheri::cc::representable_alignment(size), 0u);
  EXPECT_GE(static_cast<std::uint64_t>(a.length()), size);
  // Disjoint: the two capabilities never overlap even after compression.
  EXPECT_LE(a.top(), cheri::cc::U128{b.base()});
  heap.free(a);
  heap.free(b);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlignmentSweep,
                         ::testing::Values(64u, 4096u, 5000u, 65536u,
                                           100'000u, 262'144u, 1'000'000u,
                                           8'388'608u));

TEST(Alignment, RepresentableAlignmentMatchesEncoder) {
  for (std::uint64_t len :
       {1ull, 100ull, 4095ull, 4096ull, 10'000ull, 1ull << 20, 3ull << 24}) {
    const std::uint64_t g = cheri::cc::representable_alignment(len);
    const std::uint64_t base = 7 * g;  // any aligned base
    const std::uint64_t rounded = (len + g - 1) / g * g;
    const auto r = cheri::cc::encode(base, cheri::cc::U128{base} + rounded);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->exact) << "len=" << len << " g=" << g;
  }
}

// ---------------------------------------------------------------------
// Ring wrap-around torture (indices crossing the 32-bit boundary).
// ---------------------------------------------------------------------

TEST(RingWrap, ManyCyclesPreserveFifo) {
  updk::Ring<std::uint32_t> r(4);
  std::uint32_t next_in = 0, next_out = 0;
  for (int cycle = 0; cycle < 100'000; ++cycle) {
    while (r.enqueue(next_in)) ++next_in;
    std::uint32_t v;
    while (r.dequeue_burst({&v, 1}) == 1) {
      ASSERT_EQ(v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_GT(next_in, 300'000u);
}

TEST(CapViewMore, AtMovesCursorWithinBounds) {
  machine::AddressSpace as(1 << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  auto v = heap.alloc_view(256);
  v.store<std::uint32_t>(128, 0xABCD);
  auto moved = v.at(128);
  EXPECT_EQ(moved.load<std::uint32_t>(0), 0xABCDu);
  EXPECT_EQ(moved.size(), 128u);  // cursor-to-top shrinks
}
