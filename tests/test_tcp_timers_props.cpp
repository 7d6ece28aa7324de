// Deeper protocol behaviours: zero-window persist probing, delayed-ACK
// timing, TIME_WAIT reaping, idle quiescence, representable-alignment
// properties, and regression checks for the allocator/compression
// interplay that keeps compartments disjoint.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "machine/heap.hpp"
#include "nic/impairment.hpp"

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
