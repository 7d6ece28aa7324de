// TCP end-to-end over the emulated wire: handshake, bulk transfer,
// retransmission under loss, fast retransmit, FIN teardown, RST handling,
// flow control — all deterministic on the manually-pumped virtual clock.
#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "fstack/api.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::TwoStacks;

namespace {
/// Establish a connection: listener on B:port, connector on A.
struct Conn {
  int afd = -1;  // A side (client)
  int bfd = -1;  // B side (accepted)
  int listen_fd = -1;
};

Conn establish(TwoStacks& ts, std::uint16_t port) {
  Conn c;
  c.listen_fd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_bind(ts.b(), c.listen_fd, {Ipv4Addr{}, port}), 0);
  EXPECT_EQ(ff_listen(ts.b(), c.listen_fd, 4), 0);
  c.afd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_connect(ts.a(), c.afd, {ts.ip_b(), port}), -EINPROGRESS);
  ts.pump_until([&] {
    c.bfd = ff_accept(ts.b(), c.listen_fd, nullptr);
    return c.bfd >= 0;
  });
  EXPECT_GE(c.bfd, 0);
  return c;
}
}  // namespace

TEST(TcpHandshake, ThreeWayEstablishesBothSides) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  // The client side reaches ESTABLISHED (a write is accepted).
  auto buf = ts.heap_a().alloc_view(64);
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, buf, 8) == 8; });
  const TcpPcb* pcb = ts.a().find_pcb(
      {ts.ip_a(), 0, ts.ip_b(), 5201});  // unknown ephemeral: scan instead
  (void)pcb;
  SUCCEED();
}

TEST(TcpHandshake, ConnectionRefusedGetsRst) {
  TwoStacks ts;
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_connect(ts.a(), fd, {ts.ip_b(), 9999}), -EINPROGRESS);
  auto buf = ts.heap_a().alloc_view(16);
  std::int64_t r = -EAGAIN;
  ts.pump_until([&] {
    r = ff_write(ts.a(), fd, buf, 1);
    return r != -EAGAIN;
  });
  EXPECT_EQ(r, -ECONNREFUSED);
  EXPECT_GT(ts.b().stats().tcp_rst_out, 0u);
}

TEST(TcpTransfer, BulkDataArrivesIntactAndInOrder) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  constexpr std::size_t kTotal = 512 * 1024;

  auto src = ts.heap_a().alloc_view(4096);
  auto dst = ts.heap_b().alloc_view(4096);
  std::uint64_t sent = 0, received = 0, corrupt = 0;
  // Every stream byte carries a position-derived value, so any reorder,
  // loss or duplication is visible at the receiver regardless of how the
  // stream is resegmented.
  ts.pump_until(
      [&] {
        while (sent < kTotal) {
          const std::size_t n = std::min<std::uint64_t>(4096, kTotal - sent);
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
        return received == kTotal;
      },
      2'000'000);
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(corrupt, 0u);
}

TEST(TcpTransfer, SurvivesPacketLoss) {
  TwoStacks ts;
  // ~4% uniform random loss in both directions (seed-deterministic
  // impairment stage; the surgical set_loss shim stays for the
  // single-frame tests below).
  ts.wire().set_impairment(0, nic::ImpairmentProfile::uniform_loss(0.04, 7));
  ts.wire().set_impairment(1, nic::ImpairmentProfile::uniform_loss(0.04, 8));
  const Conn c = establish(ts, 5201);
  constexpr std::size_t kTotal = 128 * 1024;
  auto src = ts.heap_a().alloc_view(4096);
  auto dst = ts.heap_b().alloc_view(4096);
  std::uint64_t sent = 0, received = 0;
  const bool done = ts.pump_until(
      [&] {
        while (sent < kTotal) {
          const auto w = ff_write(ts.a(), c.afd, src,
                                  std::min<std::uint64_t>(4096, kTotal - sent));
          if (w <= 0) break;
          sent += static_cast<std::uint64_t>(w);
        }
        while (true) {
          const auto r = ff_read(ts.b(), c.bfd, dst, 4096);
          if (r <= 0) break;
          received += static_cast<std::uint64_t>(r);
        }
        return received == kTotal;
      },
      4'000'000);
  EXPECT_TRUE(done);
  EXPECT_EQ(received, kTotal);
  // Loss was actually experienced and repaired.
  const TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  EXPECT_GT(pcb->counters().rexmits + pcb->counters().fast_rexmits, 0u);
}

TEST(TcpTransfer, FastRetransmitFiresOnIsolatedLoss) {
  TwoStacks ts;
  // Drop exactly one data frame early in the flow (A->B is side 0).
  ts.wire().set_loss(
      [](int side, std::uint64_t idx) { return side == 0 && idx == 12; });
  const Conn c = establish(ts, 5201);
  constexpr std::size_t kTotal = 256 * 1024;
  auto src = ts.heap_a().alloc_view(8192);
  auto dst = ts.heap_b().alloc_view(8192);
  std::uint64_t sent = 0, received = 0;
  ASSERT_TRUE(ts.pump_until(
      [&] {
        while (sent < kTotal) {
          const auto w = ff_write(ts.a(), c.afd, src,
                                  std::min<std::uint64_t>(8192, kTotal - sent));
          if (w <= 0) break;
          sent += static_cast<std::uint64_t>(w);
        }
        while (true) {
          const auto r = ff_read(ts.b(), c.bfd, dst, 8192);
          if (r <= 0) break;
          received += static_cast<std::uint64_t>(r);
        }
        return received == kTotal;
      },
      4'000'000));
  const TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  EXPECT_GE(pcb->counters().fast_rexmits, 1u);
  // Fast retransmit should have repaired it well before any RTO: the
  // virtual completion time stays far under the 1 s initial RTO.
  EXPECT_LT(ts.clock().now(), sim::Ns{900'000'000});
}

TEST(TcpClose, GracefulFinBothWays) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  auto buf = ts.heap_a().alloc_view(64);
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, buf, 32) == 32; });
  auto dst = ts.heap_b().alloc_view(64);
  ts.pump_until([&] { return ff_read(ts.b(), c.bfd, dst, 64) == 32; });

  EXPECT_EQ(ff_close(ts.a(), c.afd), 0);
  // B sees EOF...
  ts.pump_until([&] { return ff_read(ts.b(), c.bfd, dst, 64) == 0; });
  // ...and closes its side; both PCBs drain to CLOSED/TIME_WAIT and reap.
  EXPECT_EQ(ff_close(ts.b(), c.bfd), 0);
  ts.pump_until([&] {
    const TcpPcb* p = nullptr;
    for (std::uint16_t q = 49152; q < 49160 && !p; ++q) {
      p = ts.a().find_pcb({ts.ip_a(), q, ts.ip_b(), 5201});
    }
    return p == nullptr;  // reaped after TIME_WAIT
  });
  SUCCEED();
}

TEST(TcpFlowControl, ReceiverWindowThrottlesSender) {
  TcpConfig tcp;
  tcp.rcvbuf_bytes = 16 * 1024;  // tiny receive buffer
  tcp.sndbuf_bytes = 256 * 1024;
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const Conn c = establish(ts, 5201);
  auto src = ts.heap_a().alloc_view(8192);

  // B never reads: A can place at most rcvbuf (+ in-flight slack) bytes.
  std::uint64_t sent = 0;
  ts.pump_until(
      [&] {
        const auto w = ff_write(ts.a(), c.afd, src, 8192);
        if (w > 0) sent += static_cast<std::uint64_t>(w);
        return false;
      },
      30'000);
  // The sender is blocked well below the send-buffer total: flow control
  // (not memory) is the limit. Allow generous slack for buffered segments.
  EXPECT_LE(sent, 16 * 1024u + 256 * 1024u);
  // Now drain at B: transfer resumes.
  auto dst = ts.heap_b().alloc_view(8192);
  std::uint64_t received = 0;
  ts.pump_until(
      [&] {
        const auto r = ff_read(ts.b(), c.bfd, dst, 8192);
        if (r > 0) received += static_cast<std::uint64_t>(r);
        return received >= 16 * 1024u;
      },
      500'000);
  EXPECT_GE(received, 16 * 1024u);
}

TEST(TcpState, RstOnSegmentToClosedPort) {
  TwoStacks ts;
  // UDP-free direct probe: a SYN to a port nobody listens on gets RST
  // (exercised via connect + refused above); here verify stray data
  // segments also draw RST without crashing the stack.
  const Conn c = establish(ts, 5201);
  auto buf = ts.heap_a().alloc_view(64);
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, buf, 8) == 8; });
  // Close B's socket under A's feet, then keep writing: A eventually gets
  // reset.
  auto dst = ts.heap_b().alloc_view(64);
  ts.pump_until([&] { return ff_read(ts.b(), c.bfd, dst, 64) == 8; });
  ff_close(ts.b(), c.bfd);
  ff_close(ts.b(), c.listen_fd);
  std::int64_t r = 0;
  ts.pump_until(
      [&] {
        r = ff_write(ts.a(), c.afd, buf, 64);
        return r < 0 && r != -EAGAIN;
      },
      3'000'000);
  EXPECT_TRUE(r == -ECONNRESET || r == -EPIPE || r == -ETIMEDOUT) << r;
}

TEST(TcpOptionsNegotiation, MssAndWindowScaleApply) {
  TcpConfig tcp;
  tcp.mss = 1000;
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const Conn c = establish(ts, 5201);
  auto buf = ts.heap_a().alloc_view(4096);
  ts.pump_until([&] { return ff_write(ts.a(), c.afd, buf, 4096) > 0; });
  const TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  EXPECT_EQ(pcb->mss_eff(), 1000);
  EXPECT_GT(pcb->cwnd(), 0u);
  (void)c;
}

TEST(TcpIcmp, PingRoundTrip) {
  TwoStacks ts;
  ts.a().send_ping(ts.ip_b(), 77, 1, 56);
  ts.pump_until([&] { return ts.a().pings().replies(77, 1) == 1; });
  EXPECT_EQ(ts.a().pings().replies(77, 1), 1u);
  ts.a().send_ping(ts.ip_b(), 77, 2, 1400);
  ts.pump_until([&] { return ts.a().pings().replies(77, 2) == 1; });
  EXPECT_EQ(ts.a().pings().total(), 2u);
}

TEST(TcpTimers, RetransmissionTimeoutRecoversFromBlackout) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  // Blackout: drop everything for a window of frame indices (both ways).
  std::atomic<bool> blackout{true};
  ts.wire().set_loss([&blackout](int, std::uint64_t) {
    return blackout.load(std::memory_order_relaxed);
  });
  auto src = ts.heap_a().alloc_view(2048);
  std::int64_t w = 0;
  ts.pump_until([&] {
    w = ff_write(ts.a(), c.afd, src, 1000);
    return w == 1000;
  });
  // Let exactly a couple of RTO backoffs elapse in the dark (staying well
  // under TcpPcb::kMaxRexmit), then heal the wire.
  const TcpPcb* sender = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !sender; ++p) {
    sender = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(sender, nullptr);
  ts.pump_until([&] { return sender->counters().rexmits >= 2; }, 500'000);
  blackout = false;
  auto dst = ts.heap_b().alloc_view(2048);
  std::int64_t r = 0;
  const bool ok = ts.pump_until(
      [&] {
        r = ff_read(ts.b(), c.bfd, dst, 2048);
        return r == 1000;
      },
      2'000'000);
  EXPECT_TRUE(ok);
  const TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  EXPECT_GE(pcb->counters().rexmits, 1u);
}
