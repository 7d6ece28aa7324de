// Ring-native control plane (API v5): OP_CONNECT deferred-verdict CQEs,
// OP_CLOSE / OP_EPOLL_CTL immediate verdicts, the reserved multishot-accept
// argument, ring arms and readiness that end with their fd, SYN-backlog
// hardening, and the churn-teardown leak gate (PCBs, wheel timers and pool
// buffers must return to baseline across connect/transfer/close cycles).
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "fstack/uring.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::AttachedRing;
using cherinet::test::attach_ring;
using cherinet::test::TwoStacks;
using cherinet::test::ZcRxRing;

namespace {

/// Pop CQEs until one matching `user_data` appears (pumping both stacks).
/// Non-matching CQEs are appended to `others` if given.
bool await_cqe(TwoStacks& ts, AttachedRing& ar, std::uint64_t user_data,
               FfUringCqe& out, std::vector<FfUringCqe>* others = nullptr) {
  bool found = false;
  ts.pump_until([&] {
    FfUringCqe cq[8];
    const std::size_t n = ar.ring.cq_pop(cq);
    for (std::size_t i = 0; i < n; ++i) {
      if (cq[i].user_data == user_data) {
        out = cq[i];
        found = true;
      } else if (others != nullptr) {
        others->push_back(cq[i]);
      }
    }
    return found;
  });
  return found;
}

}  // namespace

// ---------------------------------------------------------------------------
// OP_CONNECT
// ---------------------------------------------------------------------------

TEST(UringCtl, ConnectResolvesThroughTheRingWhenEstablished) {
  TwoStacks ts;
  // Listener on B; A connects to it purely through the ring.
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5301});
  ff_listen(ts.b(), lfd, 4);

  AttachedRing ar = attach_ring(ts, 8, 8);
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  FfUringSqe sqe;
  sqe.op = UringOp::kConnect;
  sqe.fd = fd;
  sqe.user_data = 71;
  sqe.a[0] = uring_pack_addr({ts.ip_b(), 5301});
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);

  // The verdict CQE must not appear until the handshake RESOLVES (no
  // -EINPROGRESS intermediate): when it arrives, the fd is usable.
  FfUringCqe cqe;
  ASSERT_TRUE(await_cqe(ts, ar, 71, cqe));
  EXPECT_EQ(cqe.op, UringOp::kConnect);
  EXPECT_EQ(cqe.result, 0);
  EXPECT_EQ(cqe.aux0, static_cast<std::uint64_t>(fd));

  // Data flows immediately — the CQE really did mean ESTABLISHED.
  machine::CapView tx = ts.heap_a().alloc_view(64);
  EXPECT_EQ(ff_write(ts.a(), fd, tx, 64), 64);
  EXPECT_EQ(ff_close(ts.a(), fd), 0);
}

TEST(UringCtl, ConnectToClosedPortYieldsRefusalCqe) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  FfUringSqe sqe;
  sqe.op = UringOp::kConnect;
  sqe.fd = fd;
  sqe.user_data = 72;
  sqe.a[0] = uring_pack_addr({ts.ip_b(), 5302});  // nobody listening
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);

  FfUringCqe cqe;
  ASSERT_TRUE(await_cqe(ts, ar, 72, cqe));
  EXPECT_EQ(cqe.op, UringOp::kConnect);
  EXPECT_EQ(cqe.result, -ECONNREFUSED);
  EXPECT_EQ(cqe.aux0, static_cast<std::uint64_t>(fd));
  ff_close(ts.a(), fd);
}

TEST(UringCtl, ConnectOnBadFdFailsInline) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 8);
  FfUringSqe sqe;
  sqe.op = UringOp::kConnect;
  sqe.fd = 999;
  sqe.user_data = 73;
  sqe.a[0] = uring_pack_addr({ts.ip_b(), 5303});
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();
  FfUringCqe cq[2];
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 73u);
  EXPECT_EQ(cq[0].result, -EBADF);
}

// ---------------------------------------------------------------------------
// OP_CLOSE / OP_EPOLL_CTL
// ---------------------------------------------------------------------------

TEST(UringCtl, CloseThroughRingWithInflightZcLoanStaysRecyclable) {
  TwoStacks ts;
  // B connects to A and sends a segment A receives as a zc loan.
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5304});
  ff_listen(ts.a(), lfd, 4);
  const int bfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_connect(ts.b(), bfd, {ts.ip_a(), 5304});
  int afd = -1;
  ts.pump_until([&] {
    afd = ff_accept(ts.a(), lfd, nullptr);
    return afd >= 0;
  });
  ASSERT_GE(afd, 0);
  machine::CapView tx = ts.heap_b().alloc_view(512);
  ASSERT_EQ(ff_write(ts.b(), bfd, tx, 512), 512);

  ZcRxRing rx(ts);
  FfZcRxBuf loan;
  ts.pump_until([&] { return rx.recv(afd, {&loan, 1}) == 1; });
  ASSERT_NE(loan.token, 0u);

  // Close the connection through the ring while the loan is still out.
  AttachedRing ar = attach_ring(ts, 8, 8);
  FfUringSqe sqe;
  sqe.op = UringOp::kClose;
  sqe.fd = afd;
  sqe.user_data = 81;
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();
  FfUringCqe cq[2];
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 81u);
  EXPECT_EQ(cq[0].op, UringOp::kClose);
  EXPECT_EQ(cq[0].result, 0);
  EXPECT_EQ(cq[0].aux0, static_cast<std::uint64_t>(afd));

  // The fd is gone...
  EXPECT_EQ(ff_close(ts.a(), afd), -EBADF);
  // ...but the loan token survives the connection: exactly one recycle
  // succeeds (pure pool return — the PCB budget pointer was nulled), and a
  // replay is rejected.
  EXPECT_EQ(rx.recycle(loan), 1);
  EXPECT_EQ(rx.recycle(loan), -EINVAL);
  ff_close(ts.b(), bfd);
}

TEST(UringCtl, EpollCtlThroughRingAddsAndValidates) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int epfd = ff_epoll_create(ts.a());
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);

  FfUringSqe add;
  add.op = UringOp::kEpollCtl;
  add.fd = epfd;
  add.user_data = 91;
  add.a[0] = static_cast<std::uint64_t>(EpollOp::kAdd);
  add.a[1] = static_cast<std::uint64_t>(fd);
  add.a[2] = kEpollIn;
  add.a[3] = 0xFEED;
  ASSERT_NE(ar.ring.sq_push(add), FfUring::Push::kFull);

  FfUringSqe bad;
  bad.op = UringOp::kEpollCtl;
  bad.fd = epfd;
  bad.user_data = 92;
  bad.a[0] = 77;  // not an EpollOp
  bad.a[1] = static_cast<std::uint64_t>(fd);
  ASSERT_NE(ar.ring.sq_push(bad), FfUring::Push::kFull);

  ts.a().run_once();
  FfUringCqe cq[4];
  ASSERT_EQ(ar.ring.cq_pop(cq), 2u);
  EXPECT_EQ(cq[0].user_data, 91u);
  EXPECT_EQ(cq[0].result, 0);
  EXPECT_EQ(cq[1].user_data, 92u);
  EXPECT_EQ(cq[1].result, -EINVAL);
  ff_close(ts.a(), fd);
}

// ---------------------------------------------------------------------------
// OP_ACCEPT_MULTISHOT's a0 is reserved (it was the v12 auto-arm bit)
// ---------------------------------------------------------------------------

TEST(UringCtl, AcceptMultishotWithNonzeroA0IsEinvalAndArmsNothing) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5305});
  ff_listen(ts.a(), lfd, 4);

  AttachedRing ar = attach_ring(ts, 8, 8);
  FfUringSqe arm;
  arm.op = UringOp::kAcceptMultishot;
  arm.fd = lfd;
  arm.user_data = 11;
  arm.a[0] = 1;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  ts.a().run_once();
  FfUringCqe cq[8];
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 11u);
  EXPECT_EQ(cq[0].result, -EINVAL);
  EXPECT_EQ(ts.a().api_stats().uring_sqe_errors, 1u);

  // No arm was registered: the connection waits for a classic accept and
  // the ring never hears of it.
  const int bfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_connect(ts.b(), bfd, {ts.ip_a(), 5305});
  int afd = -1;
  ts.pump_until([&] { return (afd = ff_accept(ts.a(), lfd, nullptr)) >= 0; });
  EXPECT_GE(afd, 0);
  EXPECT_EQ(ar.ring.cq_pop(cq), 0u);
  ff_close(ts.b(), bfd);
  ff_close(ts.a(), afd);
}

// ---------------------------------------------------------------------------
// Ring arms and readiness end with their fd
// ---------------------------------------------------------------------------

namespace {

/// Every CQE the ring holds right now.
std::vector<FfUringCqe> drain_cqes(AttachedRing& ar) {
  std::vector<FfUringCqe> out;
  FfUringCqe cq[8];
  for (std::size_t n = ar.ring.cq_pop(cq); n > 0; n = ar.ring.cq_pop(cq)) {
    out.insert(out.end(), cq, cq + n);
  }
  return out;
}

FfUringSqe accept_arm(int lfd, std::uint64_t user_data) {
  FfUringSqe arm;
  arm.op = UringOp::kAcceptMultishot;
  arm.fd = lfd;
  arm.user_data = user_data;
  return arm;
}

/// B connects to A's `port`; pumps until the handshake completes on B.
int connect_from_b(TwoStacks& ts, std::uint16_t port) {
  const int bfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_connect(ts.b(), bfd, {ts.ip_a(), port}), -EINPROGRESS);
  ts.pump_until([&] { return ts.b().sockets().get(bfd)->pcb->connected(); });
  return bfd;
}

}  // namespace

TEST(UringCtl, ClosedListenersAcceptArmDoesNotFollowItsFdNumber) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int old_lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), old_lfd, {Ipv4Addr{}, 5306});
  ff_listen(ts.a(), old_lfd, 4);
  ASSERT_NE(ar.ring.sq_push(accept_arm(old_lfd, 41)), FfUring::Push::kFull);
  ts.a().run_once();
  EXPECT_TRUE(drain_cqes(ar).empty());  // multishot: no ack CQE
  ASSERT_EQ(ff_close(ts.a(), old_lfd), 0);

  // A new listener takes the same fd number; its connections are accepted
  // the classic way, and the dead arm must not claim them.
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(lfd, old_lfd);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5307});
  ff_listen(ts.a(), lfd, 4);
  const int bfd = connect_from_b(ts, 5307);
  int afd = -1;
  ts.pump_until([&] { return (afd = ff_accept(ts.a(), lfd, nullptr)) >= 0; });
  EXPECT_GE(afd, 0);
  ts.pump(50);
  for (const FfUringCqe& c : drain_cqes(ar)) EXPECT_NE(c.user_data, 41u);
  ff_close(ts.b(), bfd);
  ff_close(ts.a(), afd);
}

TEST(UringCtl, RearmedListenerPostsEachAcceptOnceUnderTheNewArm) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5308});
  ff_listen(ts.a(), lfd, 4);
  ASSERT_NE(ar.ring.sq_push(accept_arm(lfd, 51)), FfUring::Push::kFull);
  ASSERT_NE(ar.ring.sq_push(accept_arm(lfd, 52)), FfUring::Push::kFull);
  ts.a().run_once();

  const int b1 = connect_from_b(ts, 5308);
  const int b2 = connect_from_b(ts, 5308);
  ts.pump(50);
  const std::vector<FfUringCqe> cqes = drain_cqes(ar);
  ASSERT_EQ(cqes.size(), 2u);
  for (const FfUringCqe& c : cqes) {
    EXPECT_EQ(c.op, UringOp::kAcceptMultishot);
    EXPECT_EQ(c.user_data, 52u);
    EXPECT_GE(c.result, 0);  // the accepted fd
  }
  EXPECT_NE(cqes[0].result, cqes[1].result);
  ff_close(ts.b(), b1);
  ff_close(ts.b(), b2);
}

TEST(UringCtl, ClosingAConnectingFdPostsNoVerdict) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5309});
  ff_listen(ts.b(), lfd, 4);
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  FfUringSqe sqe;
  sqe.op = UringOp::kConnect;
  sqe.fd = fd;
  sqe.user_data = 61;
  sqe.a[0] = uring_pack_addr({ts.ip_b(), 5309});
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();  // SYN out, the arm waits for the handshake
  ASSERT_EQ(ts.a().sockets().get(fd)->pcb->state(), TcpState::kSynSent);
  ASSERT_EQ(ff_close(ts.a(), fd), 0);

  // Let the SYN-ACK arrive, the retransmission timers run out and the fd
  // number come back: the closed connect never posts a verdict.
  const sim::Ns until = ts.clock().now() + sim::Ns{5'000'000'000};
  ts.pump_until([&] { return ts.clock().now() >= until; });
  const int reused = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(reused, fd);
  ts.pump(50);
  EXPECT_TRUE(drain_cqes(ar).empty());
  ff_close(ts.a(), reused);
}

TEST(UringCtl, ListenOnAConnectingFdIsRefusedAndTheConnectStillResolves) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5310});
  ff_listen(ts.b(), lfd, 4);
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  FfUringSqe sqe;
  sqe.op = UringOp::kConnect;
  sqe.fd = fd;
  sqe.user_data = 71;
  sqe.a[0] = uring_pack_addr({ts.ip_b(), 5310});
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();
  const TcpPcb* pcb = ts.a().sockets().get(fd)->pcb;
  ASSERT_EQ(pcb->state(), TcpState::kSynSent);

  // The connect's ephemeral bind makes the fd look bound; listen must not
  // swap a listener PCB in under the armed connect.
  EXPECT_EQ(ff_listen(ts.a(), fd, 4), -EINVAL);
  EXPECT_EQ(ts.a().sockets().get(fd)->pcb, pcb);
  FfUringCqe ev;
  ASSERT_TRUE(await_cqe(ts, ar, 71, ev));
  EXPECT_EQ(ev.op, UringOp::kConnect);
  EXPECT_EQ(ev.result, 0);
  EXPECT_EQ(ev.aux0, static_cast<std::uint64_t>(fd));
  ff_close(ts.a(), fd);
}

TEST(UringCtl, UdpFdInAnArmedEpollSetReportsReadable) {
  TwoStacks ts;
  const int ufd = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.a(), ufd, {Ipv4Addr{}, 6010}), 0);
  const int ep = ff_epoll_create(ts.a());
  ASSERT_EQ(ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, ufd, kEpollIn, 0xD6), 0);
  AttachedRing ar = attach_ring(ts, 8, 8);
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  arm.user_data = 81;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  ts.a().run_once();
  EXPECT_TRUE(drain_cqes(ar).empty());  // nothing queued yet

  const int sender = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  machine::CapView msg = ts.heap_b().alloc_view(32);
  ASSERT_EQ(ff_sendto(ts.b(), sender, msg, 32, {ts.ip_a(), 6010}), 32);
  FfUringCqe ev;
  ASSERT_TRUE(await_cqe(ts, ar, 81, ev));
  EXPECT_EQ(ev.op, UringOp::kEpollArm);
  EXPECT_NE(ev.result & kEpollIn, 0);
  EXPECT_EQ(ev.aux0, 0xD6u);
  ff_close(ts.b(), sender);
  ff_close(ts.a(), ufd);
}

// ---------------------------------------------------------------------------
// SYN backlog hardening
// ---------------------------------------------------------------------------

TEST(SynBacklog, BurstBeyondBacklogDropsAndCounts) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5306});
  ff_listen(ts.a(), lfd, 2);  // embryonic bound: 2

  // Fire 8 SYNs before the listener's stack runs at all: they arrive as
  // one RX burst, so at most `backlog` embryonic PCBs may spawn and the
  // surplus must be DROPPED (counted), not queued without bound.
  constexpr int kSyns = 8;
  int bfd[kSyns];
  for (int& fd : bfd) {
    fd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
    ASSERT_EQ(ff_connect(ts.b(), fd, {ts.ip_a(), 5306}), -EINPROGRESS);
  }
  ts.b().run_once();  // B emits the SYN burst
  const TcpPcb* listener = ts.a().find_listener(5306);
  ASSERT_NE(listener, nullptr);
  // The burst lands as one RX sweep: at most 2 embryonic PCBs spawn; the
  // 6 surplus SYNs (and any retransmits against a full accept queue) are
  // dropped and counted.
  ASSERT_TRUE(ts.pump_until(
      [&] { return listener->syn_backlog_drops >= 6; }));
  EXPECT_LE(listener->syn_backlog, 2);

  // The dropped SYNs retransmit; accepting as we go, every connection
  // eventually lands — overflow is deferral, not denial.
  int accepted = 0;
  ts.pump_until([&] {
    while (ff_accept(ts.a(), lfd, nullptr) >= 0) ++accepted;
    return accepted == kSyns;
  });
  EXPECT_EQ(accepted, kSyns);
  for (const int fd : bfd) ff_close(ts.b(), fd);
}

// ---------------------------------------------------------------------------
// Churn teardown: nothing may survive a connection's lifecycle
// ---------------------------------------------------------------------------

TEST(Churn, TeardownReleasesPcbsWheelTimersAndBuffers) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5307});
  ff_listen(ts.a(), lfd, 8);

  // Baselines AFTER one warm-up cycle (ARP resolution, first-allocation
  // effects), so the loop below must be exactly steady-state.
  const auto cycle = [&] {
    const int bfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
    ff_connect(ts.b(), bfd, {ts.ip_a(), 5307});
    int afd = -1;
    ts.pump_until([&] {
      afd = ff_accept(ts.a(), lfd, nullptr);
      return afd >= 0;
    });
    ASSERT_GE(afd, 0);
    machine::CapView tx = ts.heap_b().alloc_view(1024);
    ASSERT_EQ(ff_write(ts.b(), bfd, tx, 1024), 1024);
    machine::CapView rx = ts.heap_a().alloc_view(1024);
    std::size_t got = 0;
    ts.pump_until([&] {
      const std::int64_t r = ff_read(ts.a(), afd, rx, 1024);
      if (r > 0) got += static_cast<std::size_t>(r);
      return got == 1024;
    });
    ASSERT_EQ(ff_close(ts.b(), bfd), 0);
    ts.pump_until([&] {  // A sees FIN -> EOF
      return ff_read(ts.a(), afd, rx, 1024) == 0;
    });
    ASSERT_EQ(ff_close(ts.a(), afd), 0);
    // Drain the close handshake AND the TIME_WAIT hold-down: reap is
    // complete when both stacks are back to the listener alone.
    ts.pump_until([&] {
      return ts.a().tcp_pcb_count() == 1 && ts.b().tcp_pcb_count() == 0;
    });
  };

  cycle();
  const std::size_t pcb_a = ts.a().tcp_pcb_count();
  const std::size_t pcb_b = ts.b().tcp_pcb_count();
  const std::size_t wheel_a = ts.a().timer_wheel().size();
  const std::uint32_t pool_a = ts.pool_a().available();
  const std::uint32_t pool_b = ts.pool_b().available();

  for (int i = 0; i < 32; ++i) cycle();

  // Steady state: no PCB growth, no armed-timer growth, no buffer leak.
  EXPECT_EQ(ts.a().tcp_pcb_count(), pcb_a);
  EXPECT_EQ(ts.b().tcp_pcb_count(), pcb_b);
  EXPECT_LE(ts.a().timer_wheel().size(), wheel_a + 1);  // +1: ARP sentinel
  EXPECT_EQ(ts.pool_a().available(), pool_a);
  EXPECT_EQ(ts.pool_b().available(), pool_b);
  // The wheel actually carried the churn: timers were armed on both sides
  // and B's TIME_WAIT hold-downs (it closed first every cycle) FIRED.
  EXPECT_GT(ts.a().timer_wheel().stats().armed, 0u);
  EXPECT_GT(ts.b().timer_wheel().stats().fired, 0u);
}
