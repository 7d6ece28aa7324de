// API v9 multi-tenant accounting: per-tenant quotas fail softly and to the
// offender only; weighted SQE drain; bounded deferred-CQE state; and
// tenant eviction as TOTAL reclamation — PCBs, wheel timers, loans, zc
// reservations and pool buffers all return to baseline (the churn leak-gate
// discipline of test_uring_ctl applied to a hostile tenant).
#include <gtest/gtest.h>

#include <cerrno>
#include <optional>
#include <vector>

#include "apps/ff_ops.hpp"
#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "fstack/uring.hpp"
#include "scenarios/adversary.hpp"
#include "scenarios/scenario3.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::AttachedRing;
using cherinet::test::attach_ring;
using cherinet::test::TwoStacks;
using cherinet::test::ZcRxRing;
using cherinet::test::ZcTxRing;

namespace {

/// Establish B -> A:port; returns {accepted fd on A, client fd on B}.
struct Conn {
  int afd = -1;
  int bfd = -1;
};
Conn establish(TwoStacks& ts, int lfd, std::uint16_t port) {
  Conn c;
  c.bfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_connect(ts.b(), c.bfd, {ts.ip_a(), port});
  ts.pump_until([&] {
    c.afd = ff_accept(ts.a(), lfd, nullptr);
    return c.afd >= 0;
  });
  EXPECT_GE(c.afd, 0);
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Quota caps: every rejection is soft, per-cause, and offender-only
// ---------------------------------------------------------------------------

TEST(Tenants, SocketQuotaRejectsWithEmfileAndCreditsOnClose) {
  TwoStacks ts;
  TenantQuota q;
  q.max_sockets = 2;
  const int t = ff_tenant_register(ts.a(), "t", q);
  ASSERT_GE(t, 1);

  const int fd1 = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  const int fd2 = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  const int fd3 = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_set_tenant(ts.a(), fd1, t), 0);
  EXPECT_EQ(ff_set_tenant(ts.a(), fd2, t), 0);
  EXPECT_EQ(ff_set_tenant(ts.a(), fd3, t), -EMFILE);

  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->sockets, 2u);
  EXPECT_EQ(st->socket_cap_rejects, 1u);

  // The quota is a gauge, not a ratchet: closing frees the slot.
  EXPECT_EQ(ff_close(ts.a(), fd1), 0);
  EXPECT_EQ(st->sockets, 1u);
  EXPECT_EQ(ff_set_tenant(ts.a(), fd3, t), 0);
  ff_close(ts.a(), fd2);
  ff_close(ts.a(), fd3);
  EXPECT_EQ(st->sockets, 0u);
}

TEST(Tenants, AcceptedChildrenInheritTheListenersTenantAndItsQuota) {
  TwoStacks ts;
  TenantQuota q;
  q.max_sockets = 2;  // the listener itself + ONE accepted child
  const int t = ff_tenant_register(ts.a(), "t", q);

  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), lfd, t), 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5601});
  ff_listen(ts.a(), lfd, 4);

  const Conn c1 = establish(ts, lfd, 5601);
  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_EQ(st->sockets, 2u);  // listener + child billed to the tenant

  // A second handshake completes on the wire, but the accept boundary is
  // where the tenant's socket gauge is charged — and it is full.
  const int bfd2 = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_connect(ts.b(), bfd2, {ts.ip_a(), 5601});
  int afd2 = -1;
  ts.pump_until([&] {
    afd2 = ff_accept(ts.a(), lfd, nullptr);
    return afd2 != -EAGAIN;
  });
  EXPECT_EQ(afd2, -EMFILE);
  EXPECT_GE(st->socket_cap_rejects, 1u);

  // The neighbour keeps its SLO: an UNtenanted listener accepts freely.
  ff_close(ts.a(), c1.afd);
  ff_close(ts.b(), c1.bfd);
  ff_close(ts.b(), bfd2);
}

TEST(Tenants, ZcReservationQuotaBoundsRingAllocs) {
  TwoStacks ts;
  TenantQuota q;
  q.max_zc_reservations = 2;
  const int t = ff_tenant_register(ts.a(), "t", q);

  AttachedRing ar = attach_ring(ts, 8, 16);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), ar.id, t), 0);

  FfUringSqe sqe;
  sqe.op = UringOp::kZcAlloc;
  sqe.user_data = 1;
  sqe.a[0] = 4;    // ask for 4 reservations...
  sqe.a[1] = 256;  // ...of 256 bytes each
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();

  FfUringCqe cq[8];
  const std::size_t n = ar.ring.cq_pop(cq);
  std::vector<std::uint64_t> tokens;
  for (std::size_t i = 0; i < n; ++i) {
    if (cq[i].result >= 0) tokens.push_back(cq[i].aux0);
  }
  EXPECT_EQ(tokens.size(), 2u);  // ...quota grants exactly 2

  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_EQ(st->zc_reservations, 2u);
  EXPECT_EQ(st->pool_charged, 2u);
  EXPECT_GE(st->zc_cap_rejects, 1u);

  // A further submission fails softly (-ENOBUFS to this tenant only).
  sqe.user_data = 2;
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();
  const std::size_t n2 = ar.ring.cq_pop(cq);
  ASSERT_GE(n2, 1u);
  EXPECT_EQ(cq[0].result, -ENOBUFS);
  EXPECT_GE(st->sqe_errors, 1u);

  // Aborting credits the gauge back.
  for (const std::uint64_t tok : tokens) {
    FfUringSqe abort;
    abort.op = UringOp::kZcAbort;
    abort.a[0] = tok;
    ASSERT_NE(ar.ring.sq_push(abort), FfUring::Push::kFull);
  }
  ts.a().run_once();
  ASSERT_EQ(ar.ring.cq_pop(cq), tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(cq[i].result, 0);
  }
  EXPECT_EQ(st->zc_reservations, 0u);
  EXPECT_EQ(st->pool_charged, 0u);
}

TEST(Tenants, SharedPoolBudgetCutsAcrossCauses) {
  TwoStacks ts;
  TenantQuota q;
  q.max_pool_mbufs = 1;  // ONE data room, whatever pins it
  const int t = ff_tenant_register(ts.a(), "t", q);

  AttachedRing ar = attach_ring(ts, 8, 16);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), ar.id, t), 0);

  FfUringSqe sqe;
  sqe.op = UringOp::kZcAlloc;
  sqe.user_data = 1;
  sqe.a[0] = 2;
  sqe.a[1] = 128;
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();

  FfUringCqe cq[4];
  const std::size_t n = ar.ring.cq_pop(cq);
  std::size_t granted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cq[i].result >= 0) ++granted;
  }
  EXPECT_EQ(granted, 1u);  // the second reservation hit the POOL budget
  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_EQ(st->pool_charged, 1u);
  EXPECT_GE(st->pool_budget_rejects, 1u);
}

TEST(Tenants, LoanQuotaBoundsOutstandingZcRxLoans) {
  TwoStacks ts;
  TenantQuota q;
  q.max_loans = 1;
  const int t = ff_tenant_register(ts.a(), "t", q);

  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), lfd, t), 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5602});
  ff_listen(ts.a(), lfd, 4);
  const Conn c = establish(ts, lfd, 5602);

  // Two separate segments => two loanable slices on A's receive queue.
  machine::CapView tx = ts.heap_b().alloc_view(512);
  ASSERT_EQ(ff_write(ts.b(), c.bfd, tx, 512), 512);
  ts.pump(2000);
  ASSERT_EQ(ff_write(ts.b(), c.bfd, tx, 512), 512);

  ZcRxRing rx(ts, t);
  FfZcRxBuf loans[4];
  std::int64_t got = 0;
  ts.pump_until([&] {
    got = rx.recv(c.afd, loans);
    return got != 0 && got != -EAGAIN;
  });
  // The quota caps the OUTSTANDING count at 1 even though more data waits.
  ASSERT_EQ(got, 1);
  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_EQ(st->loans_outstanding, 1u);

  // More data waits on the receive queue, but the cap is on OUTSTANDING
  // loans: the next harvest answers -ENOBUFS until a recycle credits it.
  std::int64_t more = 0;
  ts.pump_until([&] {
    more = rx.recv(c.afd, {loans + 1, 3});
    return more == -ENOBUFS;
  });
  EXPECT_EQ(more, -ENOBUFS);
  EXPECT_GE(st->loan_cap_rejects, 1u);

  // Recycling credits the gauge; the NEXT loan is granted.
  EXPECT_EQ(rx.recycle(loans[0]), 1);
  EXPECT_EQ(st->loans_outstanding, 0u);
  ts.pump_until([&] { return rx.recv(c.afd, {loans + 1, 1}) == 1; });
  EXPECT_EQ(st->loans_outstanding, 1u);
  EXPECT_EQ(rx.recycle(loans[1]), 1);
  ff_close(ts.a(), c.afd);
  ff_close(ts.b(), c.bfd);
}

TEST(Tenants, CrossTenantZcTokenIsInertEinval) {
  TwoStacks ts;
  const int ta = ff_tenant_register(ts.a(), "a", TenantQuota{});
  const int tb = ff_tenant_register(ts.a(), "b", TenantQuota{});

  // Tenant A earns a real zc TX token through its ring.
  AttachedRing ra = attach_ring(ts, 8, 16);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), ra.id, ta), 0);
  FfUringSqe sqe;
  sqe.op = UringOp::kZcAlloc;
  sqe.user_data = 1;
  sqe.a[0] = 1;
  sqe.a[1] = 128;
  ASSERT_NE(ra.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();
  FfUringCqe cq[2];
  ASSERT_EQ(ra.ring.cq_pop(cq), 1u);
  ASSERT_GE(cq[0].result, 0);
  const std::uint64_t token = cq[0].aux0;

  // Tenant B replays A's token through ITS ring, as a send and as an
  // abort: -EINVAL each time, and the reservation is untouched (the replay
  // is INERT — no state mutates).
  AttachedRing rb = attach_ring(ts, 8, 16);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), rb.id, tb), 0);
  const int bfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  FfUringSqe steal;
  steal.op = UringOp::kZcSend;
  steal.fd = bfd;
  steal.user_data = 2;
  steal.a[0] = token;
  steal.a[1] = 64;
  FfUringSqe abort;
  abort.op = UringOp::kZcAbort;
  abort.user_data = 3;
  abort.a[0] = token;
  const std::uint32_t pool_held = ts.pool_a().available();
  ASSERT_NE(rb.ring.sq_push(steal), FfUring::Push::kFull);
  ASSERT_NE(rb.ring.sq_push(abort), FfUring::Push::kFull);
  ts.a().run_once();
  ASSERT_EQ(rb.ring.cq_pop(cq), 2u);
  EXPECT_EQ(cq[0].result, -EINVAL);
  EXPECT_EQ(cq[1].result, -EINVAL);

  const TenantStats* sta = ff_tenant_stats(ts.a(), ta);
  const TenantStats* stb = ff_tenant_stats(ts.a(), tb);
  EXPECT_EQ(sta->zc_reservations, 1u);  // A still owns its reservation
  EXPECT_EQ(ts.pool_a().available(), pool_held);
  EXPECT_EQ(stb->sqe_errors, 2u);       // both failures billed to B
  EXPECT_EQ(sta->sqe_errors, 0u);

  // An untenanted ring is the control plane: its abort still finds the
  // reservation.
  ZcTxRing control(ts);
  EXPECT_EQ(control.abort(token), 0);
  EXPECT_EQ(sta->zc_reservations, 0u);
  EXPECT_EQ(ts.pool_a().available(), pool_held + 1);
  ff_close(ts.a(), bfd);
}

TEST(Tenants, NeighbourFdsAnswerEbadfAndTheOwnersStreamSurvives) {
  // Every fd-taking entry resolves the fd as the active tenant: tenant B
  // naming tenant A's listener, connection or epoll instance — through its
  // ring or through a call made in its scope — finds no fd at all.
  TwoStacks ts;
  const int ta = ff_tenant_register(ts.a(), "a", TenantQuota{});
  const int tb = ff_tenant_register(ts.a(), "b", TenantQuota{});
  constexpr std::uint16_t kPort = 5610;
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), lfd, ta), 0);
  ASSERT_EQ(ff_bind(ts.a(), lfd, {Ipv4Addr{}, kPort}), 0);
  ASSERT_EQ(ff_listen(ts.a(), lfd, 4), 0);
  const Conn c = establish(ts, lfd, kPort);
  const int epa = ff_epoll_create(ts.a());
  ASSERT_EQ(ff_set_tenant(ts.a(), epa, ta), 0);
  const int epb = ff_epoll_create(ts.a());
  ASSERT_EQ(ff_set_tenant(ts.a(), epb, tb), 0);

  AttachedRing rb = attach_ring(ts, 16, 16);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), rb.id, tb), 0);
  const machine::CapView junk = ts.heap_a().alloc_view(64);
  std::vector<FfUringSqe> attacks;
  FfUringSqe e;
  e.op = UringOp::kClose;
  e.fd = lfd;
  attacks.push_back(e);
  e.fd = c.afd;
  attacks.push_back(e);
  e = FfUringSqe{};
  e.op = UringOp::kWritev;
  e.fd = c.afd;
  e.ncaps = 1;
  e.caps[0] = junk;
  attacks.push_back(e);
  e = FfUringSqe{};
  e.op = UringOp::kEpollCtl;
  e.fd = epb;  // B's own instance, A's fd as the target
  e.a[0] = static_cast<std::uint64_t>(EpollOp::kAdd);
  e.a[1] = static_cast<std::uint64_t>(c.afd);
  e.a[2] = kEpollIn;
  attacks.push_back(e);
  e.fd = epa;  // A's instance
  e.a[1] = static_cast<std::uint64_t>(epb);
  attacks.push_back(e);
  e = FfUringSqe{};
  e.op = UringOp::kAcceptMultishot;
  e.fd = lfd;
  attacks.push_back(e);
  e.op = UringOp::kEpollArm;
  e.fd = epa;
  attacks.push_back(e);
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    attacks[i].user_data = i + 1;
    ASSERT_NE(rb.ring.sq_push(attacks[i]), FfUring::Push::kFull);
  }
  ts.a().run_once();
  FfUringCqe cq[16];
  ASSERT_EQ(rb.ring.cq_pop(cq), attacks.size());
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    EXPECT_EQ(cq[i].user_data, i + 1);
    EXPECT_EQ(cq[i].result, -EBADF) << "attack " << i + 1;
  }
  {
    const FfStack::TenantScope as_b(ts.a(), tb);
    EXPECT_EQ(ff_close(ts.a(), c.afd), -EBADF);
    EXPECT_EQ(ff_write(ts.a(), c.afd, junk, 64), -EBADF);
    EXPECT_EQ(ff_accept(ts.a(), lfd, nullptr), -EBADF);
    EXPECT_EQ(ff_set_tenant(ts.a(), c.afd, tb), -EBADF);
  }
  EXPECT_NE(ts.a().find_listener(kPort), nullptr);
  EXPECT_TRUE(ts.a().sockets().get(epa)->epoll->interest().empty());
  EXPECT_TRUE(ts.a().sockets().get(epb)->epoll->interest().empty());

  // A's connection is alive: a stream written as A arrives byte-identical.
  constexpr std::size_t kBytes = 8 * 1024;
  const machine::CapView tx = ts.heap_a().alloc_view(kBytes);
  for (std::size_t i = 0; i < kBytes; i += 8) {
    tx.store<std::uint64_t>(i, 0x5EED0000u + i);
  }
  const machine::CapView rx = ts.heap_b().alloc_view(kBytes);
  std::size_t sent = 0, got = 0;
  ts.pump_until([&] {
    if (sent < kBytes) {
      const FfStack::TenantScope as_a(ts.a(), ta);
      const std::int64_t w =
          ff_write(ts.a(), c.afd, tx.at(sent), kBytes - sent);
      if (w > 0) sent += static_cast<std::size_t>(w);
    }
    const std::int64_t r = ff_read(ts.b(), c.bfd, rx.at(got), kBytes - got);
    if (r > 0) got += static_cast<std::size_t>(r);
    return got == kBytes;
  });
  ASSERT_EQ(got, kBytes);
  for (std::size_t i = 0; i < kBytes; i += 8) {
    ASSERT_EQ(rx.load<std::uint64_t>(i), 0x5EED0000u + i) << "offset " << i;
  }
  ff_close(ts.a(), c.afd);
  ff_close(ts.b(), c.bfd);
}

// ---------------------------------------------------------------------------
// Weighted drain + deferred-CQE bounds
// ---------------------------------------------------------------------------

TEST(Tenants, DrainBudgetSplitsByWeightAndThrottlesTheFlooder) {
  TwoStacks ts;
  TenantQuota heavy;
  heavy.sq_drain_weight = 3;
  TenantQuota light;
  light.sq_drain_weight = 1;
  const int th = ff_tenant_register(ts.a(), "heavy", heavy);
  const int tl = ff_tenant_register(ts.a(), "light", light);

  AttachedRing rh = attach_ring(ts, 64, 128);
  AttachedRing rl = attach_ring(ts, 64, 128);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), rh.id, th), 0);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), rl.id, tl), 0);

  // Both tenants stuff their SQs far beyond one iteration's budget (64).
  FfUringSqe nop;
  nop.op = UringOp::kNop;
  for (std::uint32_t i = 0; i < 64; ++i) {
    nop.user_data = i;
    ASSERT_NE(rh.ring.sq_push(nop), FfUring::Push::kFull);
    ASSERT_NE(rl.ring.sq_push(nop), FfUring::Push::kFull);
  }
  ts.a().run_once();

  // DRR: heavy drained ~3x what light did this iteration, and both were
  // cut short by their share (throttled, not starved).
  FfUringCqe cq[128];
  const std::size_t done_h = rh.ring.cq_pop(cq);
  const std::size_t done_l = rl.ring.cq_pop(cq);
  EXPECT_GT(done_h, done_l);
  EXPECT_GT(done_l, 0u);  // the light tenant always gets its share
  const TenantStats* sth = ff_tenant_stats(ts.a(), th);
  const TenantStats* stl = ff_tenant_stats(ts.a(), tl);
  EXPECT_GE(sth->sq_drain_throttled + stl->sq_drain_throttled, 1u);

  // Nothing is lost: later iterations finish both queues.
  ts.pump(16);
  std::size_t total_h = done_h, total_l = done_l;
  total_h += rh.ring.cq_pop(cq);
  total_l += rl.ring.cq_pop(cq);
  EXPECT_EQ(total_h, 64u);
  EXPECT_EQ(total_l, 64u);
}

TEST(Tenants, UnreapedCqEvictsRederivableArmsAfterStallCap) {
  TwoStacks ts;
  TenantQuota q;
  q.max_cq_stall_rounds = 3;
  const int t = ff_tenant_register(ts.a(), "noreap", q);

  AttachedRing ar = attach_ring(ts, 16, 8);  // tiny CQ, easy to fill
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), ar.id, t), 0);

  // Arm a multishot accept (the re-derivable state), then fill the CQ
  // with NOPs and never reap.
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), lfd, t), 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5603});
  ff_listen(ts.a(), lfd, 4);
  FfUringSqe arm;
  arm.op = UringOp::kAcceptMultishot;
  arm.fd = lfd;
  arm.user_data = 0xACCE55;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  ts.a().run_once();

  FfUringSqe nop;
  nop.op = UringOp::kNop;
  for (std::uint32_t i = 0; i < 12; ++i) {
    nop.user_data = i;
    ar.ring.sq_push(nop);
  }
  // Drain passes: 8 NOPs fill the CQ; the remaining 4 defer round after
  // round until the stall cap trips and the accept arm is evicted. (Direct
  // run_once calls: pump() parks early once nothing makes progress.)
  for (int i = 0; i < 8; ++i) ts.a().run_once();

  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_GE(st->cq_deferrals, 3u);
  EXPECT_GE(st->cq_deferral_evictions, 1u);

  // The arm really is gone: a connection completes its handshake but no
  // accept CQE can ever appear — after reaping, classic accept claims it.
  FfUringCqe cq[16];
  (void)ar.ring.cq_pop(cq);
  const Conn c = establish(ts, lfd, 5603);
  const std::size_t late = ar.ring.cq_pop(cq);
  for (std::size_t i = 0; i < late; ++i) {
    // Queued NOP completions may still land; no accept CQE may.
    EXPECT_NE(cq[i].op, UringOp::kAcceptMultishot);
  }
  ff_close(ts.a(), c.afd);
  ff_close(ts.b(), c.bfd);
}

// ---------------------------------------------------------------------------
// Eviction under churn: total reclamation, exact baselines
// ---------------------------------------------------------------------------

TEST(Tenants, EvictionMidHandshakeRestoresBaselines) {
  TwoStacks ts;
  const int t = ff_tenant_register(ts.a(), "t", TenantQuota{});

  const std::size_t pcb0 = ts.a().tcp_pcb_count();
  const std::size_t wheel0 = ts.a().timer_wheel().size();
  const std::uint32_t pool0 = ts.pool_a().available();

  // SYN in flight (nobody listens on B: the handshake can only retransmit)
  // when the eviction lands.
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), fd, t), 0);
  ASSERT_EQ(ff_connect(ts.a(), fd, {ts.ip_b(), 5604}), -EINPROGRESS);
  ts.a().run_once();  // emit the SYN

  EXPECT_EQ(ff_tenant_evict(ts.a(), t), 0);
  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_EQ(st->sockets, 0u);
  EXPECT_EQ(st->pool_charged, 0u);
  EXPECT_EQ(st->evictions, 1u);
  EXPECT_EQ(ff_close(ts.a(), fd), -EBADF);  // the fd died with the tenant

  // The wire settles (B RSTs the orphan SYN) and every count returns.
  ts.pump(4000);
  EXPECT_EQ(ts.a().tcp_pcb_count(), pcb0);
  EXPECT_LE(ts.a().timer_wheel().size(), wheel0 + 1);  // +1: ARP sentinel
  EXPECT_EQ(ts.pool_a().available(), pool0);
}

TEST(Tenants, EvictionWithLoansAndLiveConnectionReclaimsEverything) {
  TwoStacks ts;
  const int t = ff_tenant_register(ts.a(), "t", TenantQuota{});

  const std::size_t pcb0 = ts.a().tcp_pcb_count();
  const std::uint32_t pool0 = ts.pool_a().available();

  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), lfd, t), 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5605});
  ff_listen(ts.a(), lfd, 4);
  const Conn c = establish(ts, lfd, 5605);

  // Two loans outstanding mid-burst when the tenant is evicted.
  machine::CapView tx = ts.heap_b().alloc_view(512);
  ASSERT_EQ(ff_write(ts.b(), c.bfd, tx, 512), 512);
  ts.pump(2000);
  ASSERT_EQ(ff_write(ts.b(), c.bfd, tx, 512), 512);
  // An untenanted ring (the control plane's) survives the eviction, which
  // detaches the tenant's own rings; the loans still bill the socket's
  // tenant.
  ZcRxRing rx(ts);
  FfZcRxBuf loans[2];
  std::int64_t got = 0;
  ts.pump_until([&] {
    const std::int64_t r = rx.recv(c.afd, {loans + got, 1});
    if (r == 1) ++got;
    return got == 2;
  });
  ASSERT_EQ(got, 2);

  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_EQ(st->sockets, 2u);
  EXPECT_EQ(st->loans_outstanding, 2u);

  EXPECT_EQ(ff_tenant_evict(ts.a(), t), 0);

  // Gauges: all zero. Loans: dead tokens. Fds: gone.
  EXPECT_EQ(st->sockets, 0u);
  EXPECT_EQ(st->loans_outstanding, 0u);
  EXPECT_EQ(st->pool_charged, 0u);
  EXPECT_EQ(rx.recycle(loans[0]), -EINVAL);
  EXPECT_EQ(rx.recycle(loans[1]), -EINVAL);
  EXPECT_EQ(ff_close(ts.a(), c.afd), -EBADF);
  EXPECT_EQ(ff_close(ts.a(), lfd), -EBADF);

  // B saw the RST; both sides settle back to baseline.
  ts.pump(4000);
  ff_close(ts.b(), c.bfd);
  ts.pump(4000);
  EXPECT_EQ(ts.a().tcp_pcb_count(), pcb0);
  EXPECT_EQ(ts.pool_a().available(), pool0);
}

TEST(Tenants, EvictingOneTenantLeavesTheNeighbourUntouched) {
  TwoStacks ts;
  const int tv = ff_tenant_register(ts.a(), "victim", TenantQuota{});
  const int te = ff_tenant_register(ts.a(), "evictee", TenantQuota{});

  const int lv = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), lv, tv), 0);
  ff_bind(ts.a(), lv, {Ipv4Addr{}, 5606});
  ff_listen(ts.a(), lv, 4);
  const Conn cv = establish(ts, lv, 5606);

  const int le = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_set_tenant(ts.a(), le, te), 0);
  ff_bind(ts.a(), le, {Ipv4Addr{}, 5607});
  ff_listen(ts.a(), le, 4);
  const Conn ce = establish(ts, le, 5607);

  EXPECT_EQ(ff_tenant_evict(ts.a(), te), 0);

  // The victim's connection still moves bytes end to end.
  machine::CapView tx = ts.heap_b().alloc_view(256);
  ASSERT_EQ(ff_write(ts.b(), cv.bfd, tx, 256), 256);
  machine::CapView rx = ts.heap_a().alloc_view(256);
  std::int64_t r = 0;
  ts.pump_until([&] {
    r = ff_read(ts.a(), cv.afd, rx, 256);
    return r > 0;
  });
  EXPECT_EQ(r, 256);
  // The evictee's fds are gone; the victim's remain.
  EXPECT_EQ(ff_close(ts.a(), ce.afd), -EBADF);
  EXPECT_EQ(ff_close(ts.a(), cv.afd), 0);
  ff_close(ts.a(), lv);
  ff_close(ts.b(), cv.bfd);
  ff_close(ts.b(), ce.bfd);
}

// ---------------------------------------------------------------------------
// The adversary driven directly (single-threaded, deterministic)
// ---------------------------------------------------------------------------

TEST(Tenants, HostileHoarderIsBoundedAndEvictionReclaimsItsPins) {
  TwoStacks ts;
  TenantQuota q;
  q.max_pool_mbufs = 4;
  const int t = ff_tenant_register(ts.a(), "hoarder", q);
  const std::uint32_t pool0 = ts.pool_a().available();

  apps::DirectFfOps ops(&ts.a());
  machine::CapView ring_mem =
      ts.heap_a().alloc_view(FfUring::bytes_for(16, 32));
  scen::HostileTenant evil(&ops, ring_mem, 16, 32,
                           scen::HostileProfile::kHoard, 0xD15EA5Eu);
  ASSERT_GT(evil.ring_id(), 0);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), evil.ring_id(), t), 0);

  for (int i = 0; i < 64; ++i) {
    evil.step();
    ts.a().run_once();
  }
  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  // The hoard saturated at the quota, no further: the pool lost exactly
  // the tenant's budget, and every further alloc was rejected per-cause.
  EXPECT_EQ(st->pool_charged, 4u);
  EXPECT_EQ(st->zc_reservations, 4u);
  EXPECT_GE(st->pool_budget_rejects, 1u);
  EXPECT_GE(evil.census().rejects, 1u);
  EXPECT_EQ(ts.pool_a().available(), pool0 - 4u);

  EXPECT_EQ(ff_tenant_evict(ts.a(), t), 0);
  EXPECT_EQ(st->pool_charged, 0u);
  EXPECT_EQ(st->zc_reservations, 0u);
  EXPECT_EQ(ts.pool_a().available(), pool0);
  // The ring died with the tenant.
  EXPECT_EQ(ff_uring_doorbell(ts.a(), evil.ring_id()), -EBADF);
}

TEST(Tenants, HostileForgerOnlyEverEarnsEinval) {
  TwoStacks ts;
  const int t = ff_tenant_register(ts.a(), "forger", TenantQuota{});

  apps::DirectFfOps ops(&ts.a());
  machine::CapView ring_mem =
      ts.heap_a().alloc_view(FfUring::bytes_for(16, 32));
  scen::HostileTenant evil(&ops, ring_mem, 16, 32,
                           scen::HostileProfile::kForge, 0xF063);
  ASSERT_GT(evil.ring_id(), 0);
  ASSERT_EQ(ff_uring_bind_tenant(ts.a(), evil.ring_id(), t), 0);

  const std::uint32_t pool0 = ts.pool_a().available();
  for (int i = 0; i < 64; ++i) {
    evil.step();
    ts.a().run_once();
  }
  const TenantStats* st = ff_tenant_stats(ts.a(), t);
  EXPECT_GE(evil.census().rejects, 16u);  // every forgery answered -EINVAL
  EXPECT_GE(st->sqe_errors, 16u);         // ...and billed to the forger
  EXPECT_EQ(st->pool_charged, 0u);        // no forged token pinned anything
  EXPECT_EQ(ts.pool_a().available(), pool0);
  ff_tenant_evict(ts.a(), t);
}

// ---------------------------------------------------------------------------
// The fleet (Scenario 3 on the lockstep rig)
// ---------------------------------------------------------------------------

namespace {

/// Echo, iperf and MAVLink victims sharing the stack with a quota-bounded
/// hoarder.
scen::Scenario3Options mixed_fleet() {
  scen::Scenario3Options s3;
  s3.bytes_per_tenant = 48 * 1024;
  fstack::TenantQuota trusted;  // unlimited
  fstack::TenantQuota bounded;
  bounded.max_pool_mbufs = 8;
  bounded.max_zc_reservations = 8;
  bounded.max_sockets = 4;
  bounded.sq_drain_weight = 1;
  bounded.max_cq_stall_rounds = 4;
  s3.tenants.push_back({"echo0", scen::TenantWorkload::kEcho, trusted, {}});
  s3.tenants.push_back({"iperf0", scen::TenantWorkload::kIperf, trusted, {}});
  s3.tenants.push_back(
      {"mav0", scen::TenantWorkload::kMavlink, trusted, {}});
  s3.tenants.push_back({"evil0", scen::TenantWorkload::kIperf, bounded,
                        scen::HostileProfile::kHoard});
  return s3;
}

}  // namespace

TEST(Tenants, FleetMixedWorkloadsWithHostileHoarderKeepSlo) {
  const scen::Scenario3Options s3 = mixed_fleet();
  const scen::Scenario3Outcome out = scen::run_scenario3_fleet(s3);
  ASSERT_EQ(out.tenants.size(), 4u);
  for (const auto& to : out.tenants) {
    if (to.hostile) {
      // Evicted: every gauge back to zero, the abuse fully accounted.
      EXPECT_EQ(out.evicted, 1u);
      EXPECT_EQ(to.stats.pool_charged, 0u);
      EXPECT_EQ(to.stats.zc_reservations, 0u);
      EXPECT_EQ(to.stats.sockets, 0u);
      EXPECT_EQ(to.stats.evictions, 1u);
      EXPECT_GT(to.abuse.steps, 0u);
    } else {
      // Every victim finished its full stream.
      EXPECT_GE(to.goodput_bytes, s3.bytes_per_tenant) << to.name;
    }
  }
}

TEST(Tenants, FleetReplaysIdentically) {
  // The fleet runs in lockstep on one thread: the same options replay the
  // same outcome field for field — goodput, every tenant's census, the
  // adversaries' own counts and the post-eviction baselines — whatever the
  // host load. A flooder rides along so doorbell-driven drains are covered.
  scen::Scenario3Options s3 = mixed_fleet();
  fstack::TenantQuota bounded;
  bounded.max_sockets = 4;
  bounded.sq_drain_weight = 1;
  s3.tenants.push_back({"evil1", scen::TenantWorkload::kIperf, bounded,
                        scen::HostileProfile::kFlood});
  const scen::Scenario3Outcome a = scen::run_scenario3_fleet(s3);
  const scen::Scenario3Outcome b = scen::run_scenario3_fleet(s3);
  ASSERT_EQ(a.tenants.size(), 5u);
  EXPECT_EQ(a.evicted, 2u);
  for (const auto& to : a.tenants) {
    if (!to.hostile) {
      EXPECT_GE(to.goodput_bytes, s3.bytes_per_tenant) << to.name;
    }
  }
  EXPECT_TRUE(a == b);
}

TEST(Tenants, ProxyBindsTheTenantInsideTheCreatingEntry) {
  // Scenario 3 tenancy lives in the sealed entries: ff_socket and
  // ff_uring_attach bind the app's tenant in the crossing that creates the
  // handle, and an over-quota socket dies inside that same crossing.
  scen::TestbedOptions opt;
  opt.cost = sim::CostModel::disabled();
  scen::LockstepRig rig(scen::ScenarioKind::kScenario2Uncontended, 0, 0, opt);
  scen::Scenario3Service svc(*rig.service());
  TenantQuota q;
  q.max_sockets = 1;
  const int tid = svc.register_tenant("t", q);
  const int app = rig.add_app("tenant:t", tid);
  apps::FfOps& ops = rig.ops(app);
  const auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView ring_mem = rig.alloc(FfUring::bytes_for(8, 16), app);
  rig.run(app, [&] {
    FfUring ring(ring_mem, 8, 16);  // lays out the header attach validates
    EXPECT_GE(ops.socket_stream(), 0);
    const std::uint64_t before = entries.crossings();
    EXPECT_EQ(ops.socket_stream(), -EMFILE);
    EXPECT_EQ(entries.crossings() - before, 1u);  // reject + close: one jump
    const int id = ops.uring_attach(ring_mem, 8, 16);
    ASSERT_GT(id, 0);
    ops.uring_doorbell(id);
  });
  const TenantStats st = svc.stats(tid);
  EXPECT_EQ(st.sockets, 1u);
  EXPECT_EQ(st.socket_cap_rejects, 1u);
  EXPECT_EQ(st.doorbells, 1u);  // the ring bills the tenant it was bound to
}

TEST(Tenants, ProxiedRecycleOfNeighbourLoanIsInert) {
  // Each app's ring drains as the tenant its attach entry bound: tenant B
  // submitting A's loan token in an OP_RECYCLE of its own ring recycles
  // nothing (aux0 counts the refusal), and A's loan stays outstanding — its
  // read-only view still points at a data room the pool cannot hand to
  // other traffic — until A recycles it through its own ring.
  constexpr std::uint64_t kVolume = 16 * 1024;
  scen::TestbedOptions opt;
  opt.cost = sim::CostModel::disabled();
  scen::LockstepRig rig(scen::ScenarioKind::kScenario2Uncontended, 0, kVolume,
                        opt);
  scen::Scenario3Service svc(*rig.service());
  const int ta = svc.register_tenant("a", TenantQuota{});
  const int tb = svc.register_tenant("b", TenantQuota{});
  const int app_a = rig.add_app("tenant:a", ta);
  const int app_b = rig.add_app("tenant:b", tb);
  rig.testbed().peer(0).run_iperf_client(
      scen::MorelloTestbed::morello_ip(0), 5201, kVolume);
  const std::size_t ring_bytes =
      FfUring::bytes_for(ZcRxRing::kSq, ZcRxRing::kCq);
  const machine::CapView mem_a = rig.alloc(ring_bytes, app_a);
  const machine::CapView mem_b = rig.alloc(ring_bytes, app_b);

  std::optional<ZcRxRing> ring_a;
  FfZcRxBuf loan[1];
  rig.run(app_a, [&] {
    apps::FfOps& ops = rig.ops(app_a);
    const int lfd = ops.socket_stream();
    ops.bind(lfd, Ipv4Addr{}, 5201);
    ops.listen(lfd, 4);
    int cfd = -1;
    while ((cfd = ops.accept(lfd)) < 0 && rig.turn(false)) {
    }
    ring_a.emplace(ops, mem_a);
    while (ring_a->recv(cfd, loan) != 1 && rig.turn(false)) {
    }
  });
  ASSERT_NE(loan[0].token, 0u);
  ASSERT_EQ(svc.stats(ta).loans_outstanding, 1u);

  FfUringCqe stolen;
  rig.run(app_b, [&] {
    ZcRxRing ring_b(rig.ops(app_b), mem_b);
    stolen = ring_b.recycle({&loan[0].token, 1});
  });
  EXPECT_EQ(stolen.result, -EINVAL);
  EXPECT_EQ(stolen.aux0, 1u);
  EXPECT_EQ(svc.stats(ta).loans_outstanding, 1u);
  EXPECT_EQ(svc.stats(tb).sqe_errors, 1u);  // the refusal is billed to B

  // A's loan is untouched: it still reads, and A itself returns it.
  rig.run(app_a, [&] {
    std::byte first[1];
    loan[0].data.read(0, first);
    EXPECT_EQ(ring_a->recycle(loan[0]), 1);
  });
  EXPECT_EQ(svc.stats(ta).loans_outstanding, 0u);
}
