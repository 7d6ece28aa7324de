// ff_uring (API v3): ring attach/drain lifecycle, SQ/CQ wrap-around,
// full-CQ backpressure, per-entry -EINVAL isolation for forged/replayed
// submissions, the verdicts of retired opcodes and arguments, multishot
// accept, epoll-arm CQEs, the zc loan flow over the ring (TCP and UDP), and
// the iperf app port.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <vector>

#include "apps/ff_ops.hpp"
#include "apps/iperf.hpp"
#include "apps/uring_proto.hpp"
#include "cheri/fault.hpp"
#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "fstack/uring.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::AttachedRing;
using cherinet::test::attach_ring;
using cherinet::test::TwoStacks;

namespace {

struct TcpPair {
  int listen_fd = -1;
  int a_fd = -1;
  int b_fd = -1;
};

TcpPair connect_b_to_a(TwoStacks& ts, std::uint16_t port = 5201) {
  TcpPair p;
  p.listen_fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), p.listen_fd, {Ipv4Addr{}, port});
  ff_listen(ts.a(), p.listen_fd, 4);
  p.b_fd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_connect(ts.b(), p.b_fd, {ts.ip_a(), port});
  ts.pump_until([&] {
    p.a_fd = ff_accept(ts.a(), p.listen_fd, nullptr);
    return p.a_fd >= 0;
  });
  EXPECT_GE(p.a_fd, 0);
  return p;
}

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle and validation
// ---------------------------------------------------------------------------

TEST(Uring, AttachValidatesCapacitiesRegionAndHeader) {
  TwoStacks ts;
  machine::CapView mem =
      ts.heap_a().alloc_view(FfUring::bytes_for(8, 8));
  // Capacities must be powers of two.
  EXPECT_EQ(ff_uring_attach(ts.a(), mem, 6, 8), -EINVAL);
  EXPECT_EQ(ff_uring_attach(ts.a(), mem, 8, 0), -EINVAL);
  // Region must cover bytes_for(sq, cq).
  EXPECT_EQ(ff_uring_attach(ts.a(), mem, 8, 16), -EINVAL);
  // Header must be initialized (FfUring ctor) before arming.
  FfUring ring(mem, 8, 8);
  const int id = ff_uring_attach(ts.a(), mem, 8, 8);
  EXPECT_GT(id, 0);
  EXPECT_EQ(ff_uring_detach(ts.a(), id), 0);
  EXPECT_EQ(ff_uring_detach(ts.a(), id), -EBADF);
  EXPECT_EQ(ff_uring_doorbell(ts.a(), id), -EBADF);
  EXPECT_EQ(ts.a().api_stats().uring_attaches, 1u);
}

TEST(Uring, NopCursorsWrapAcrossPowerOfTwoBoundaries) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 4, 4);
  // Push far more entries than the capacity: the free-running u32 cursors
  // must map to slots continuously across every wrap.
  std::uint64_t next_ud = 1;
  std::uint64_t expect_ud = 1;
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 3; ++k) {
      FfUringSqe sqe;
      sqe.op = UringOp::kNop;
      sqe.user_data = next_ud++;
      ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
    }
    ts.a().run_once();  // one drain sweep consumes the window
    FfUringCqe cq[4];
    const std::size_t n = ar.ring.cq_pop(cq);
    ASSERT_EQ(n, 3u);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(cq[i].user_data, expect_ud++);
      EXPECT_EQ(cq[i].result, 0);
      EXPECT_EQ(cq[i].op, UringOp::kNop);
    }
  }
  EXPECT_EQ(ts.a().api_stats().uring_sqes, 300u);
  EXPECT_EQ(ts.a().api_stats().uring_cqes, 300u);
}

TEST(Uring, FullCqBackpressuresWithoutDroppingCompletions) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 4);
  for (std::uint64_t ud = 1; ud <= 8; ++ud) {
    FfUringSqe sqe;
    sqe.op = UringOp::kNop;
    sqe.user_data = ud;
    ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  }
  ts.a().run_once();
  // Only 4 completions fit; the other 4 SQEs must stay QUEUED (deferred,
  // not dropped) and the overflow word must record the backpressure.
  EXPECT_EQ(ar.ring.sq_pending(), 4u);
  EXPECT_GT(ar.ring.cq_overflows(), 0u);
  FfUringCqe cq[8];
  std::vector<std::uint64_t> seen;
  std::size_t n = ar.ring.cq_pop(cq);
  EXPECT_EQ(n, 4u);
  for (std::size_t i = 0; i < n; ++i) seen.push_back(cq[i].user_data);
  ts.a().run_once();  // space now: the deferred entries complete
  n = ar.ring.cq_pop(cq);
  EXPECT_EQ(n, 4u);
  for (std::size_t i = 0; i < n; ++i) seen.push_back(cq[i].user_data);
  ASSERT_EQ(seen.size(), 8u);
  for (std::uint64_t ud = 1; ud <= 8; ++ud) {
    EXPECT_EQ(seen[ud - 1], ud) << "completions must keep submission order";
  }
  EXPECT_EQ(ar.ring.sq_pending(), 0u);
}

TEST(Uring, DoorbellDrainsAParkedStackImmediately) {
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 8);
  ts.a().urings_set_parked(true);
  EXPECT_TRUE(ar.ring.stack_parked());
  FfUringSqe sqe;
  sqe.op = UringOp::kNop;
  sqe.user_data = 7;
  // Empty -> non-empty while parked: the push itself says "ring the bell".
  EXPECT_EQ(ar.ring.sq_push(sqe), FfUring::Push::kDoorbell);
  EXPECT_EQ(ff_uring_doorbell(ts.a(), ar.id), 1);  // one SQE consumed
  FfUringCqe cq[1];
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 7u);
  // The bell ran on the CALLER's crossing; the loop itself is still
  // parked, and the header must keep saying so (a later empty->non-empty
  // push still needs to know a doorbell is worth making).
  EXPECT_TRUE(ar.ring.stack_parked());
  EXPECT_EQ(ts.a().api_stats().uring_doorbells, 1u);
  // Only the loop's own drain (run_once) publishes the un-park.
  ts.a().run_once();
  EXPECT_FALSE(ar.ring.stack_parked());
}

// ---------------------------------------------------------------------------
// Data plane opcodes
// ---------------------------------------------------------------------------

TEST(Uring, WritevSqeDeliversBytesToThePeer) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 8);

  const auto payload = pattern(3 * 512);
  machine::CapView tx = ts.heap_a().alloc_view(payload.size());
  tx.write(0, payload);
  FfUringSqe sqe;
  sqe.op = UringOp::kWritev;
  sqe.fd = p.a_fd;
  sqe.user_data = 42;
  sqe.ncaps = 3;
  for (std::uint32_t i = 0; i < 3; ++i) {
    sqe.caps[i] = tx.window(i * 512, 512);  // exactly-bounded iovec grants
  }
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);

  machine::CapView rx = ts.heap_b().alloc_view(payload.size());
  std::size_t got = 0;
  ts.pump_until([&] {
    const std::int64_t r =
        ff_read(ts.b(), p.b_fd, rx.at(got), payload.size() - got);
    if (r > 0) got += static_cast<std::size_t>(r);
    return got == payload.size();
  });
  ASSERT_EQ(got, payload.size());
  std::vector<std::byte> echo(payload.size());
  rx.read(0, echo);
  EXPECT_EQ(0, std::memcmp(echo.data(), payload.data(), payload.size()));

  FfUringCqe cq[2];
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 42u);
  EXPECT_EQ(cq[0].result, static_cast<std::int64_t>(payload.size()));
}

TEST(Uring, ForgedSqeCapabilityIsPerEntryEinvalWithoutPoisoningTheSweep) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 8);
  machine::CapView tx = ts.heap_a().alloc_view(1024);
  tx.write(0, pattern(1024));

  const auto push_writev = [&](std::uint64_t ud) {
    FfUringSqe sqe;
    sqe.op = UringOp::kWritev;
    sqe.fd = p.a_fd;
    sqe.user_data = ud;
    sqe.ncaps = 1;
    sqe.caps[0] = tx.window(0, 256);
    ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  };
  push_writev(1);
  push_writev(2);
  push_writev(3);
  // Forge entry 2's capability: overwrite its granule with plain data.
  // Exactly what a compromised compartment could do to ring memory — the
  // tag clears, and the drain sweep must fail THIS entry alone.
  const std::uint64_t slot1_cap0 =
      FfUring::sqe_off(8, 1) + FfUring::kSqePayloadOff;
  ar.mem.store<std::uint64_t>(slot1_cap0, 0xDEADBEEFCAFEF00Dull);
  ts.a().run_once();

  FfUringCqe cq[4];
  ASSERT_EQ(ar.ring.cq_pop(cq), 3u);
  EXPECT_EQ(cq[0].user_data, 1u);
  EXPECT_EQ(cq[0].result, 256);
  EXPECT_EQ(cq[1].user_data, 2u);
  EXPECT_EQ(cq[1].result, -EINVAL);  // the forged entry, and only it
  EXPECT_EQ(cq[2].user_data, 3u);
  EXPECT_EQ(cq[2].result, 256);
  EXPECT_EQ(ts.a().api_stats().uring_sqe_errors, 1u);

  // Tagged forgeries, one per remaining branch of the check: an in-bounds
  // window that may only be stored through (no LOAD), and a sealed one.
  // Each fails alone between neighbours that deliver.
  const auto push_cap = [&](std::uint64_t ud, const machine::CapView& v) {
    FfUringSqe sqe;
    sqe.op = UringOp::kWritev;
    sqe.fd = p.a_fd;
    sqe.user_data = ud;
    sqe.ncaps = 1;
    sqe.caps[0] = v;
    ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  };
  const machine::CapView window = tx.window(0, 256);
  const machine::CapView store_only(
      &tx.mem(), window.cap().with_perms(
                     cheri::PermSet{cheri::Perm::kGlobal} |
                     cheri::Perm::kStore));
  const machine::CapView sealed(
      &tx.mem(), window.cap().seal_with(
                     ts.address_space().sealing_root().with_address(
                         cheri::kOtypeFirstUser)));
  push_writev(4);
  push_cap(5, store_only);
  push_writev(6);
  push_cap(7, sealed);
  push_writev(8);
  ts.a().run_once();

  FfUringCqe more[6];
  ASSERT_EQ(ar.ring.cq_pop(more), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(more[i].user_data, 4u + i);
    EXPECT_EQ(more[i].result, i % 2 == 0 ? 256 : -EINVAL);
  }
  EXPECT_EQ(ts.a().api_stats().uring_sqe_errors, 3u);
}

TEST(Uring, RetiredOpcodeTwoIsPerEntryEinval) {
  // Opcode 2 carried UDP datagram batches until v13. The number stays a
  // hole: the sweep answers it like any unknown opcode, and its
  // neighbours in the same window complete.
  TwoStacks ts;
  AttachedRing ar = attach_ring(ts, 8, 8);
  FfUringSqe sqe;
  for (std::uint64_t ud = 1; ud <= 3; ++ud) {
    sqe.op = ud == 2 ? static_cast<UringOp>(2) : UringOp::kNop;
    sqe.user_data = ud;
    ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  }
  ts.a().run_once();
  FfUringCqe cq[4];
  ASSERT_EQ(ar.ring.cq_pop(cq), 3u);
  EXPECT_EQ(cq[0].user_data, 1u);
  EXPECT_EQ(cq[0].result, 0);
  EXPECT_EQ(cq[1].user_data, 2u);
  EXPECT_EQ(cq[1].result, -EINVAL);
  EXPECT_EQ(cq[2].user_data, 3u);
  EXPECT_EQ(cq[2].result, 0);
  EXPECT_EQ(ts.a().api_stats().uring_sqe_errors, 1u);
}

TEST(Uring, ZcRecvLoansAndRecycleTokensFlowThroughTheRing) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 16);

  // Push 4 KiB from B and let it queue on A's RX chain.
  const auto payload = pattern(4096);
  machine::CapView tx = ts.heap_b().alloc_view(payload.size());
  tx.write(0, payload);
  std::size_t sent = 0;
  ts.pump_until([&] {
    if (sent < payload.size()) {
      const std::int64_t r =
          ff_write(ts.b(), p.b_fd, tx.at(sent), payload.size() - sent);
      if (r > 0) sent += static_cast<std::size_t>(r);
    }
    return sent == payload.size();
  });
  ts.pump(50);

  FfUringSqe sqe;
  sqe.op = UringOp::kZcRecv;
  sqe.fd = p.a_fd;
  sqe.user_data = 11;
  sqe.a[0] = 8;
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();

  FfUringCqe cq[8];
  const std::size_t n = ar.ring.cq_pop(cq);
  ASSERT_GT(n, 0u);
  std::uint64_t loaned = 0;
  FfUringSqe rec;
  rec.op = UringOp::kRecycle;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(cq[i].op, UringOp::kZcRecv);
    ASSERT_GT(cq[i].result, 0);
    // The loan capability rides in the CQE: exactly bounded, read-only.
    ASSERT_TRUE(cq[i].cap.valid());
    EXPECT_EQ(cq[i].cap.size(), static_cast<std::uint64_t>(cq[i].result));
    std::vector<std::byte> chunk(static_cast<std::size_t>(cq[i].result));
    cq[i].cap.read(0, chunk);
    EXPECT_EQ(0, std::memcmp(chunk.data(), payload.data() + loaned,
                             chunk.size()));
    const std::byte junk[1] = {std::byte{0xFF}};
    EXPECT_THROW(cq[i].cap.write(0, junk), cheri::CapFault);
    // kCqeMore marks every loan of the burst but the last.
    EXPECT_EQ((cq[i].flags & kCqeMore) != 0, i + 1 < n);
    loaned += static_cast<std::uint64_t>(cq[i].result);
    rec.tokens[rec.a[0]++] = cq[i].aux0;
  }
  // Return the whole burst through ONE recycle entry...
  ASSERT_NE(ar.ring.sq_push(rec), FfUring::Push::kFull);
  ts.a().run_once();
  FfUringCqe rc[2];
  ASSERT_EQ(ar.ring.cq_pop(rc), 1u);
  EXPECT_EQ(rc[0].result, static_cast<std::int64_t>(n));
  EXPECT_EQ(rc[0].aux0, 0u);  // no rejected tokens
  EXPECT_EQ(ts.a().api_stats().zc_rx_recycles,
            ts.a().api_stats().zc_rx_loans);

  // ...and prove a REPLAYED token batch is -EINVAL without side effects.
  ASSERT_NE(ar.ring.sq_push(rec), FfUring::Push::kFull);
  ts.a().run_once();
  ASSERT_EQ(ar.ring.cq_pop(rc), 1u);
  EXPECT_EQ(rc[0].result, -EINVAL);
  EXPECT_EQ(rc[0].aux0, static_cast<std::uint64_t>(n));  // all rejected
}

TEST(Uring, ZeroLengthDatagramLoanIsNotEof) {
  TwoStacks ts;
  const int a_udp = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const int b_udp = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.a(), a_udp, {Ipv4Addr{}, 9200}), 0);
  ASSERT_EQ(ff_bind(ts.b(), b_udp, {Ipv4Addr{}, 9201}), 0);
  AttachedRing ar = attach_ring(ts, 8, 8);

  machine::CapView tx = ts.heap_b().alloc_view(16);
  ASSERT_EQ(ff_sendto(ts.b(), b_udp, tx, 0, {ts.ip_a(), 9200}), 0);
  const auto* sock = ts.a().sockets().get(a_udp);
  ASSERT_NE(sock, nullptr);
  ts.pump_until([&] { return sock->udp->queued() == 1; });

  FfUringSqe sqe;
  sqe.op = UringOp::kZcRecv;
  sqe.fd = a_udp;
  sqe.a[0] = 4;
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();
  FfUringCqe cq[2];
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  // result 0 — but it is a LOAN (token present, no EOF flag), and the
  // token still owes a recycle; treating it as EOF would leak the
  // window-charged data room.
  EXPECT_EQ(cq[0].result, 0);
  EXPECT_EQ(cq[0].flags & kCqeEof, 0u);
  ASSERT_NE(cq[0].aux0, 0u);
  FfUringSqe rec;
  rec.op = UringOp::kRecycle;
  rec.a[0] = 1;
  rec.tokens[0] = cq[0].aux0;
  ASSERT_NE(ar.ring.sq_push(rec), FfUring::Push::kFull);
  ts.a().run_once();
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].result, 1);
  EXPECT_EQ(ts.a().api_stats().zc_rx_recycles,
            ts.a().api_stats().zc_rx_loans);
}

// ---------------------------------------------------------------------------
// Multishot arms
// ---------------------------------------------------------------------------

TEST(Uring, AcceptMultishotPublishesEveryAcceptedFd) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_bind(ts.a(), lfd, {Ipv4Addr{}, 5300});
  ff_listen(ts.a(), lfd, 8);
  AttachedRing ar = attach_ring(ts, 8, 8);
  FfUringSqe arm;
  arm.op = UringOp::kAcceptMultishot;
  arm.fd = lfd;
  arm.user_data = 77;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);

  const int b1 = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  const int b2 = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_connect(ts.b(), b1, {ts.ip_a(), 5300});
  ff_connect(ts.b(), b2, {ts.ip_a(), 5300});

  std::vector<FfUringCqe> accepted;
  ts.pump_until([&] {
    FfUringCqe cq[4];
    const std::size_t n = ar.ring.cq_pop(cq);
    for (std::size_t i = 0; i < n; ++i) accepted.push_back(cq[i]);
    return accepted.size() >= 2;
  });
  ASSERT_EQ(accepted.size(), 2u);
  for (const FfUringCqe& c : accepted) {
    EXPECT_EQ(c.op, UringOp::kAcceptMultishot);
    EXPECT_EQ(c.user_data, 77u);
    EXPECT_GE(c.result, 0);
    EXPECT_NE(c.flags & kCqeMore, 0u);  // the arm stays live
    EXPECT_EQ(uring_unpack_addr(c.aux0).ip, ts.ip_b());
  }
  EXPECT_NE(accepted[0].result, accepted[1].result);
}

TEST(Uring, EpollArmDeliversReadinessAsCqes) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int ep = ff_epoll_create(ts.a());
  ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, p.a_fd, kEpollIn, 0xC00C1Eull);
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  arm.user_data = 99;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  ts.a().run_once();  // consume the arm (no data yet: no event)

  machine::CapView tx = ts.heap_b().alloc_view(512);
  tx.write(0, pattern(512));
  ASSERT_GT(ff_write(ts.b(), p.b_fd, tx, 512), 0);
  FfUringCqe ev;
  ts.pump_until([&] {
    FfUringCqe cq[4];
    const std::size_t n = ar.ring.cq_pop(cq);
    if (n > 0) ev = cq[0];
    return n > 0;
  });
  EXPECT_EQ(ev.op, UringOp::kEpollArm);
  EXPECT_EQ(ev.user_data, 99u);
  EXPECT_NE(ev.result & kEpollIn, 0);
  EXPECT_EQ(ev.aux0, 0xC00C1Eull);  // the interest cookie
  EXPECT_NE(ev.flags & kCqeMore, 0u);
}

TEST(Uring, EpollArmDedupsUnchangedReadinessButNotNewActivity) {
  // The mask/generation dedup of readiness publication: an unchanged mask
  // with no new activity never re-posts, but more bytes landing while the
  // mask STAYS readable must post again — otherwise a consumer that
  // drained to -EAGAIN just before the new bytes arrived would never hear
  // of them (the edge-trigger lost wakeup).
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int ep = ff_epoll_create(ts.a());
  ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, p.a_fd, kEpollIn, 7);
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  ts.a().run_once();

  machine::CapView tx = ts.heap_b().alloc_view(512);
  tx.write(0, pattern(512));
  const auto readiness_cqes = [&] {
    std::size_t n = 0;
    FfUringCqe cq[8];
    for (std::size_t k = ar.ring.cq_pop(cq); k > 0; k = ar.ring.cq_pop(cq)) {
      for (std::size_t i = 0; i < k; ++i) {
        n += cq[i].op == UringOp::kEpollArm ? 1 : 0;
      }
    }
    return n;
  };
  ASSERT_GT(ff_write(ts.b(), p.b_fd, tx, 512), 0);
  std::size_t first = 0;
  ts.pump_until([&] { return (first += readiness_cqes()) > 0; });
  EXPECT_EQ(first, 1u);

  // Nothing new: the unread bytes keep the mask readable, yet no re-post.
  ts.pump(200);
  EXPECT_EQ(readiness_cqes(), 0u);

  // New activity under the same mask (still unread): a fresh event.
  ASSERT_GT(ff_write(ts.b(), p.b_fd, tx, 512), 0);
  std::size_t again = 0;
  ts.pump_until([&] { return (again += readiness_cqes()) > 0; });
  EXPECT_EQ(again, 1u);
}

TEST(Uring, EpollArmPostsSendSpaceFreedBetweenPublications) {
  // The send-space lost wakeup: an OUT watcher fills the send buffer with
  // v1 writes between two publications, and an ACK frees space past the
  // low-water mark before the next one. That publication reads OUT again
  // with no new RX activity, so only the acknowledged bytes can tell it
  // something happened. The send buffer is sized so that one ACK pass on
  // a cold cwnd (10 segments) frees more than the mark.
  TcpConfig tcp;
  tcp.sndbuf_bytes = 16 * 1024;
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int ep = ff_epoll_create(ts.a());
  ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, p.a_fd, kEpollOut, 5);
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  arm.user_data = 55;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  const auto out_edges = [&] {
    std::size_t n = 0;
    FfUringCqe cq[8];
    for (std::size_t k = ar.ring.cq_pop(cq); k > 0; k = ar.ring.cq_pop(cq)) {
      for (std::size_t i = 0; i < k; ++i) {
        n += cq[i].user_data == 55 && cq[i].result > 0 &&
                     (cq[i].result & kEpollOut) != 0
                 ? 1
                 : 0;
      }
    }
    return n;
  };
  std::size_t first = 0;
  ASSERT_TRUE(ts.pump_until([&] { return (first += out_edges()) > 0; }));

  // Fill A's send buffer while A's loop does not run.
  machine::CapView tx = ts.heap_a().alloc_view(16 * 1024);
  tx.write(0, pattern(16 * 1024));
  std::size_t queued = 0;
  for (std::int64_t w = 0; w != -EAGAIN;) {
    w = ff_write(ts.a(), p.a_fd, tx, tx.size());
    ASSERT_TRUE(w > 0 || w == -EAGAIN) << w;
    queued += w > 0 ? static_cast<std::size_t>(w) : 0;
  }
  ASSERT_GT(queued, 0u);
  ASSERT_EQ(ts.a().sock_readiness(p.a_fd) & kEpollOut, 0u);
  // B takes the segments and ACKs them before A's next publication.
  for (int i = 0; i < 1000; ++i) {
    if (ts.b().run_once()) continue;
    const auto d = ts.b().next_deadline();
    if (!d) break;
    ts.clock().advance_to(*d);
  }
  ts.a().run_once();  // the ACK frees space; the same pass publishes
  EXPECT_NE(ts.a().sock_readiness(p.a_fd) & kEpollOut, 0u);
  std::size_t woke = 0;
  EXPECT_TRUE(ts.pump_until([&] { return (woke += out_edges()) > 0; }, 2000));
}

TEST(Uring, EpollArmPostsOneOutEdgePerCrossingOfTheLowWaterMark) {
  // A writer that filled its send buffer hears nothing while ACKs free it
  // back up to the low-water mark, and one OUT edge when a publication
  // finds it past the mark. The watch also holds IN over unread bytes, so
  // the mask below the mark is IN: acknowledged bytes must not re-post it.
  TwoStacks ts;  // 256 KiB send buffer: several ACK passes below the mark
  const TcpPair p = connect_b_to_a(ts);
  machine::CapView unread = ts.heap_b().alloc_view(64);
  ASSERT_EQ(ff_write(ts.b(), p.b_fd, unread, 64), 64);  // A never reads it
  ASSERT_TRUE(ts.pump_until(
      [&] { return (ts.a().sock_readiness(p.a_fd) & kEpollIn) != 0; }));
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int ep = ff_epoll_create(ts.a());
  ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, p.a_fd, kEpollIn | kEpollOut, 5);
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  arm.user_data = 56;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  struct Edges {
    std::size_t out = 0;
    std::size_t other = 0;
  };
  const auto edges = [&] {
    Edges e;
    FfUringCqe cq[8];
    for (std::size_t k = ar.ring.cq_pop(cq); k > 0; k = ar.ring.cq_pop(cq)) {
      for (std::size_t i = 0; i < k; ++i) {
        if (cq[i].user_data != 56 || cq[i].result <= 0) continue;
        ++((cq[i].result & kEpollOut) != 0 ? e.out : e.other);
      }
    }
    return e;
  };
  std::size_t armed = 0;
  ASSERT_TRUE(ts.pump_until([&] { return (armed += edges().out) > 0; }));
  ASSERT_EQ(armed, 1u);

  machine::CapView tx = ts.heap_a().alloc_view(64 * 1024);
  tx.write(0, pattern(64 * 1024));
  const TcpPcb& pcb = *ts.a().sockets().get(p.a_fd)->pcb;
  for (int crossing = 0; crossing < 3; ++crossing) {
    SCOPED_TRACE(crossing);
    for (std::int64_t w = 0; w != -EAGAIN;) {
      w = ff_write(ts.a(), p.a_fd, tx, tx.size());
      ASSERT_TRUE(w > 0 || w == -EAGAIN) << w;
    }
    ASSERT_EQ(ts.a().sock_readiness(p.a_fd) & kEpollOut, 0u);
    Edges seen;
    std::size_t acks_below = 0;  // passes that freed space under the mark
    std::uint64_t acked = pcb.counters().bytes_acked;
    ASSERT_TRUE(ts.pump_until([&] {
      const Edges e = edges();
      seen.out += e.out;
      seen.other += e.other;
      const bool out = (ts.a().sock_readiness(p.a_fd) & kEpollOut) != 0;
      if (!out && pcb.counters().bytes_acked != acked) ++acks_below;
      acked = pcb.counters().bytes_acked;
      return seen.out > 0;
    }));
    EXPECT_GE(acks_below, 2u);
    EXPECT_EQ(seen.out, 1u);
    // Falling below the mark changed the mask to IN, which posts once;
    // the ACKs under the mark added nothing to it.
    EXPECT_EQ(seen.other, 1u);
  }
}

TEST(Uring, ArmedEpollWaitPublishesWhatItAnswers) {
  // ff_epoll_wait on an armed instance re-baselines the edge publisher to
  // the answer it gives: readiness the caller brought about itself (here,
  // adding an fd that is already readable) is posted at once, not at the
  // loop's next publication pass.
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int ep = ff_epoll_create(ts.a());
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  arm.user_data = 61;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  machine::CapView tx = ts.heap_b().alloc_view(512);
  tx.write(0, pattern(512));
  ASSERT_EQ(ff_write(ts.b(), p.b_fd, tx, 512), 512);
  ASSERT_TRUE(ts.pump_until(
      [&] { return (ts.a().sock_readiness(p.a_fd) & kEpollIn) != 0; }));
  FfUringCqe cq[4];
  EXPECT_EQ(ar.ring.cq_pop(cq), 0u);  // nothing watched yet
  ASSERT_EQ(ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, p.a_fd, kEpollIn, 3), 0);
  FfEpollEvent ev[4];
  ASSERT_EQ(ff_epoll_wait(ts.a(), ep, ev), 1);
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);  // posted by the wait itself
  EXPECT_EQ(cq[0].user_data, 61u);
  EXPECT_EQ(cq[0].aux0, 3u);
  EXPECT_NE(cq[0].result & kEpollIn, 0);
  ts.a().run_once();  // the loop's pass has nothing new to say
  EXPECT_EQ(ar.ring.cq_pop(cq), 0u);
}

TEST(Uring, EpollCtlOnAnArmedSetPublishesOnTheNextQuietPass) {
  // A loop pass with no progress of its own still publishes after an
  // entry point touched an fd: here a direct ff_epoll_ctl adds an fd that
  // became readable while nothing watched it, and the stack has nothing
  // else left to do.
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 8);
  const int ep = ff_epoll_create(ts.a());
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  arm.user_data = 71;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  machine::CapView tx = ts.heap_b().alloc_view(512);
  tx.write(0, pattern(512));
  ASSERT_EQ(ff_write(ts.b(), p.b_fd, tx, 512), 512);
  ts.pump(500);  // delivered, ACKed, every timer settled
  ASSERT_NE(ts.a().sock_readiness(p.a_fd) & kEpollIn, 0u);
  FfUringCqe cq[4];
  ASSERT_EQ(ar.ring.cq_pop(cq), 0u);
  ASSERT_FALSE(ts.a().run_once());  // the stack is quiet
  ASSERT_EQ(ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, p.a_fd, kEpollIn, 8), 0);
  EXPECT_FALSE(ts.a().run_once());
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 71u);
  EXPECT_EQ(cq[0].aux0, 8u);
  EXPECT_NE(cq[0].result & kEpollIn, 0);
}

TEST(Uring, EpollEdgeDeferredByAFullCqPostsOnAQuietPass) {
  // An edge a full CQ deferred posts once the app reaps, even on a loop
  // pass with nothing else to do.
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 2);
  const int ep = ff_epoll_create(ts.a());
  ASSERT_EQ(ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, p.a_fd, kEpollIn, 9), 0);
  FfUringSqe arm;
  arm.op = UringOp::kEpollArm;
  arm.fd = ep;
  arm.user_data = 81;
  ASSERT_NE(ar.ring.sq_push(arm), FfUring::Push::kFull);
  ts.a().run_once();  // armed; nothing readable yet
  FfUringSqe nop;     // two NOP completions fill the CQ
  ASSERT_NE(ar.ring.sq_push(nop), FfUring::Push::kFull);
  ASSERT_NE(ar.ring.sq_push(nop), FfUring::Push::kFull);
  ts.a().run_once();
  ASSERT_EQ(ar.ring.sq_pending(), 0u);
  machine::CapView tx = ts.heap_b().alloc_view(512);
  tx.write(0, pattern(512));
  ASSERT_EQ(ff_write(ts.b(), p.b_fd, tx, 512), 512);
  const std::uint32_t overflows = ar.ring.cq_overflows();
  ts.pump(500);  // the edge meets the full CQ
  EXPECT_GT(ar.ring.cq_overflows(), overflows);
  FfUringCqe cq[4];
  ASSERT_EQ(ar.ring.cq_pop(cq), 2u);
  EXPECT_EQ(cq[0].op, UringOp::kNop);
  EXPECT_EQ(cq[1].op, UringOp::kNop);
  EXPECT_FALSE(ts.a().run_once());  // quiet, but the edge still posts
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 81u);
  EXPECT_NE(cq[0].result & kEpollIn, 0);
}

TEST(Uring, EpollArmEndsWithAFinalCqe) {
  // A multishot arm that ends says so: re-arming the epfd on another ring,
  // closing the epfd and detaching the ring each post a last CQE without
  // kCqeMore, result -ECANCELED, to the ring that loses the arm.
  TwoStacks ts;
  AttachedRing r1 = attach_ring(ts, 8, 8);
  AttachedRing r2 = attach_ring(ts, 8, 8);
  const auto arm = [&](AttachedRing& r, int ep, std::uint64_t ud) {
    FfUringSqe e;
    e.op = UringOp::kEpollArm;
    e.fd = ep;
    e.user_data = ud;
    ASSERT_NE(r.ring.sq_push(e), FfUring::Push::kFull);
    ts.a().run_once();
  };
  const auto expect_end = [](AttachedRing& r, std::uint64_t ud) {
    FfUringCqe cq[4];
    ASSERT_EQ(r.ring.cq_pop(cq), 1u);
    EXPECT_EQ(cq[0].op, UringOp::kEpollArm);
    EXPECT_EQ(cq[0].user_data, ud);
    EXPECT_EQ(cq[0].result, -ECANCELED);
    EXPECT_EQ(cq[0].flags & kCqeMore, 0u);
  };
  FfUringCqe none[4];
  const int ep = ff_epoll_create(ts.a());
  arm(r1, ep, 11);
  EXPECT_EQ(r1.ring.cq_pop(none), 0u);  // an empty set posts nothing
  arm(r1, ep, 12);  // re-armed on its own ring: replaced, not ended
  EXPECT_EQ(r1.ring.cq_pop(none), 0u);
  arm(r2, ep, 21);
  expect_end(r1, 12);
  EXPECT_EQ(r2.ring.cq_pop(none), 0u);
  ASSERT_EQ(ff_close(ts.a(), ep), 0);
  expect_end(r2, 21);
  EXPECT_EQ(r1.ring.cq_pop(none), 0u);

  const int ep2 = ff_epoll_create(ts.a());
  arm(r2, ep2, 22);
  ASSERT_EQ(ff_uring_detach(ts.a(), r2.id), 0);
  expect_end(r2, 22);
  // The detached ring's arm is gone: closing its epfd posts nowhere.
  ASSERT_EQ(ff_close(ts.a(), ep2), 0);
  EXPECT_EQ(r1.ring.cq_pop(none), 0u);
}

TEST(Uring, EpollArmEndDeferredByAFullCqPostsLater) {
  // The final CQE is never dropped: a full CQ defers it (counted as an
  // overflow) until the app reaps.
  TwoStacks ts;
  AttachedRing r1 = attach_ring(ts, 8, 2);
  AttachedRing r2 = attach_ring(ts, 8, 8);
  const int ep = ff_epoll_create(ts.a());
  FfUringSqe e;
  e.op = UringOp::kEpollArm;
  e.fd = ep;
  e.user_data = 31;
  ASSERT_NE(r1.ring.sq_push(e), FfUring::Push::kFull);
  FfUringSqe nop;  // two NOP completions fill r1's CQ behind the arm
  nop.user_data = 1;
  ASSERT_NE(r1.ring.sq_push(nop), FfUring::Push::kFull);
  ASSERT_NE(r1.ring.sq_push(nop), FfUring::Push::kFull);
  ts.a().run_once();
  const std::uint32_t overflows = r1.ring.cq_overflows();
  e.user_data = 41;
  ASSERT_NE(r2.ring.sq_push(e), FfUring::Push::kFull);
  ts.a().run_once();  // r2 takes the arm; r1's CQ has no room for the end
  EXPECT_GT(r1.ring.cq_overflows(), overflows);
  FfUringCqe cq[4];
  ASSERT_EQ(r1.ring.cq_pop(cq), 2u);
  EXPECT_EQ(cq[0].op, UringOp::kNop);
  EXPECT_EQ(cq[1].op, UringOp::kNop);
  ts.a().run_once();
  ASSERT_EQ(r1.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].user_data, 31u);
  EXPECT_EQ(cq[0].result, -ECANCELED);
  EXPECT_EQ(cq[0].flags & kCqeMore, 0u);
}

// ---------------------------------------------------------------------------
// App ports
// ---------------------------------------------------------------------------

TEST(UringApps, IperfRunsEndToEndOverRings) {
  TwoStacks ts;
  apps::DirectFfOps ops_a(&ts.a());
  apps::DirectFfOps ops_b(&ts.b());
  constexpr std::uint64_t kBytes = 256 * 1024;

  machine::CapView srv_rx = ts.heap_a().alloc_view(16 * 1024);
  apps::IperfServer srv(&ops_a, &ts.clock(), 5201, srv_rx, 1);
  machine::CapView srv_ring =
      ts.heap_a().alloc_view(FfUring::bytes_for(32, 64));
  ASSERT_EQ(srv.use_uring(srv_ring, 32, 64), 0);

  machine::CapView cli_tx = ts.heap_b().alloc_view(16 * 1024);
  apps::IperfClient cli(&ops_b, &ts.clock(), ts.ip_a(), 5201, kBytes,
                        cli_tx.window(0, 8 * 1448), 1448, 8);
  ASSERT_EQ(cli.use_uring(ts.heap_b().alloc_view(FfUring::bytes_for(32, 64)),
                          32, 64),
            0);

  const bool done = ts.pump_until([&] {
    srv.step();
    cli.step();
    return srv.finished() && cli.finished();
  });
  ASSERT_TRUE(done);
  EXPECT_EQ(srv.report().bytes, kBytes);
  EXPECT_EQ(cli.report().bytes, kBytes);
  // Both sides really rode the rings.
  EXPECT_GT(ts.a().api_stats().uring_sqes, 0u);
  EXPECT_GT(ts.b().api_stats().uring_sqes, 0u);
  // Server side: every loan the drain handed out came back (the EOF tail
  // goes out as OP_RECYCLE, and the teardown drains it before detaching).
  EXPECT_EQ(ts.a().api_stats().zc_rx_recycles,
            ts.a().api_stats().zc_rx_loans);
}

// ---------------------------------------------------------------------------
// TCP zero-copy TX over the ring (OP_ZC_ALLOC + OP_ZC_SEND)
// ---------------------------------------------------------------------------

TEST(UringZcTx, AllocGrantsWritableRoomsAndSendIsZeroCopy) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  AttachedRing ar = attach_ring(ts, 8, 16);
  const std::uint64_t copied0 = ts.a().tx_stats().copied_bytes;

  // One OP_ZC_ALLOC requests two reservations: one CQE per grant, each
  // carrying a token and a WRITABLE exactly-bounded data-room capability.
  FfUringSqe sqe;
  sqe.op = UringOp::kZcAlloc;
  sqe.fd = p.a_fd;
  sqe.user_data = 9;
  sqe.a[0] = 2;
  sqe.a[1] = 600;
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();

  FfUringCqe cq[4];
  ASSERT_EQ(ar.ring.cq_pop(cq), 2u);
  const auto payload = pattern(1200);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(cq[i].op, UringOp::kZcAlloc);
    ASSERT_EQ(cq[i].result, 600);
    ASSERT_NE(cq[i].aux0, 0u);
    ASSERT_TRUE(cq[i].cap.valid());
    EXPECT_EQ(cq[i].cap.size(), 600u);
    EXPECT_EQ((cq[i].flags & kCqeMore) != 0, i == 0);
    // The grant is writable: the app composes its payload in place.
    cq[i].cap.write(0, std::span<const std::byte>{
                           payload.data() + i * 600, 600});
  }

  // Submit both reservations on the TCP socket.
  for (int i = 0; i < 2; ++i) {
    FfUringSqe snd;
    snd.op = UringOp::kZcSend;
    snd.fd = p.a_fd;
    snd.user_data = 100 + static_cast<std::uint64_t>(i);
    snd.a[0] = cq[i].aux0;
    snd.a[1] = 600;
    ASSERT_NE(ar.ring.sq_push(snd), FfUring::Push::kFull);
  }
  ts.a().run_once();
  FfUringCqe sc[4];
  ASSERT_EQ(ar.ring.cq_pop(sc), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(sc[i].op, UringOp::kZcSend);
    EXPECT_EQ(sc[i].result, 600);
  }

  // A REPLAYED token answers -EINVAL — and the proof no state mutated is
  // that the peer receives exactly 1200 bytes, intact and unduplicated.
  FfUringSqe replay;
  replay.op = UringOp::kZcSend;
  replay.fd = p.a_fd;
  replay.user_data = 200;
  replay.a[0] = cq[0].aux0;
  replay.a[1] = 600;
  ASSERT_NE(ar.ring.sq_push(replay), FfUring::Push::kFull);
  // ...as does a FORGED token that never existed.
  FfUringSqe forged = replay;
  forged.user_data = 201;
  forged.a[0] = 0xFEEDFACEull;
  ASSERT_NE(ar.ring.sq_push(forged), FfUring::Push::kFull);
  ts.a().run_once();
  ASSERT_EQ(ar.ring.cq_pop(sc), 2u);
  EXPECT_EQ(sc[0].user_data, 200u);
  EXPECT_EQ(sc[0].result, -EINVAL);
  EXPECT_EQ(sc[1].user_data, 201u);
  EXPECT_EQ(sc[1].result, -EINVAL);

  machine::CapView rx = ts.heap_b().alloc_view(2048);
  std::size_t got = 0;
  ts.pump_until([&] {
    const std::int64_t r = ff_read(ts.b(), p.b_fd, rx.at(got), 2048 - got);
    if (r > 0) got += static_cast<std::size_t>(r);
    return got >= 1200;
  });
  ASSERT_EQ(got, 1200u);
  std::vector<std::byte> echo(1200);
  rx.read(0, echo);
  EXPECT_EQ(0, std::memcmp(echo.data(), payload.data(), 1200));
  // The zc path queued every byte as a retained reference — no send-side
  // copy anywhere.
  EXPECT_EQ(ts.a().tx_stats().copied_bytes, copied0);
  EXPECT_EQ(ts.a().tx_stats().zc_bytes, 1200u);
}

TEST(UringZcTx, DeadPipelineAbortsEveryStrandedReservation) {
  // A ring zc stream whose peer resets the connection partway through.
  // The first hard send error kills the pipeline, and every reservation
  // it still holds — queued grants and grants that land after the
  // failure — goes back through OP_ZC_ABORT. Once the dead connection is
  // reaped, A's pool is back where the stream began.
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  const std::uint32_t pool0 = ts.pool_a().available();
  AttachedRing ar = attach_ring(ts, 8, 16);
  apps::UringZcTxProto zc(&ar.ring, p.a_fd, 1000, nullptr);
  constexpr std::uint64_t kTotal = 1024 * 1024;
  // A send bounced off the full window (or an alloc off the pool reserve)
  // resubmits only once virtual time moved: resubmitting at the same
  // instant would keep the stack busy and the wire standing still.
  std::optional<sim::Ns> bounced;
  const auto drive = [&] {
    if (bounced != ts.clock().now()) zc.pump(kTotal);
    FfUringCqe cq[16];
    std::size_t n;
    while ((n = ar.ring.cq_pop(cq)) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        zc.on_cqe(cq[i]);
        if (cq[i].result == -EAGAIN || cq[i].result == -ENOBUFS) {
          bounced = ts.clock().now();
        }
      }
    }
  };
  // Reset the stream partway through, while grants are in flight.
  ASSERT_TRUE(ts.pump_until([&] {
    drive();
    return zc.acked() >= 32 * 1024;
  }));
  EXPECT_FALSE(zc.idle());
  TcpPcb* peer = nullptr;
  for (std::uint16_t port = 49152; port < 49160 && peer == nullptr; ++port) {
    peer = ts.b().find_pcb({ts.ip_b(), port, ts.ip_a(), 5201});
  }
  ASSERT_NE(peer, nullptr);
  peer->abort(ECONNRESET);  // B's RST reaches A over the wire
  ASSERT_TRUE(ts.pump_until([&] {
    drive();
    return zc.wound_down();
  }));
  EXPECT_TRUE(zc.failed());
  EXPECT_GE(ts.a().api_stats().zc_aborts, 1u);

  EXPECT_EQ(ff_uring_detach(ts.a(), ar.id), 0);
  ff_close(ts.a(), p.a_fd);
  ff_close(ts.a(), p.listen_fd);
  ff_close(ts.b(), p.b_fd);
  EXPECT_TRUE(ts.pump_until(
      [&] { return ts.pool_a().available() == pool0; }, 4'000'000));
  EXPECT_EQ(ts.pool_a().available(), pool0);
}

// ---------------------------------------------------------------------------
// Multi-ring drain fairness
// ---------------------------------------------------------------------------

TEST(Uring, DrainBudgetIsFairSharedAcrossRings) {
  TwoStacks ts;
  AttachedRing heavy = attach_ring(ts, 256, 256);
  AttachedRing light = attach_ring(ts, 8, 8);

  // Saturate the heavy ring far beyond the whole per-iteration budget.
  for (int i = 0; i < 200; ++i) {
    FfUringSqe sqe;
    sqe.op = UringOp::kNop;
    sqe.user_data = 1000 + static_cast<std::uint64_t>(i);
    ASSERT_NE(heavy.ring.sq_push(sqe), FfUring::Push::kFull);
  }
  for (int iter = 0; iter < 3; ++iter) {
    FfUringSqe ping;
    ping.op = UringOp::kNop;
    ping.user_data = 42;
    ASSERT_NE(light.ring.sq_push(ping), FfUring::Push::kFull);
    const std::uint64_t before = ts.a().api_stats().uring_sqes;
    ts.a().run_once();
    const std::uint64_t consumed = ts.a().api_stats().uring_sqes - before;
    // The budget bounds the WHOLE iteration (previously each ring burned
    // its own 64)...
    EXPECT_LE(consumed, 64u);
    // ...and the light ring drains EVERY iteration despite the heavy
    // backlog: its share is reserved before the heavy ring may take the
    // redistributed remainder.
    FfUringCqe cq[8];
    ASSERT_EQ(light.ring.cq_pop(cq), 1u)
        << "light ring starved on iteration " << iter;
    EXPECT_EQ(cq[0].user_data, 42u);
    // Keep the heavy CQ drained so backpressure never masks fairness.
    FfUringCqe hcq[64];
    while (heavy.ring.cq_pop(hcq) > 0) {
    }
  }
  // The heavy backlog still completes over subsequent iterations.
  ts.pump_until([&] {
    FfUringCqe hcq[64];
    while (heavy.ring.cq_pop(hcq) > 0) {
    }
    return heavy.ring.sq_pending() == 0;
  });
  EXPECT_EQ(heavy.ring.sq_pending(), 0u);
}

// ---------------------------------------------------------------------------
// UDP over the ring: loans only, returned as soon as anything is queued
// ---------------------------------------------------------------------------

TEST(Uring, UdpZcRecvReturnsWhatIsQueuedWithoutWaiting) {
  TwoStacks ts;
  const int a_udp = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const int b_udp = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.a(), a_udp, {Ipv4Addr{}, 9300}), 0);
  ASSERT_EQ(ff_bind(ts.b(), b_udp, {Ipv4Addr{}, 9301}), 0);
  machine::CapView tx = ts.heap_b().alloc_view(100);
  tx.write(0, pattern(100));
  ff_sendto(ts.b(), b_udp, tx, 100, {ts.ip_a(), 9300});
  const auto* sock = ts.a().sockets().get(a_udp);
  ts.pump_until([&] { return sock->udp->queued() == 1; });

  // One of four queued, a1 set the way a burst timeout used to be: the
  // short count comes back at once, and an empty queue is plain -EAGAIN.
  AttachedRing ar = attach_ring(ts, 8, 8);
  FfUringSqe sqe;
  sqe.op = UringOp::kZcRecv;
  sqe.fd = a_udp;
  sqe.user_data = 5;
  sqe.a[0] = 4;
  sqe.a[1] = 50'000'000;
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ASSERT_NE(ar.ring.sq_push(sqe), FfUring::Push::kFull);
  ts.a().run_once();
  FfUringCqe cq[4];
  ASSERT_EQ(ar.ring.cq_pop(cq), 2u);
  EXPECT_EQ(cq[0].result, 100);
  EXPECT_EQ(cq[0].flags & kCqeMore, 0u);
  ASSERT_NE(cq[0].aux0, 0u);
  EXPECT_EQ(cq[1].result, -EAGAIN);
  EXPECT_EQ(cq[1].aux1, 0u);
  FfUringSqe rec;
  rec.op = UringOp::kRecycle;
  rec.a[0] = 1;
  rec.tokens[0] = cq[0].aux0;
  ASSERT_NE(ar.ring.sq_push(rec), FfUring::Push::kFull);
  ts.a().run_once();
  ASSERT_EQ(ar.ring.cq_pop(cq), 1u);
  EXPECT_EQ(cq[0].result, 1);
}

TEST(UringApps, IperfClientZeroCopyTxSendsWithoutStackCopies) {
  TwoStacks ts;
  apps::DirectFfOps ops_a(&ts.a());
  apps::DirectFfOps ops_b(&ts.b());
  constexpr std::uint64_t kBytes = 128 * 1024;

  machine::CapView srv_rx = ts.heap_a().alloc_view(16 * 1024);
  apps::IperfServer srv(&ops_a, &ts.clock(), 5201, srv_rx, 1);
  machine::CapView cli_tx = ts.heap_b().alloc_view(4096);
  apps::IperfClient cli(&ops_b, &ts.clock(), ts.ip_a(), 5201, kBytes,
                        cli_tx.window(0, 1448), 1448, 1);
  ASSERT_EQ(cli.use_uring(ts.heap_b().alloc_view(FfUring::bytes_for(32, 64)),
                          32, 64, /*zero_copy=*/true),
            0);
  const bool done = ts.pump_until([&] {
    srv.step();
    cli.step();
    return srv.finished() && cli.finished();
  });
  ASSERT_TRUE(done);
  EXPECT_EQ(srv.report().bytes, kBytes);
  EXPECT_EQ(cli.report().bytes, kBytes);
  // The whole stream (minus the 1-byte connect probe) rode retained mbuf
  // references: the sending stack copied exactly that probe byte.
  EXPECT_EQ(ts.b().tx_stats().copied_bytes, 1u);
  EXPECT_GE(ts.b().tx_stats().zc_bytes, kBytes - 1);
}
