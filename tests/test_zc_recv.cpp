// Zero-copy RX through its one door, the ring: OP_ZC_RECV loans, the
// OP_RECYCLE lifecycle (forged, double and stale tokens refused one by
// one), window/pool coupling.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "apps/uring_proto.hpp"
#include "cheri/fault.hpp"
#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/scenario2.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::TwoStacks;
using cherinet::test::ZcRxRing;

namespace {

struct TcpPair {
  int listen_fd = -1;
  int a_fd = -1;  // accepted side on stack A (the receiver under test)
  int b_fd = -1;  // connecting side on stack B
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

/// Send `payload` from B and pump until A has ALL of it queued.
void send_from_b(TwoStacks& ts, const TcpPair& p,
                 std::span<const std::byte> payload) {
  machine::CapView tx = ts.heap_b().alloc_view(payload.size());
  tx.write(0, payload);
  std::size_t sent = 0;
  const auto* sock = ts.a().sockets().get(p.a_fd);
  ASSERT_NE(sock, nullptr);
  ts.pump_until([&] {
    if (sent < payload.size()) {
      const std::int64_t r = ff_write(ts.b(), p.b_fd, tx.at(sent),
                                      payload.size() - sent);
      if (r > 0) sent += static_cast<std::size_t>(r);
    }
    return sent == payload.size() &&
           sock->pcb->debug_snapshot().rcv_used == payload.size();
  });
  ASSERT_EQ(sock->pcb->debug_snapshot().rcv_used, payload.size());
}

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return v;
}

}  // namespace

TEST(ZcRecv, LoanIsExactlyBoundedAndReadOnly) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  const auto payload = pattern(1000);
  send_from_b(ts, p, payload);

  ZcRxRing rx(ts);
  FfZcRxBuf loans[4];
  const std::int64_t n = rx.recv(p.a_fd, loans);
  ASSERT_EQ(n, 1);
  FfZcRxBuf& z = loans[0];
  ASSERT_TRUE(z.valid());
  // Bounds are EXACTLY the payload: size matches, and reading one byte
  // past the top faults at the capability, not at some neighbour's data.
  EXPECT_EQ(z.data.size(), payload.size());
  std::vector<std::byte> got(payload.size());
  z.data.read(0, got);
  EXPECT_EQ(0, std::memcmp(got.data(), payload.data(), payload.size()));
  std::byte one[1];
  EXPECT_THROW(z.data.read(payload.size(), one), cheri::CapFault);
  // Read-only: any store through the loan faults.
  const std::byte b0[1] = {std::byte{0xFF}};
  EXPECT_THROW(z.data.write(0, b0), cheri::CapFault);
  // The peer address rides along.
  EXPECT_EQ(z.from.ip, ts.ip_b());
  EXPECT_EQ(rx.recycle(z), 1);
}

TEST(ZcRecv, RecycleReturnsMbufDoubleRecycleAndForgeryAreEinval) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  send_from_b(ts, p, pattern(512));

  ZcRxRing rx(ts);
  FfZcRxBuf loans[2];
  ASSERT_EQ(rx.recv(p.a_fd, loans), 1);
  // No pumping between these points: recycling returns the loaned data
  // room to the pool, exactly once.
  const std::uint32_t idle = ts.pool_a().available();
  const std::uint64_t recycles_before = ts.pool_a().stats().recycles;
  const FfUringCqe ok = rx.recycle({&loans[0].token, 1});
  EXPECT_EQ(ok.result, 1);
  EXPECT_EQ(ok.aux0, 0u);
  EXPECT_EQ(ts.pool_a().available(), idle + 1);
  EXPECT_GT(ts.pool_a().stats().recycles, recycles_before);
  // The token is consumed: a second recycle is refused, and so is a forged
  // token. aux0 counts each refusal; the pool does not move.
  const FfUringCqe twice = rx.recycle({&loans[0].token, 1});
  EXPECT_EQ(twice.result, -EINVAL);
  EXPECT_EQ(twice.aux0, 1u);
  const std::uint64_t forged = 0xDEADBEEFull;
  const FfUringCqe fake = rx.recycle({&forged, 1});
  EXPECT_EQ(fake.result, -EINVAL);
  EXPECT_EQ(fake.aux0, 1u);
  EXPECT_EQ(ts.pool_a().available(), idle + 1);
  // Empty queue reports -EAGAIN.
  EXPECT_EQ(rx.recv(p.a_fd, loans), -EAGAIN);
}

TEST(ZcRecv, RefusedTokensInAnEntryLeaveTheOwnersLoanRecyclable) {
  // One OP_RECYCLE mixing good and bad tokens recycles the good ones and
  // counts the rest in aux0; a loan whose token was refused stays valid.
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  send_from_b(ts, p, pattern(3 * 1448, 5));
  ZcRxRing rx(ts);
  FfZcRxBuf loans[3];
  ASSERT_EQ(rx.recv(p.a_fd, loans), 3);
  ASSERT_EQ(rx.recycle(loans[0]), 1);
  // Stale (already recycled), forged, good, and the good one twice.
  const std::uint64_t mix[] = {loans[0].token, 0xBADull, loans[1].token,
                               loans[1].token};
  const FfUringCqe c = rx.recycle(mix);
  EXPECT_EQ(c.result, 1);
  EXPECT_EQ(c.aux0, 3u);
  // The third loan was never named: still readable, still recyclable.
  std::vector<std::byte> got(loans[2].data.size());
  loans[2].data.read(0, got);
  EXPECT_EQ(ts.a().api_stats().zc_rx_loans -
                ts.a().api_stats().zc_rx_recycles,
            1u);
  EXPECT_EQ(rx.recycle(loans[2]), 1);
  EXPECT_EQ(ts.a().api_stats().zc_rx_recycles,
            ts.a().api_stats().zc_rx_loans);
}

TEST(ZcRecv, InterleavedReadsPreserveByteOrder) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  // Three segments' worth of distinct bytes, sent in one stream.
  const auto payload = pattern(3 * 1448, 42);
  send_from_b(ts, p, payload);

  std::vector<std::byte> reassembled;
  machine::CapView rd = ts.heap_a().alloc_view(4096);
  ZcRxRing rx(ts);
  std::vector<FfZcRxBuf> outstanding;
  bool use_read = true;
  while (reassembled.size() < payload.size()) {
    if (use_read) {
      // Lazy copy out of the queued chain: 100 bytes at a time.
      const std::int64_t r = ff_read(ts.a(), p.a_fd, rd, 100);
      ASSERT_GT(r, 0);
      std::vector<std::byte> tmp(static_cast<std::size_t>(r));
      rd.read(0, tmp);
      reassembled.insert(reassembled.end(), tmp.begin(), tmp.end());
    } else {
      // Pop the rest of the current segment as a loan and read in place,
      // HOLDING the loan (recycled later) — order must still hold.
      FfZcRxBuf loans[1];
      const std::int64_t n = rx.recv(p.a_fd, loans);
      ASSERT_EQ(n, 1);
      std::vector<std::byte> tmp(loans[0].data.size());
      loans[0].data.read(0, tmp);
      reassembled.insert(reassembled.end(), tmp.begin(), tmp.end());
      outstanding.push_back(loans[0]);
    }
    use_read = !use_read;
  }
  ASSERT_EQ(reassembled.size(), payload.size());
  EXPECT_EQ(0, std::memcmp(reassembled.data(), payload.data(),
                           payload.size()));
  EXPECT_EQ(rx.recycle(outstanding),
            static_cast<std::int64_t>(outstanding.size()));
}

TEST(ZcRecv, PoolExhaustionUnderLoadAndRecycleIsTheOnlyWayBack) {
  // Tiny pool: 24 data rooms serve descriptors rings are sized separately —
  // un-recycled loans must starve RX, and recycling must revive it.
  updk::EalConfig eal;
  eal.n_mbufs = 24;
  eal.eth.rx_ring_size = 8;
  eal.eth.tx_ring_size = 8;
  TwoStacks ts(sim::Testbed::unconstrained(), fstack::TcpConfig{}, eal);
  const TcpPair p = connect_b_to_a(ts);

  // B streams continuously; A takes loans and NEVER recycles.
  machine::CapView tx = ts.heap_b().alloc_view(1448);
  ZcRxRing rx(ts);
  std::vector<FfZcRxBuf> held;
  std::uint64_t sent = 0;
  ts.pump_until([&] {
    const std::int64_t w = ff_write(ts.b(), p.b_fd, tx, 1448);
    if (w > 0) sent += static_cast<std::uint64_t>(w);
    FfZcRxBuf loans[4];
    const std::int64_t n = rx.recv(p.a_fd, loans);
    for (std::int64_t i = 0; i < n; ++i) held.push_back(loans[i]);
    // Stop once the receiver's pool is fully drained by held loans.
    return ts.pool_a().available() == 0;
  });
  ASSERT_EQ(ts.pool_a().available(), 0u);
  ASSERT_FALSE(held.empty());

  // Under exhaustion the stack cannot even allocate; nothing but recycle
  // refills the ring (free paths of the RX burst already ran).
  ts.pump(2000);
  EXPECT_EQ(ts.pool_a().available(), 0u);
  EXPECT_GT(ts.pool_a().stats().alloc_failures, 0u);

  // Recycle every loan: capacity returns exactly once per loan...
  const std::uint64_t recycles0 = ts.pool_a().stats().recycles;
  EXPECT_EQ(rx.recycle(held), static_cast<std::int64_t>(held.size()));
  EXPECT_GE(ts.pool_a().stats().recycles,
            recycles0 + held.size());
  EXPECT_GT(ts.pool_a().available(), 0u);
  // ...and a second recycle of the same handles returns -EINVAL with no
  // double credit.
  const std::uint32_t avail_after = ts.pool_a().available();
  EXPECT_EQ(rx.recycle(held), 0);
  EXPECT_EQ(ts.pool_a().available(), avail_after);

  // The datapath is fully revived: a FRESH connection establishes and
  // moves bytes end to end with the recycled buffers. (The original
  // connection marched through its RTO backoffs while RX was starved —
  // hundreds of virtual seconds — so it may have timed out; the property
  // recycling guarantees is the POOL's health, not that flow's.)
  const TcpPair p2 = connect_b_to_a(ts, 5202);
  machine::CapView tx2 = ts.heap_b().alloc_view(4096);
  std::uint64_t sent2 = 0;
  std::uint64_t drained = 0;
  machine::CapView rd = ts.heap_a().alloc_view(8192);
  ts.pump_until([&] {
    if (sent2 < 8192) {
      const std::int64_t w = ff_write(ts.b(), p2.b_fd, tx2, 4096);
      if (w > 0) sent2 += static_cast<std::uint64_t>(w);
    }
    const std::int64_t r = ff_read(ts.a(), p2.a_fd, rd, 8192);
    if (r > 0) drained += static_cast<std::uint64_t>(r);
    return drained >= 8192;
  });
  EXPECT_GE(drained, 8192u);
}

TEST(ZcRecv, UdpLoanCarriesDatagramSource) {
  TwoStacks ts;
  const int afd = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.a(), afd, {Ipv4Addr{}, 7000}), 0);
  const int bfd = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.b(), bfd, {Ipv4Addr{}, 7001}), 0);

  const auto payload = pattern(600, 9);
  machine::CapView tx = ts.heap_b().alloc_view(payload.size());
  tx.write(0, payload);
  ASSERT_EQ(ff_sendto(ts.b(), bfd, tx, payload.size(), {ts.ip_a(), 7000}),
            static_cast<std::int64_t>(payload.size()));
  ts.pump_until([&] { return (ts.a().sock_readiness(afd) & kEpollIn) != 0; });

  const std::uint64_t copied_before = ts.a().rx_stats().copied_bytes;
  ZcRxRing rx(ts);
  FfZcRxBuf loans[2];
  ASSERT_EQ(rx.recv(afd, loans), 1);
  EXPECT_EQ(ts.a().rx_stats().copied_bytes, copied_before)
      << "a datagram loan must not copy a byte";
  EXPECT_EQ(loans[0].data.size(), payload.size());
  EXPECT_EQ(loans[0].from.ip, ts.ip_b());
  EXPECT_EQ(loans[0].from.port, 7001);
  std::vector<std::byte> got(payload.size());
  loans[0].data.read(0, got);
  EXPECT_EQ(0, std::memcmp(got.data(), payload.data(), payload.size()));
  const std::byte junk[1] = {std::byte{0xFF}};
  EXPECT_THROW(loans[0].data.write(0, junk), cheri::CapFault);
  EXPECT_EQ(rx.recycle(loans[0]), 1);
  EXPECT_EQ(rx.recycle(loans[0]), -EINVAL);
}

TEST(ZcRecv, OutstandingLoansThrottleTheAdvertisedWindow) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  auto* pcb = ts.a().sockets().get(p.a_fd)->pcb;
  ASSERT_NE(pcb, nullptr);
  const std::uint32_t wnd_idle = pcb->rcv_wnd();
  send_from_b(ts, p, pattern(2 * 1448));
  // Queued slices charge their whole data rooms, shrinking the window.
  const std::uint32_t wnd_queued = pcb->rcv_wnd();
  EXPECT_LT(wnd_queued, wnd_idle);
  ZcRxRing rx(ts);
  FfZcRxBuf loans[2];
  ASSERT_EQ(rx.recv(p.a_fd, loans), 2);
  // Loaned-out rooms still consume the window (charge moved, not freed)...
  EXPECT_EQ(pcb->rcv_wnd(), wnd_queued);
  ASSERT_EQ(rx.recycle(loans), 2);
  // ...and recycling is the only thing that reopens it, exactly once.
  EXPECT_EQ(pcb->rcv_wnd(), wnd_idle);
  EXPECT_EQ(rx.recycle(loans[0]), -EINVAL);
  EXPECT_EQ(pcb->rcv_wnd(), wnd_idle);
}

TEST(ZcRecv, RefusedRecyclePushWaitsInTheStoreAndNeverCrosses) {
  // A Scenario 2 app streams loans off its ring and, on every turn that
  // brought loans, fills the SQ with NOPs before it hands their tokens to
  // the FfUringRecycler, so no OP_RECYCLE can be pushed then. A refused batch
  // waits in the store (which throws past its bound) and goes out on a
  // later push: every token comes back through OP_RECYCLE, the app crosses
  // only for doorbells, and at quiesce the pool balances.
  constexpr std::uint64_t kVolume = 256 * 1024;
  constexpr std::uint64_t kUdEpoll = 1;
  scen::TestbedOptions opt;
  opt.cost = sim::CostModel::disabled();
  scen::LockstepRig rig(scen::ScenarioKind::kScenario2Uncontended, 1, kVolume,
                        opt);
  rig.testbed().peer(0).run_iperf_client(scen::MorelloTestbed::morello_ip(0),
                                         5201, kVolume);
  scen::FullStackInstance& inst = rig.service()->instance();
  updk::Mempool& pool = inst.pool();
  const auto& api = inst.stack().api_stats();
  const auto& entries = rig.testbed().intravisor().entries();
  const machine::CapView mem =
      rig.alloc(FfUring::bytes_for(ZcRxRing::kSq, ZcRxRing::kCq));
  // What the driver holds before any traffic: its posted RX descriptors.
  const std::uint32_t driver_held = pool.size() - pool.available();

  std::uint64_t got = 0;
  std::uint64_t loans = 0;
  std::uint64_t recycled = 0;
  std::uint64_t refused = 0;
  std::size_t max_pending = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t crossed = 0;
  rig.run(0, [&] {
    apps::FfOps& ops = rig.ops();
    const int lfd = ops.socket_stream();
    ops.bind(lfd, Ipv4Addr{}, 5201);
    ops.listen(lfd, 4);
    int cfd = -1;
    while ((cfd = ops.accept(lfd)) < 0 && rig.turn(false)) {
    }
    ASSERT_GE(cfd, 0);
    const int ep = ops.epoll_create();
    ops.epoll_ctl(ep, EpollOp::kAdd, cfd, kEpollIn,
                  static_cast<std::uint64_t>(cfd));
    ZcRxRing rx(ops, mem);
    FfUring& ring = rx.ring();
    // One burst in flight at a time: at most kMaxCaps loans to arrive.
    FfUringRecycler recycler(&ring, FfUringSqe::kMaxCaps);
    const std::uint64_t x0 = entries.crossings();
    const auto ring_bell = [&] {
      ops.uring_doorbell(rx.id());
      ++doorbells;
    };
    FfUringSqe arm;
    arm.op = UringOp::kEpollArm;
    arm.fd = ep;
    arm.user_data = kUdEpoll;
    if (ring.sq_push(arm) == FfUring::Push::kDoorbell) ring_bell();
    bool hot = false;  // readable: a burst is worth submitting
    bool inflight = false;
    bool eof = false;
    std::vector<std::uint64_t> arrived;
    const auto reap = [&] {
      FfUringCqe cq[ZcRxRing::kCq];
      const std::size_t n = ring.cq_pop(cq);
      for (std::size_t i = 0; i < n; ++i) {
        const FfUringCqe& c = cq[i];
        if (c.op == UringOp::kRecycle) {
          recycled += c.result > 0 ? static_cast<std::uint64_t>(c.result) : 0;
          refused += c.aux0;
        } else if (c.op == UringOp::kEpollArm) {
          hot |= c.result > 0 &&
                 (c.result & (kEpollIn | kEpollHup)) != 0;
        } else if (c.op == UringOp::kZcRecv) {
          if ((c.flags & kCqeEof) != 0) {
            eof = true;
          } else if (c.result >= 0) {
            got += static_cast<std::uint64_t>(c.result);
            arrived.push_back(c.aux0);
          } else {
            hot = false;  // drained: wait for the next readiness CQE
          }
          if ((c.flags & kCqeMore) == 0) inflight = false;
        }
      }
      return n;
    };
    FfUringDoorbellPolicy bell;
    while (!eof || inflight) {
      arrived.clear();
      reap();
      const bool moved = !arrived.empty() || eof;
      if (!arrived.empty()) {
        const FfUringSqe nop;  // hold the SQ full while the tokens go in
        while (ring.sq_push(nop) != FfUring::Push::kFull) {
        }
      }
      for (const std::uint64_t tok : arrived) recycler.add(tok);
      loans += arrived.size();
      max_pending = std::max(max_pending, recycler.pending());
      recycler.retry();
      if (hot && !inflight && !eof &&
          apps::push_zc_recv(ring, cfd, FfUringSqe::kMaxCaps, 0)) {
        inflight = true;
      }
      if (bell.should_ring(ring, moved)) ring_bell();
      if (!rig.turn(moved)) break;
    }
    // Quiesce: the tail goes out through the ring, drained by doorbells.
    arrived.clear();
    for (int spins = 0; spins < 64; ++spins) {
      reap();
      recycler.flush();
      if (ring.sq_pending() == 0) break;
      ring_bell();
    }
    while (reap() > 0) {
    }
    EXPECT_TRUE(arrived.empty());
    EXPECT_EQ(recycler.pending(), 0u);
    crossed = entries.crossings() - x0;
    ops.uring_detach(rx.id());
    ops.close(ep);
    ops.close(cfd);
    ops.close(lfd);
  });
  for (int i = 0; i < 2000 && rig.turn(false); ++i) {
  }

  EXPECT_EQ(got, kVolume);
  // The refused path ran: a store holding a whole batch or more means the
  // add that reached kMaxTokens found the SQ full.
  EXPECT_GE(max_pending, FfUringSqe::kMaxTokens);
  // Every token came back through OP_RECYCLE, none was refused.
  EXPECT_EQ(recycled, loans);
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(api.zc_rx_loans, loans);
  EXPECT_EQ(api.zc_rx_recycles, api.zc_rx_loans);
  // Between the attach and the detach the app crossed for doorbells only.
  EXPECT_GT(doorbells, 0u);
  EXPECT_EQ(crossed, doorbells);
  // Free + loaned + in flight (the driver's RX descriptors) = total.
  EXPECT_EQ(pool.available() + (api.zc_rx_loans - api.zc_rx_recycles) +
                driver_held,
            pool.size());
}
