// Zero-copy RX: ff_zc_recv loans, recycle lifecycle, window/pool coupling.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "cheri/fault.hpp"
#include "fixtures.hpp"
#include "fstack/api.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::TwoStacks;

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

  FfZcRxBuf loans[4];
  const std::int64_t n = ff_zc_recv(ts.a(), p.a_fd, loans);
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
  EXPECT_EQ(ff_zc_recycle(ts.a(), z), 0);
}

TEST(ZcRecv, RecycleReturnsMbufDoubleRecycleAndForgeryAreEinval) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  send_from_b(ts, p, pattern(512));

  FfZcRxBuf loans[2];
  ASSERT_EQ(ff_zc_recv(ts.a(), p.a_fd, loans), 1);
  // No pumping between these points: recycling returns the loaned data
  // room to the pool, exactly once.
  const std::uint32_t idle = ts.pool_a().available();
  const std::uint64_t recycles_before = ts.pool_a().stats().recycles;
  ASSERT_EQ(ff_zc_recycle(ts.a(), loans[0]), 0);
  EXPECT_EQ(ts.pool_a().available(), idle + 1);
  EXPECT_GT(ts.pool_a().stats().recycles, recycles_before);
  // The handle is consumed: token zeroed, capability dropped.
  EXPECT_FALSE(loans[0].valid());
  EXPECT_EQ(ff_zc_recycle(ts.a(), loans[0]), -EINVAL);
  // Forged token.
  FfZcRxBuf forged;
  forged.token = 0xDEADBEEFull;
  EXPECT_EQ(ff_zc_recycle(ts.a(), forged), -EINVAL);
  EXPECT_EQ(ts.pool_a().available(), idle + 1);
  // Empty queue reports -EAGAIN.
  EXPECT_EQ(ff_zc_recv(ts.a(), p.a_fd, loans), -EAGAIN);
}

TEST(ZcRecv, InterleavedReadsPreserveByteOrder) {
  TwoStacks ts;
  const TcpPair p = connect_b_to_a(ts);
  // Three segments' worth of distinct bytes, sent in one stream.
  const auto payload = pattern(3 * 1448, 42);
  send_from_b(ts, p, payload);

  std::vector<std::byte> reassembled;
  machine::CapView rd = ts.heap_a().alloc_view(4096);
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
      const std::int64_t n = ff_zc_recv(ts.a(), p.a_fd, loans);
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
  EXPECT_EQ(ff_zc_recycle_batch(ts.a(), outstanding),
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
  std::vector<FfZcRxBuf> held;
  std::uint64_t sent = 0;
  ts.pump_until([&] {
    const std::int64_t w = ff_write(ts.b(), p.b_fd, tx, 1448);
    if (w > 0) sent += static_cast<std::uint64_t>(w);
    FfZcRxBuf loans[4];
    const std::int64_t n = ff_zc_recv(ts.a(), p.a_fd, loans);
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
  EXPECT_EQ(ff_zc_recycle_batch(ts.a(), held),
            static_cast<std::int64_t>(held.size()));
  EXPECT_GE(ts.pool_a().stats().recycles,
            recycles0 + held.size());
  EXPECT_GT(ts.pool_a().available(), 0u);
  // ...and a second recycle of the same handles returns -EINVAL with no
  // double credit.
  const std::uint32_t avail_after = ts.pool_a().available();
  EXPECT_EQ(ff_zc_recycle_batch(ts.a(), held), 0);
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
  FfZcRxBuf loans[2];
  ASSERT_EQ(ff_zc_recv(ts.a(), afd, loans), 1);
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
  const FfZcRxBuf replay = loans[0];
  EXPECT_EQ(ff_zc_recycle(ts.a(), loans[0]), 0);
  FfZcRxBuf again = replay;
  EXPECT_EQ(ff_zc_recycle(ts.a(), again), -EINVAL);
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
  FfZcRxBuf loans[2];
  ASSERT_EQ(ff_zc_recv(ts.a(), p.a_fd, loans), 2);
  // Loaned-out rooms still consume the window (charge moved, not freed)...
  EXPECT_EQ(pcb->rcv_wnd(), wnd_queued);
  ASSERT_EQ(ff_zc_recycle_batch(ts.a(), {loans, 2}), 2);
  // ...and recycling is the only thing that reopens it, exactly once.
  EXPECT_EQ(pcb->rcv_wnd(), wnd_idle);
  FfZcRxBuf stale = loans[0];
  EXPECT_EQ(ff_zc_recycle(ts.a(), stale), -EINVAL);
  EXPECT_EQ(pcb->rcv_wnd(), wnd_idle);
}
