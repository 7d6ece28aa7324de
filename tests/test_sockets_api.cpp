// The ff_* API surface: sockets, bind/listen/accept, epoll readiness,
// UDP datagrams, error paths, capability-qualified buffer enforcement.
#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "fstack/api.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::TwoStacks;
using cherinet::test::ZcTxRing;

TEST(FfApi, SocketCreationAndFdSpace) {
  TwoStacks ts;
  const int s1 = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  const int s2 = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  EXPECT_GE(s1, 3);  // F-Stack fds start above stdio
  EXPECT_EQ(s2, s1 + 1);
  EXPECT_EQ(ff_socket(ts.a(), 99, kSockStream, 0), -EAFNOSUPPORT);
  EXPECT_EQ(ff_socket(ts.a(), kAfInet, 77, 0), -EPROTONOSUPPORT);
  EXPECT_EQ(ff_close(ts.a(), s1), 0);
  // fd slot is reused.
  EXPECT_EQ(ff_socket(ts.a(), kAfInet, kSockStream, 0), s1);
}

TEST(FfApi, BindValidation) {
  TwoStacks ts;
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_bind(ts.a(), fd, {Ipv4Addr{}, 5000}), 0);
  EXPECT_EQ(ff_bind(ts.a(), fd, {Ipv4Addr{}, 5001}), -EINVAL);  // rebind
  EXPECT_EQ(ff_bind(ts.a(), 999, {Ipv4Addr{}, 1}), -EBADF);
  const int udp1 = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const int udp2 = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  EXPECT_EQ(ff_bind(ts.a(), udp1, {Ipv4Addr{}, 6000}), 0);
  EXPECT_EQ(ff_bind(ts.a(), udp2, {Ipv4Addr{}, 6000}), -EADDRINUSE);
  // The loser stayed unbound: closing it must not release the winner's
  // port, which still receives from stack B.
  EXPECT_EQ(ff_close(ts.a(), udp2), 0);
  const int sender = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  auto msg = ts.heap_b().alloc_view(16);
  EXPECT_EQ(ff_sendto(ts.b(), sender, msg, 16, {ts.ip_a(), 6000}), 16);
  auto rx = ts.heap_a().alloc_view(16);
  EXPECT_TRUE(ts.pump_until(
      [&] { return ff_recvfrom(ts.a(), udp1, rx, 16, nullptr) == 16; }));
  // A fresh loser is free to retry on another port.
  const int udp3 = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  EXPECT_EQ(ff_bind(ts.a(), udp3, {Ipv4Addr{}, 6000}), -EADDRINUSE);
  EXPECT_EQ(ff_bind(ts.a(), udp3, {Ipv4Addr{}, 6001}), 0);
}

TEST(FfApi, ListenAcceptErrors) {
  TwoStacks ts;
  const int fd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_listen(ts.a(), fd, 4), -EINVAL);  // not bound
  EXPECT_EQ(ff_bind(ts.a(), fd, {Ipv4Addr{}, 5000}), 0);
  EXPECT_EQ(ff_listen(ts.a(), fd, 4), 0);
  EXPECT_EQ(ff_accept(ts.a(), fd, nullptr), -EAGAIN);  // nothing queued
  const int fd2 = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_bind(ts.a(), fd2, {Ipv4Addr{}, 5000}), 0);
  EXPECT_EQ(ff_listen(ts.a(), fd2, 4), -EADDRINUSE);
}

TEST(FfApi, AcceptReturnsPeerAddress) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5201});
  ff_listen(ts.b(), lfd, 4);
  const int cfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_connect(ts.a(), cfd, {ts.ip_b(), 5201});
  FfSockAddrIn peer{};
  int bfd = -1;
  ts.pump_until([&] {
    bfd = ff_accept(ts.b(), lfd, &peer);
    return bfd >= 0;
  });
  EXPECT_EQ(peer.ip, ts.ip_a());
  EXPECT_GE(peer.port, 49152);
}

TEST(FfApi, EpollLifecycleAndReadiness) {
  TwoStacks ts;
  const int ep = ff_epoll_create(ts.b());
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5201});
  ff_listen(ts.b(), lfd, 4);
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep, EpollOp::kAdd, lfd, kEpollIn,
                         static_cast<std::uint64_t>(lfd)),
            0);
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep, EpollOp::kAdd, lfd, kEpollIn, 0),
            -EEXIST);

  FfEpollEvent evs[4];
  EXPECT_EQ(ff_epoll_wait(ts.b(), ep, evs), 0);  // not ready yet

  const int cfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_connect(ts.a(), cfd, {ts.ip_b(), 5201});
  ts.pump_until([&] { return ff_epoll_wait(ts.b(), ep, evs) == 1; });
  EXPECT_EQ(evs[0].data, static_cast<std::uint64_t>(lfd));
  EXPECT_TRUE(evs[0].events & kEpollIn);

  const int bfd = ff_accept(ts.b(), lfd, nullptr);
  ASSERT_GE(bfd, 0);
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep, EpollOp::kMod, lfd, 0, 0), 0);
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep, EpollOp::kAdd, bfd,
                         kEpollIn | kEpollOut, 42),
            0);
  ts.pump_until([&] { return ff_epoll_wait(ts.b(), ep, evs) >= 1; });
  EXPECT_EQ(evs[0].data, 42u);
  EXPECT_TRUE(evs[0].events & kEpollOut);  // writable once established
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep, EpollOp::kDel, bfd, 0, 0), 0);
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep, EpollOp::kDel, bfd, 0, 0), -ENOENT);
}

TEST(FfApi, ClosedFdLeavesEveryEpollSet) {
  // As on Linux, closing an fd drops it from every interest set: no
  // error/hang-up event under the dead cookie, and a socket that reuses
  // the number joins afresh instead of inheriting the stale watch.
  TwoStacks ts;
  const int ep1 = ff_epoll_create(ts.b());
  const int ep2 = ff_epoll_create(ts.b());
  const int fd = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(ff_epoll_ctl(ts.b(), ep1, EpollOp::kAdd, fd, kEpollIn, 77), 0);
  ASSERT_EQ(ff_epoll_ctl(ts.b(), ep2, EpollOp::kAdd, fd, kEpollIn, 77), 0);
  ASSERT_EQ(ff_close(ts.b(), fd), 0);

  FfEpollEvent evs[4];
  EXPECT_EQ(ff_epoll_wait(ts.b(), ep1, evs), 0);
  EXPECT_EQ(ff_epoll_wait(ts.b(), ep2, evs), 0);
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep1, EpollOp::kDel, fd, 0, 0), -EBADF);

  const int reused = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(reused, fd);  // the lowest free number comes back
  EXPECT_EQ(ff_epoll_ctl(ts.b(), ep1, EpollOp::kAdd, reused,
                         kEpollIn | kEpollOut, 99),
            0);
  ASSERT_EQ(ff_epoll_wait(ts.b(), ep1, evs), 1);
  EXPECT_EQ(evs[0].data, 99u);
  EXPECT_EQ(evs[0].events, kEpollOut);
  EXPECT_EQ(ff_epoll_wait(ts.b(), ep2, evs), 0);
}

TEST(FfApi, UdpSendtoRecvfromRoundTrip) {
  TwoStacks ts;
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const int sb = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.b(), sb, {Ipv4Addr{}, 7000}), 0);

  auto buf = ts.heap_a().alloc_view(256);
  const char msg[] = "telemetry burst";
  buf.write(0, std::as_bytes(std::span{msg, sizeof msg}));
  EXPECT_EQ(ff_sendto(ts.a(), sa, buf, sizeof msg, {ts.ip_b(), 7000}),
            static_cast<std::int64_t>(sizeof msg));

  auto rx = ts.heap_b().alloc_view(256);
  FfSockAddrIn from{};
  std::int64_t r = -1;
  ts.pump_until([&] {
    r = ff_recvfrom(ts.b(), sb, rx, 256, &from);
    return r >= 0;
  });
  ASSERT_EQ(r, static_cast<std::int64_t>(sizeof msg));
  char got[sizeof msg];
  rx.read(0, std::as_writable_bytes(std::span{got}));
  EXPECT_STREQ(got, msg);
  EXPECT_EQ(from.ip, ts.ip_a());
}

TEST(FfApi, UdpLargeDatagramFragmentsAndReassembles) {
  TwoStacks ts;
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const int sb = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.b(), sb, {Ipv4Addr{}, 7000}), 0);
  constexpr std::size_t kLen = 4000;  // > MTU: 3 fragments
  auto buf = ts.heap_a().alloc_view(kLen);
  for (std::size_t i = 0; i < kLen; i += 8) {
    buf.store<std::uint64_t>(i, i);
  }
  EXPECT_EQ(ff_sendto(ts.a(), sa, buf, kLen, {ts.ip_b(), 7000}),
            static_cast<std::int64_t>(kLen));
  auto rx = ts.heap_b().alloc_view(kLen);
  std::int64_t r = -1;
  ts.pump_until([&] {
    r = ff_recvfrom(ts.b(), sb, rx, kLen, nullptr);
    return r >= 0;
  });
  ASSERT_EQ(r, static_cast<std::int64_t>(kLen));
  for (std::size_t i = 0; i < kLen; i += 8) {
    ASSERT_EQ(rx.load<std::uint64_t>(i), i);
  }
}

TEST(FfApi, UdpOversizeRejected) {
  TwoStacks ts;
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  auto buf = ts.heap_a().alloc_view(256);
  EXPECT_EQ(ff_sendto(ts.a(), sa, buf, 70000, {ts.ip_b(), 7000}), -EMSGSIZE);
}

TEST(FfApi, FaultingSendtoLeavesTheSocketUnbound) {
  // An unbound UDP socket binds on its first send. A send whose buffer the
  // check refuses must fault before that: no ephemeral port, no binding
  // row, no steering filter left behind.
  TwoStacks ts;
  const int sb = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.b(), sb, {Ipv4Addr{}, 7000}), 0);
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  auto small = ts.heap_a().alloc_view(16);
  EXPECT_THROW((void)ff_sendto(ts.a(), sa, small, 64, {ts.ip_b(), 7000}),
               cheri::CapFault);
  EXPECT_FALSE(ts.a().sockets().get(sa)->bound);

  // A good send then binds and delivers.
  auto tx = ts.heap_a().alloc_view(64);
  tx.store<std::uint64_t>(0, 0x5E4D0000u);
  ASSERT_EQ(ff_sendto(ts.a(), sa, tx, 64, {ts.ip_b(), 7000}), 64);
  EXPECT_TRUE(ts.a().sockets().get(sa)->bound);
  const Socket* s = ts.b().sockets().get(sb);
  ts.pump_until([&] { return s->udp->queued() == 1; });
  auto rx = ts.heap_b().alloc_view(64);
  ASSERT_EQ(ff_recvfrom(ts.b(), sb, rx, 64, nullptr), 64);
  EXPECT_EQ(rx.load<std::uint64_t>(0), 0x5E4D0000u);
}

TEST(FfApi, WriteValidatesCapabilityNotJustLength) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5201});
  ff_listen(ts.b(), lfd, 4);
  const int cfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_connect(ts.a(), cfd, {ts.ip_b(), 5201});
  ts.pump_until([&] { return ff_accept(ts.b(), lfd, nullptr) >= 0; });

  // A 64-byte capability with a 4096-byte claimed length: the capability
  // check catches the CVE-style unchecked-length pattern at the copy.
  auto small = ts.heap_a().alloc_view(64);
  ts.pump_until([&] { return ff_write(ts.a(), cfd, small, 64) == 64; });
  EXPECT_THROW((void)ff_write(ts.a(), cfd, small, 4096), cheri::CapFault);
}

TEST(FfApi, ReadWriteOnWrongFdKinds) {
  TwoStacks ts;
  const int udp = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  auto buf = ts.heap_a().alloc_view(64);
  EXPECT_EQ(ff_write(ts.a(), udp, buf, 8), -EBADF);
  EXPECT_EQ(ff_read(ts.a(), udp, buf, 8), -EBADF);
  const int ep = ff_epoll_create(ts.a());
  EXPECT_EQ(ff_write(ts.a(), ep, buf, 8), -EBADF);
  EXPECT_EQ(ff_epoll_wait(ts.a(), udp, {}), -EBADF);
}

// ===========================================================================
// Batched, scatter-gather and zero-copy calls (the contract is api.hpp).
// ===========================================================================

namespace {
/// Establish a TCP connection a() -> b() and return {client_fd, server_fd}.
std::pair<int, int> connect_pair(TwoStacks& ts, std::uint16_t port = 5201) {
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, port});
  ff_listen(ts.b(), lfd, 4);
  const int cfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_connect(ts.a(), cfd, {ts.ip_b(), port});
  int sfd = -1;
  ts.pump_until([&] {
    sfd = ff_accept(ts.b(), lfd, nullptr);
    return sfd >= 0;
  });
  // Wait until the client side is established (writable).
  auto probe = ts.heap_a().alloc_view(1);
  ts.pump_until([&] { return ff_write(ts.a(), cfd, probe, 0) != -EAGAIN; });
  return {cfd, sfd};
}
}  // namespace

TEST(FfApiV2, WritevShortCountWhenBufferFillsMidBatch) {
  TcpConfig tcp;
  tcp.sndbuf_bytes = 4096;  // small ring so the batch overruns it
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const auto [cfd, sfd] = connect_pair(ts);

  auto buf = ts.heap_a().alloc_view(2048);
  const FfIovec iov[3] = {{buf, 2048}, {buf, 2048}, {buf, 2048}};
  // Partial queue: some iovecs fit -> short count, NOT -EAGAIN.
  const std::int64_t r = ff_writev(ts.a(), cfd, iov);
  EXPECT_GT(r, 0);
  EXPECT_LT(r, 6144);
  EXPECT_EQ(r, 4096);  // exactly the ring capacity
  // Completely full now: -EAGAIN.
  EXPECT_EQ(ff_writev(ts.a(), cfd, iov), -EAGAIN);
}

TEST(FfApi, TcpEpollOutWaitsForTheLowWaterMark) {
  // EPOLLOUT on a TCP socket means a 1/kSendLowatDiv share of the send
  // buffer is free: absent one byte below that mark, present at it. Write
  // admission ignores the mark, so a write below it still takes what fits.
  TcpConfig tcp;
  tcp.sndbuf_bytes = 16 * 1024;
  TwoStacks ts(sim::Testbed::unconstrained(), tcp);
  const auto [cfd, sfd] = connect_pair(ts);
  const std::size_t mark = tcp.sndbuf_bytes / TcpPcb::kSendLowatDiv;
  const int ep = ff_epoll_create(ts.a());
  ASSERT_EQ(ff_epoll_ctl(ts.a(), ep, EpollOp::kAdd, cfd, kEpollOut, 7), 0);
  FfEpollEvent ev[1];
  ASSERT_EQ(ff_epoll_wait(ts.a(), ep, ev), 1);

  // A's loop does not run from here on, so no ACK frees anything.
  auto buf = ts.heap_a().alloc_view(tcp.sndbuf_bytes);
  const std::size_t to_mark = tcp.sndbuf_bytes - mark;
  ASSERT_EQ(ff_write(ts.a(), cfd, buf, to_mark),
            static_cast<std::int64_t>(to_mark));
  ASSERT_EQ(ff_epoll_wait(ts.a(), ep, ev), 1);  // free == mark
  EXPECT_EQ(ev[0].events, kEpollOut);
  EXPECT_EQ(ev[0].data, 7u);
  ASSERT_EQ(ff_write(ts.a(), cfd, buf, 1), 1);
  EXPECT_EQ(ff_epoll_wait(ts.a(), ep, ev), 0);  // free == mark - 1
  EXPECT_EQ(ts.a().sock_readiness(cfd) & kEpollOut, 0u);

  EXPECT_EQ(ff_write(ts.a(), cfd, buf, mark),
            static_cast<std::int64_t>(mark - 1));  // partial, not -EAGAIN
  EXPECT_EQ(ff_write(ts.a(), cfd, buf, 1), -EAGAIN);
  // The peer acknowledges everything: the mark is passed again.
  EXPECT_TRUE(
      ts.pump_until([&] { return ff_epoll_wait(ts.a(), ep, ev) == 1; }));
}

TEST(FfApiV2, WritevEmptyAndZeroLengthEdgeCases) {
  TwoStacks ts;
  const auto [cfd, sfd] = connect_pair(ts);
  auto buf = ts.heap_a().alloc_view(64);

  // Empty batch and all-zero-length batches are no-ops, not errors.
  EXPECT_EQ(ff_writev(ts.a(), cfd, {}), 0);
  const FfIovec zeros[2] = {{buf, 0}, {buf, 0}};
  EXPECT_EQ(ff_writev(ts.a(), cfd, zeros), 0);
  EXPECT_EQ(ff_readv(ts.a(), cfd, {}), 0);
  EXPECT_EQ(ff_readv(ts.a(), cfd, zeros), 0);

  // Zero-length elements inside a batch are skipped, not faulted.
  const FfIovec mixed[3] = {{buf, 0}, {buf, 64}, {buf, 0}};
  EXPECT_EQ(ff_writev(ts.a(), cfd, mixed), 64);
}

TEST(FfApiV2, ReadvScattersAcrossIovecs) {
  TwoStacks ts;
  const auto [cfd, sfd] = connect_pair(ts);

  auto tx = ts.heap_a().alloc_view(96);
  for (std::size_t i = 0; i < 96; ++i) {
    tx.store<std::uint8_t>(i, static_cast<std::uint8_t>(i));
  }
  ts.pump_until([&] { return ff_write(ts.a(), cfd, tx, 96) == 96; });

  auto rx = ts.heap_b().alloc_view(96);
  const FfIovec rio[3] = {{rx.window(0, 32), 32},
                          {rx.window(32, 32), 32},
                          {rx.window(64, 32), 32}};
  std::int64_t r = 0;
  ts.pump_until([&] {
    r = ff_readv(ts.b(), sfd, rio);
    return r == 96;
  });
  ASSERT_EQ(r, 96);
  for (std::size_t i = 0; i < 96; ++i) {
    ASSERT_EQ(rx.load<std::uint8_t>(i), static_cast<std::uint8_t>(i));
  }
}

TEST(FfApi, UdpDatagramsArriveInSendOrder) {
  TwoStacks ts;
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const int sb = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.b(), sb, {Ipv4Addr{}, 7000}), 0);

  constexpr int kBurst = 4;
  auto tx = ts.heap_a().alloc_view(kBurst * 8);
  for (int i = 0; i < kBurst; ++i) {
    const auto off = static_cast<std::uint64_t>(i) * 8;
    tx.store<std::uint64_t>(off, 0xB00B5000u + static_cast<std::uint64_t>(i));
    ASSERT_EQ(ff_sendto(ts.a(), sa, tx.window(off, 8), 8, {ts.ip_b(), 7000}),
              8);
  }
  // Wait until the whole burst landed, then drain it one call at a time.
  ts.pump_until([&] {
    const Socket* s = ts.b().sockets().get(sb);
    return s != nullptr && s->udp->queued() == kBurst;
  });
  auto rx = ts.heap_b().alloc_view(8);
  for (int i = 0; i < kBurst; ++i) {
    FfSockAddrIn from{};
    ASSERT_EQ(ff_recvfrom(ts.b(), sb, rx, 8, &from), 8);
    EXPECT_EQ(from.ip, ts.ip_a());
    // Arrival order == submission order (the queue is one FIFO).
    EXPECT_EQ(rx.load<std::uint64_t>(0),
              0xB00B5000u + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ff_recvfrom(ts.b(), sb, rx, 8, nullptr), -EAGAIN);  // drained
}

TEST(FfApi, FaultingRecvfromKeepsTheDatagramAndItsDataRoom) {
  // A destination without store permission faults BEFORE the dequeue: the
  // datagram stays queued and readable, and no pool data room strands. A
  // claimed length past the destination's bounds clamps instead of
  // faulting mid-copy.
  TwoStacks ts;
  const std::uint32_t pool0 = ts.pool_b().available();
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const int sb = ff_socket(ts.b(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.b(), sb, {Ipv4Addr{}, 7000}), 0);
  constexpr int kDgrams = 3;
  auto tx = ts.heap_a().alloc_view(64);
  for (int i = 0; i < kDgrams; ++i) {
    tx.store<std::uint64_t>(0, 0xDA7A0000u + static_cast<std::uint64_t>(i));
    ASSERT_EQ(ff_sendto(ts.a(), sa, tx, 64, {ts.ip_b(), 7000}), 64);
  }
  const Socket* s = ts.b().sockets().get(sb);
  ts.pump_until([&] { return s->udp->queued() == kDgrams; });

  auto rx = ts.heap_b().alloc_view(64);
  const machine::CapView read_only(
      &rx.mem(), rx.cap().with_perms(cheri::PermSet{cheri::Perm::kGlobal} |
                                     cheri::Perm::kLoad));
  const machine::CapView forged(&rx.mem(), rx.cap().cleared());
  for (int i = 0; i < 8; ++i) {
    EXPECT_THROW((void)ff_recvfrom(ts.b(), sb, read_only, 64, nullptr),
                 cheri::CapFault);
    EXPECT_THROW((void)ff_recvfrom(ts.b(), sb, forged, 64, nullptr),
                 cheri::CapFault);
  }
  EXPECT_EQ(s->udp->queued(), static_cast<std::size_t>(kDgrams));

  // 64 bytes claimed into a 16-byte view: the copy clamps to the bounds.
  auto small = ts.heap_b().alloc_view(16);
  EXPECT_EQ(ff_recvfrom(ts.b(), sb, small, 64, nullptr), 16);
  EXPECT_EQ(small.load<std::uint64_t>(0), 0xDA7A0000u);
  for (int i = 1; i < kDgrams; ++i) {
    ASSERT_EQ(ff_recvfrom(ts.b(), sb, rx, 64, nullptr), 64);
    EXPECT_EQ(rx.load<std::uint64_t>(0),
              0xDA7A0000u + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ff_close(ts.b(), sb), 0);
  ts.pump(200);
  EXPECT_EQ(ts.pool_b().available(), pool0);
}

TEST(FfApiV2, ZeroCopySendIsTcpOnlyAndAbortConsumesTheToken) {
  TwoStacks ts;
  ZcTxRing ring(ts);
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  const std::uint32_t pool0 = ts.pool_a().available();

  // A datagram fd answers -EBADF before the token is looked at: the
  // reservation is still live, so the abort releases it exactly once.
  FfZcBuf zc;
  ASSERT_EQ(ring.alloc(32, &zc), 32);
  ASSERT_TRUE(zc.valid());
  EXPECT_EQ(zc.data.size(), 32u);
  EXPECT_EQ(ts.pool_a().available(), pool0 - 1);
  EXPECT_EQ(ring.send(sa, zc.token, 32), -EBADF);
  // The fd answers first whatever the token: forged, or sent oversized.
  EXPECT_EQ(ring.send(sa, 0xDEAD600DULL, 32), -EBADF);
  EXPECT_EQ(ring.send(sa, zc.token, 64), -EBADF);
  EXPECT_EQ(ring.abort(zc.token), 0);
  EXPECT_EQ(ts.pool_a().available(), pool0);
  EXPECT_EQ(ring.abort(zc.token), -EINVAL);
  EXPECT_EQ(ts.pool_a().available(), pool0);

  // Abort consumes the token: a later send of it is -EINVAL.
  const int cfd = connect_pair(ts).first;
  FfZcBuf zc2;
  ASSERT_EQ(ring.alloc(16, &zc2), 16);
  EXPECT_EQ(ring.abort(zc2.token), 0);
  EXPECT_EQ(ring.send(cfd, zc2.token, 16), -EINVAL);
  EXPECT_EQ(ring.abort(zc2.token), -EINVAL);

  // One reservation, one frame: the bound is the MTU's UDP payload
  // (mtu - 28 = 1472), and anything above it is refused outright.
  FfZcBuf zc3;
  ASSERT_EQ(ring.alloc(1472, &zc3), 1472);
  EXPECT_EQ(ring.abort(zc3.token), 0);
  EXPECT_EQ(ring.alloc(1473, &zc3), -EMSGSIZE);
  EXPECT_FALSE(zc3.valid());
  EXPECT_EQ(ring.alloc(60000, &zc3), -EMSGSIZE);
  EXPECT_EQ(ring.alloc(0, &zc3), -EINVAL);
}

TEST(FfApiV2, ZcAbortAfterPoolExhaustionRestoresCapacityExactlyOnce) {
  // Tiny pool so reservations can exhaust it quickly.
  updk::EalConfig eal;
  eal.n_mbufs = 16;
  eal.eth.rx_ring_size = 4;
  eal.eth.tx_ring_size = 4;
  TwoStacks ts(sim::Testbed::unconstrained(), fstack::TcpConfig{}, eal);
  ZcTxRing ring(ts);

  // Reserve until zc allocation refuses. Since the TCP zc TX store can pin
  // reservations until cumulative ACK, OP_ZC_ALLOC keeps a driver reserve
  // (an eighth of the pool, capped at 64) so RX bursts — and the ACKs that
  // would free pinned buffers — can always land; the pool never drains to
  // zero through zc reservations alone.
  const std::uint32_t reserve =
      std::min<std::uint32_t>(64, ts.pool_a().size() / 8);
  std::vector<FfZcBuf> held;
  FfZcBuf z;
  std::int64_t r;
  while ((r = ring.alloc(256, &z)) == 256) held.push_back(z);
  ASSERT_EQ(r, -ENOBUFS);
  ASSERT_FALSE(held.empty());
  ASSERT_EQ(ts.pool_a().available(), reserve);
  // The refusal's CQE carries no token and no room, so an abort-on-failure
  // cleanup cannot release a buffer the application still owns through
  // `held`.
  EXPECT_EQ(z.token, 0u);
  EXPECT_FALSE(z.data.valid());
  EXPECT_EQ(ring.abort(z.token), -EINVAL);
  EXPECT_EQ(ts.pool_a().available(), reserve);

  // Aborting each reservation restores capacity exactly once...
  const std::uint32_t before = ts.pool_a().available();
  for (const FfZcBuf& h : held) EXPECT_EQ(ring.abort(h.token), 0);
  EXPECT_EQ(ts.pool_a().available(),
            before + static_cast<std::uint32_t>(held.size()));
  // ...and a second abort of any token is -EINVAL with no double credit.
  for (const FfZcBuf& h : held) EXPECT_EQ(ring.abort(h.token), -EINVAL);
  EXPECT_EQ(ts.pool_a().available(),
            before + static_cast<std::uint32_t>(held.size()));

  // The pool is usable again end to end.
  FfZcBuf again;
  EXPECT_EQ(ring.alloc(256, &again), 256);
  EXPECT_EQ(ring.abort(again.token), 0);
}

TEST(FfApiV2, BatchValidationIsAtomicOnBoundsOverrun) {
  TwoStacks ts;
  const auto [cfd, sfd] = connect_pair(ts);

  auto good = ts.heap_a().alloc_view(64);
  auto small = ts.heap_a().alloc_view(16);
  good.store<std::uint8_t>(0, 0xAA);

  // iov[1] claims more bytes than its capability authorizes: the whole
  // batch must fault BEFORE iov[0] is queued.
  const FfIovec iov[2] = {{good, 64}, {small, 4096}};
  EXPECT_THROW((void)ff_writev(ts.a(), cfd, iov), cheri::CapFault);

  // No partial leak: the receiver sees exactly the marker byte written
  // after the faulted batch, nothing from it.
  ts.pump(2000);
  auto marker = ts.heap_a().alloc_view(1);
  marker.store<std::uint8_t>(0, 0x5A);
  ts.pump_until([&] { return ff_write(ts.a(), cfd, marker, 1) == 1; });
  auto rx = ts.heap_b().alloc_view(64);
  std::int64_t r = 0;
  ts.pump_until([&] {
    r = ff_read(ts.b(), sfd, rx, 64);
    return r > 0;
  });
  ASSERT_EQ(r, 1);  // only the marker arrived
  EXPECT_EQ(rx.load<std::uint8_t>(0), 0x5A);
}

TEST(FfApiV2, BatchValidationIsAtomicOnMissingPermission) {
  TwoStacks ts;
  const auto [cfd, sfd] = connect_pair(ts);

  auto tx = ts.heap_a().alloc_view(32);
  ts.pump_until([&] { return ff_write(ts.a(), cfd, tx, 32) == 32; });
  auto rx = ts.heap_b().alloc_view(32);
  ts.pump_until(
      [&] { return (ts.b().sock_readiness(sfd) & kEpollIn) != 0; });

  // readv into a LOAD-only view: no store permission anywhere in the batch
  // may consume a single byte.
  const machine::CapView ro = rx.readonly();
  const FfIovec rio[2] = {{rx.window(0, 16), 16}, {ro, 16}};
  EXPECT_THROW((void)ff_readv(ts.b(), sfd, rio), cheri::CapFault);

  // The data is still fully buffered: a clean read gets all 32 bytes.
  EXPECT_EQ(ff_read(ts.b(), sfd, rx, 32), 32);

  // Same rule on the gather side: a write batch with a store-only (no
  // LOAD) element faults whole.
  const machine::CapView wo(&rx.mem(),
                            tx.cap().with_perms(cheri::PermSet{
                                cheri::Perm::kGlobal} |
                                cheri::Perm::kStore));
  const FfIovec wio[2] = {{tx, 16}, {wo, 16}};
  EXPECT_THROW((void)ff_writev(ts.a(), cfd, wio), cheri::CapFault);
}

TEST(FfApiV2, ApiStatsCountBatchesAndSweeps) {
  TwoStacks ts;
  const auto [cfd, sfd] = connect_pair(ts);
  auto buf = ts.heap_a().alloc_view(64);
  const auto before = ts.a().api_stats();
  const FfIovec iov[2] = {{buf, 32}, {buf, 32}};
  ASSERT_GT(ff_writev(ts.a(), cfd, iov), 0);
  ASSERT_EQ(ff_write(ts.a(), cfd, buf, 8), 8);
  const auto& after = ts.a().api_stats();
  EXPECT_EQ(after.batch_calls, before.batch_calls + 1);
  EXPECT_EQ(after.batched_items, before.batched_items + 2);
  EXPECT_EQ(after.v1_calls, before.v1_calls + 1);
  EXPECT_GE(after.validation_sweeps, before.validation_sweeps + 2);
}

TEST(FfApi, CloseListenerAbortsQueuedChildren) {
  TwoStacks ts;
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5201});
  ff_listen(ts.b(), lfd, 4);
  const int cfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  ff_connect(ts.a(), cfd, {ts.ip_b(), 5201});
  auto buf = ts.heap_a().alloc_view(16);
  ts.pump_until([&] { return ff_write(ts.a(), cfd, buf, 1) == 1; });
  // Never accepted: closing the listener aborts the pending child.
  EXPECT_EQ(ff_close(ts.b(), lfd), 0);
  std::int64_t r = 0;
  ts.pump_until(
      [&] {
        r = ff_write(ts.a(), cfd, buf, 16);
        return r < 0 && r != -EAGAIN;
      },
      2'000'000);
  EXPECT_TRUE(r == -ECONNRESET || r == -ETIMEDOUT) << r;
}
