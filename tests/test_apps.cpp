// Applications: iperf over the fixture, echo, MAVLink codec + the
// CVE-2024-38951-style trusting parser faulting under CHERI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <string>

#include "apps/echo.hpp"
#include "apps/iperf.hpp"
#include "apps/mavlink.hpp"
#include "fixtures.hpp"

using namespace cherinet;
using cherinet::test::TwoStacks;

TEST(Iperf, TransfersAndReportsBandwidth) {
  TwoStacks ts;
  apps::DirectFfOps ops_a(&ts.a());
  apps::DirectFfOps ops_b(&ts.b());
  auto rx = ts.heap_b().alloc_view(64 * 1024);
  auto tx = ts.heap_a().alloc_view(16 * 1024);
  apps::IperfServer server(&ops_b, &ts.clock(), 5201, rx, 1);
  apps::IperfClient client(&ops_a, &ts.clock(), ts.ip_b(), 5201,
                           2 * 1024 * 1024, tx);
  ts.pump_until([&] {
    client.step();
    server.step();
    return server.finished() && client.finished();
  });
  ASSERT_TRUE(server.finished());
  EXPECT_EQ(server.report().bytes, 2 * 1024 * 1024u);
  // Unconstrained testbed still paces at 1 GbE: goodput must be close to
  // (and never above) the 941.5 Mbit/s ceiling.
  EXPECT_GT(server.report().mbit_per_sec(), 800.0);
  EXPECT_LE(server.report().mbit_per_sec(), 945.0);
}

TEST(Iperf, MultipleConnectionsAggregate) {
  TwoStacks ts;
  apps::DirectFfOps ops_a(&ts.a());
  apps::DirectFfOps ops_b(&ts.b());
  auto rx = ts.heap_b().alloc_view(64 * 1024);
  apps::IperfServer server(&ops_b, &ts.clock(), 5201, rx, 2);
  auto tx1 = ts.heap_a().alloc_view(8 * 1024);
  auto tx2 = ts.heap_a().alloc_view(8 * 1024);
  apps::IperfClient c1(&ops_a, &ts.clock(), ts.ip_b(), 5201, 256 * 1024, tx1);
  apps::IperfClient c2(&ops_a, &ts.clock(), ts.ip_b(), 5201, 256 * 1024, tx2);
  ts.pump_until([&] {
    c1.step();
    c2.step();
    server.step();
    return server.finished();
  });
  EXPECT_EQ(server.connections_completed(), 2);
  EXPECT_EQ(server.report().bytes, 512 * 1024u);
  EXPECT_EQ(server.connection_reports().size(), 2u);
}

TEST(Echo, RoundTripMessage) {
  TwoStacks ts;
  apps::DirectFfOps ops_a(&ts.a());
  apps::DirectFfOps ops_b(&ts.b());
  apps::EchoServer server(&ops_b, 7777, ts.heap_b().alloc_view(4096));
  apps::EchoClient client(&ops_a, ts.ip_b(), 7777,
                          "compartmentalize all the things",
                          ts.heap_a().alloc_view(4096));
  ts.pump_until([&] {
    server.step();
    client.step();
    return client.done();
  });
  EXPECT_EQ(client.reply(), "compartmentalize all the things");
  EXPECT_EQ(server.bytes_echoed(), client.reply().size());
}

TEST(Echo, LargeMessageRoundTripsByteExact) {
  // 4 MiB outruns both directions' buffers, so the server's writev comes
  // back short or -EAGAIN; the bytes it could not send yet still go out,
  // in order, before it reads more.
  TwoStacks ts;
  apps::DirectFfOps ops_a(&ts.a());
  apps::DirectFfOps ops_b(&ts.b());
  std::string message(4 * 1024 * 1024, '\0');
  std::uint32_t x = 1;
  for (char& ch : message) {
    x = x * 1103515245u + 12345u;
    ch = static_cast<char>(x >> 24);
  }
  apps::EchoServer server(&ops_b, 7777, ts.heap_b().alloc_view(16 * 1024));
  apps::EchoClient client(&ops_a, ts.ip_b(), 7777, message,
                          ts.heap_a().alloc_view(16 * 1024));
  ts.pump_until(
      [&] {
        server.step();
        client.step();
        return client.done();
      },
      1'000'000);
  ASSERT_EQ(client.reply().size(), message.size());
  const auto diverge = std::mismatch(message.begin(), message.end(),
                                     client.reply().begin());
  EXPECT_EQ(diverge.first - message.begin(),
            static_cast<std::ptrdiff_t>(message.size()));
  EXPECT_EQ(server.bytes_echoed(), message.size());
}

TEST(Echo, ResetConnectionIsClosed) {
  // A read that fails with anything but -EAGAIN ends the connection like
  // EOF: the server closes the fd instead of re-reading it every step.
  TwoStacks ts;
  apps::DirectFfOps ops_b(&ts.b());
  apps::EchoServer server(&ops_b, 7777, ts.heap_b().alloc_view(4096));
  const auto open_conns = [&] {
    int n = 0;
    for (int fd = fstack::SocketTable::kFirstFd; fd < 16; ++fd) {
      const fstack::Socket* s = ts.b().sockets().get(fd);
      if (s != nullptr && s->kind == fstack::SockKind::kTcp && !s->listening) {
        ++n;
      }
    }
    return n;
  };
  const int fd = fstack::ff_socket(ts.a(), fstack::kAfInet,
                                   fstack::kSockStream, 0);
  fstack::ff_connect(ts.a(), fd, {ts.ip_b(), 7777});
  ASSERT_TRUE(ts.pump_until([&] {
    server.step();
    return open_conns() == 1;
  }));
  fstack::TcpPcb* client = nullptr;
  for (std::uint16_t port = 49152; port < 49160 && client == nullptr;
       ++port) {
    client = ts.a().find_pcb({ts.ip_a(), port, ts.ip_b(), 7777});
  }
  ASSERT_NE(client, nullptr);
  client->abort(ECONNRESET);  // the RST reaches B over the wire
  bool closed_step = false;
  EXPECT_TRUE(ts.pump_until(
      [&] {
        closed_step |= server.step();
        return open_conns() == 0;
      },
      10'000));
  EXPECT_TRUE(closed_step);  // the close counts as progress
  EXPECT_FALSE(server.step());
}

// ------------------------------------------------------------- MAVLink

TEST(Mavlink, Crc16McrF4xxVector) {
  // MAVLink's "X.25" checksum is CRC-16/MCRF4XX (no final inversion):
  // check value for "123456789" is 0x6F91.
  const char* s = "123456789";
  EXPECT_EQ(apps::mav_crc16(std::as_bytes(std::span{s, 9})), 0x6F91);
}

TEST(Mavlink, EncodeParseRoundTrip) {
  machine::AddressSpace as(1 << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  const auto msg = apps::make_attitude(3, 0.1f, -0.2f, 1.5f);
  const auto frame = apps::mav_encode(msg);
  auto buf = heap.alloc_view(frame.size());
  buf.write(0, frame);
  const auto parsed = apps::mav_parse_strict(buf, frame.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->msgid, apps::MavMsgId::kAttitude);
  EXPECT_EQ(parsed->seq, 3);
  EXPECT_EQ(parsed->payload, msg.payload);
}

TEST(Mavlink, StrictParserRejectsCorruptCrc) {
  machine::AddressSpace as(1 << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  auto frame = apps::mav_encode(apps::make_heartbeat(1));
  frame[7] ^= std::byte{0xFF};  // corrupt payload
  auto buf = heap.alloc_view(frame.size());
  buf.write(0, frame);
  EXPECT_FALSE(apps::mav_parse_strict(buf, frame.size()).has_value());
}

TEST(Mavlink, StrictParserRejectsCraftedLength) {
  machine::AddressSpace as(1 << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  auto frame = apps::mav_encode(apps::make_heartbeat(1));
  frame[1] = std::byte{200};  // claim a 200-byte payload
  auto buf = heap.alloc_view(frame.size());
  buf.write(0, frame);
  EXPECT_FALSE(apps::mav_parse_strict(buf, frame.size()).has_value());
}

TEST(Mavlink, TrustingParserOverreadsAndCheriCatchesIt) {
  machine::AddressSpace as(1 << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  auto frame = apps::mav_encode(apps::make_heartbeat(1));
  frame[1] = std::byte{200};  // CVE-2024-38951 pattern: lying length byte
  // The receive buffer capability is bounded to the actual frame.
  auto buf = heap.alloc_view(frame.size());
  buf.write(0, frame);
  const auto bounded = buf.window(0, frame.size());
  try {
    (void)apps::mav_parse_trusting(bounded, frame.size());
    FAIL() << "trusting parser must overread";
  } catch (const cheri::CapFault& f) {
    EXPECT_EQ(f.kind(), cheri::FaultKind::kBoundsViolation);
  }
  // The same crafted frame on a non-CHERI system would have silently read
  // 200 bytes of neighbouring memory; strict parsing refuses it instead.
  EXPECT_FALSE(apps::mav_parse_strict(bounded, frame.size()).has_value());
}

TEST(Mavlink, HeartbeatAndAttitudeHelpers) {
  const auto hb = apps::make_heartbeat(9);
  EXPECT_EQ(hb.msgid, apps::MavMsgId::kHeartbeat);
  EXPECT_EQ(hb.payload.size(), 9u);
  const auto att = apps::make_attitude(1, 0, 0, 0);
  EXPECT_EQ(att.payload.size(), 28u);
  EXPECT_NE(apps::mav_crc_extra(apps::MavMsgId::kHeartbeat),
            apps::mav_crc_extra(apps::MavMsgId::kAttitude));
}

TEST(IperfReport, BandwidthMath) {
  apps::IperfReport r;
  r.bytes = 125'000'000;  // 1 Gbit
  r.first_byte = sim::Ns{0};
  r.last_byte = sim::Ns{1'000'000'000};
  EXPECT_NEAR(r.mbit_per_sec(), 1000.0, 1e-6);
  apps::IperfReport empty;
  EXPECT_EQ(empty.mbit_per_sec(), 0.0);
}
