// Hardware-offload path (API v8): legacy checksum insertion and TSO in the
// 82576 device model must agree bit-for-bit with the stack's composable
// software checksums; queues with offloads masked off must fall back to the
// software path and still put identical bytes on the wire; mixed-capability
// shards coexist on one port; and a corrupt frame that survives the FCS
// must die at the RX checksum verdict, not reach a socket.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <random>
#include <vector>

#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "fstack/checksum.hpp"
#include "fstack/headers.hpp"
#include "nic/crc32.hpp"
#include "nic/e82576.hpp"
#include "scenarios/stack_instance.hpp"
#include "updk/ethdev.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::TwoStacks;
using sim::Ns;

namespace {

std::uint16_t be16(std::span<const std::byte> b, std::size_t at) {
  return static_cast<std::uint16_t>(
      (std::to_integer<std::uint16_t>(b[at]) << 8) |
      std::to_integer<std::uint16_t>(b[at + 1]));
}

std::uint32_t be32(std::span<const std::byte> b, std::size_t at) {
  return (std::uint32_t{be16(b, at)} << 16) | be16(b, at + 2);
}

void put_be16(std::span<std::byte> b, std::size_t at, std::uint16_t v) {
  b[at] = std::byte{static_cast<std::uint8_t>(v >> 8)};
  b[at + 1] = std::byte{static_cast<std::uint8_t>(v & 0xFF)};
}

/// One port of the device model wired for TX capture: descriptor rings and
/// buffers in tagged memory, frames drained from the far wire side.
struct OffloadDeviceFixture : ::testing::Test {
  sim::VirtualClock clock;
  cheri::TaggedMemory mem{1 << 20};
  cheri::Capability root =
      cheri::CapabilityMinter::mint_root(0, 1 << 20, cheri::PermSet::all());
  nic::Wire wire{&clock, nullptr, sim::Testbed::unconstrained()};
  nic::E82576Device dev{&mem, &clock,
                        {nic::MacAddr::local(1), nic::MacAddr::local(2)}};

  static constexpr std::uint64_t kTxRing = 0x1000;
  static constexpr std::uint64_t kTxBuf = 0x4000;
  static constexpr std::uint32_t kRingSlots = 8;
  std::uint32_t tail = 0;

  void SetUp() override {
    dev.connect(0, &wire, 0);
    dev.attach_dma(0, root.with_bounds(0x1000, 0xF000)
                          .with_perms(cheri::PermSet::data_rw()));
    auto& p = dev.port(0);
    p.set_tx_ring(kTxRing, kRingSlots);
    p.enable();
  }

  /// Drain every frame currently on the wire (FCS stripped).
  std::vector<std::vector<std::byte>> drain_wire() {
    clock.advance_to(clock.now() + Ns{1'000'000'000});
    std::vector<std::vector<std::byte>> out;
    for (auto& f : wire.poll(1)) {
      if (f.data.size() < 4) {
        ADD_FAILURE() << "frame shorter than its FCS";
        continue;
      }
      f.data.resize(f.data.size() - 4);
      out.push_back(std::move(f.data));
    }
    return out;
  }

  /// Send `frame` as one descriptor with checksum insertion over
  /// [css, end) at cso; returns the 16-bit value the device inserted,
  /// after checking every other byte went out untouched.
  std::uint16_t insert_one(std::span<const std::byte> frame, std::size_t css,
                           std::size_t cso) {
    mem.store(root, kTxBuf + tail * 2048, frame);
    nic::TxDesc d{};
    d.buffer_addr = kTxBuf + tail * 2048;
    d.length = static_cast<std::uint16_t>(frame.size());
    d.cmd = nic::kTxCmdEOP | nic::kTxCmdIC;
    d.css = static_cast<std::uint8_t>(css);
    d.cso = static_cast<std::uint8_t>(cso);
    mem.store_scalar(root, kTxRing + tail * sizeof(nic::TxDesc), d);
    tail = (tail + 1) % kRingSlots;
    dev.port(0).write_tdt(tail);
    dev.poll(clock.now());
    const auto frames = drain_wire();
    if (frames.size() != 1 || frames[0].size() != frame.size()) {
      ADD_FAILURE() << "expected one " << frame.size() << "-byte frame";
      return 0;
    }
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (i != cso && i != cso + 1 && frames[0][i] != frame[i]) {
        ADD_FAILURE() << "byte " << i << " changed";
      }
    }
    return be16(frames[0], cso);
  }
};

}  // namespace

// Property: for randomized gathered chains (1-4 segments, odd lengths,
// css/cso landing anywhere including mid-segment), the 16-bit value the
// device inserts at cso equals the software composition of per-segment
// partial sums via checksum_partial_at/checksum_combine — the exact
// helpers the stack's emit path caches slices with.
TEST_F(OffloadDeviceFixture, LegacyInsertionMatchesComposableSoftwareSums) {
  std::mt19937 rng(0xC0FFEEu);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t nseg = 1 + rng() % 4;
    std::vector<std::size_t> lens(nseg);
    std::size_t total = 0;
    for (auto& l : lens) {
      l = 1 + rng() % 300;  // odd lengths happen half the time
      total += l;
    }
    if (total < 8) lens[0] += 8, total += 8;
    std::vector<std::byte> full(total);
    for (auto& b : full) b = std::byte{static_cast<std::uint8_t>(rng())};
    // css anywhere in the first 200 bytes, cso an even distance past it —
    // the driver-seeded field contributes to the sum. Both are uint8
    // descriptor registers, so cso must stay below 254.
    const std::size_t css = rng() % std::min<std::size_t>(total - 4, 200);
    const std::size_t span2 =
        (std::min<std::size_t>(total, 254) - 2 - css) / 2;
    const std::size_t cso = css + 2 * (span2 ? rng() % span2 : 0);
    ASSERT_LE(cso + 2, total);
    put_be16(full, cso, static_cast<std::uint16_t>(rng()));  // driver seed

    // Stage the chain: one descriptor per segment, offload latch (IC +
    // css/cso) on the first, EOP on the last.
    std::size_t off = 0;
    for (std::size_t i = 0; i < nseg; ++i) {
      const std::uint32_t slot = (tail + static_cast<std::uint32_t>(i)) %
                                 kRingSlots;
      mem.store(root, kTxBuf + slot * 2048,
                std::span<const std::byte>{full.data() + off, lens[i]});
      nic::TxDesc d{};
      d.buffer_addr = kTxBuf + slot * 2048;
      d.length = static_cast<std::uint16_t>(lens[i]);
      d.cmd = i + 1 == nseg ? nic::kTxCmdEOP : 0;
      if (i == 0) {
        d.cmd |= nic::kTxCmdIC;
        d.css = static_cast<std::uint8_t>(css);
        d.cso = static_cast<std::uint8_t>(cso);
      }
      mem.store_scalar(root, kTxRing + slot * sizeof(nic::TxDesc), d);
      off += lens[i];
    }
    tail = (tail + static_cast<std::uint32_t>(nseg)) % kRingSlots;
    dev.port(0).write_tdt(tail);
    dev.poll(clock.now());

    // Software expectation, composed the way the stack composes cached
    // slice partials: each segment's overlap with [css, end) folds in at
    // its offset within the summed range (odd offsets byte-swap).
    std::uint32_t sum = 0;
    std::size_t seg_start = 0;
    for (std::size_t i = 0; i < nseg; ++i) {
      const std::size_t lo = std::max(seg_start, css);
      const std::size_t hi = seg_start + lens[i];
      if (lo < hi) {
        sum = checksum_partial_at(
            std::span<const std::byte>{full.data() + lo, hi - lo}, lo - css,
            sum);
      }
      seg_start = hi;
    }
    const std::uint16_t expect = checksum_finish(sum);

    const auto frames = drain_wire();
    ASSERT_EQ(frames.size(), 1u) << "trial " << trial;
    ASSERT_EQ(frames[0].size(), total);
    EXPECT_EQ(be16(frames[0], cso), expect) << "trial " << trial;
    // Every byte outside the inserted field left untouched.
    for (std::size_t i = 0; i < total; ++i) {
      if (i == cso || i == cso + 1) continue;
      ASSERT_EQ(frames[0][i], full[i]) << "trial " << trial << " byte " << i;
    }
  }
}

// Edge cases of the device adder against checksum_partial/checksum_finish:
// every summed length 1..64 and a 1500-byte frame, starting at an even and
// an odd frame offset, over random, all-zero and all-0xFF bytes; then a
// driver seed inside the range chosen so the inserted checksum is 0x0000,
// and the one range that inserts 0xFFFF (it sums to zero: all-zero bytes
// under a zero seed).
TEST_F(OffloadDeviceFixture, LegacyInsertionEdgeCasesMatchSoftwareSums) {
  std::mt19937 rng(0xED6Eu);
  std::vector<std::size_t> lens;
  for (std::size_t len = 1; len <= 64; ++len) lens.push_back(len);
  lens.push_back(1500);
  const auto software = [](std::span<const std::byte> f, std::size_t css) {
    return checksum_finish(checksum_partial(f.subspan(css)));
  };
  for (const std::size_t len : lens) {
    for (const std::size_t css : {2u, 3u}) {
      // The seed field sits before the summed range (cso 0).
      for (const int fill : {-1, 0x00, 0xFF}) {
        std::vector<std::byte> f(css + len);
        for (auto& b : f) {
          b = std::byte{static_cast<std::uint8_t>(fill < 0 ? rng() : fill)};
        }
        EXPECT_EQ(insert_one(f, css, 0), software(f, css))
            << "len " << len << " css " << css << " fill " << fill;
      }
      if (len < 2) continue;
      // The seed field opens the summed range: seeded with the complement
      // of the rest's folded sum, the range sums to 0xFFFF and the
      // inserted checksum is 0x0000.
      std::vector<std::byte> f(css + len);
      for (auto& b : f) b = std::byte{static_cast<std::uint8_t>(rng())};
      put_be16(f, css, 0);
      const std::uint16_t rest =
          checksum_fold16(checksum_partial(std::span{f}.subspan(css)));
      put_be16(f, css, static_cast<std::uint16_t>(~rest));
      ASSERT_EQ(software(f, css), 0x0000) << "len " << len;
      EXPECT_EQ(insert_one(f, css, css), 0x0000)
          << "len " << len << " css " << css;
      // All-zero bytes under a zero seed sum to zero: 0xFFFF goes in.
      std::vector<std::byte> zero(css + len);
      ASSERT_EQ(software(zero, css), 0xFFFF);
      EXPECT_EQ(insert_one(zero, css, css), 0xFFFF)
          << "len " << len << " css " << css;
    }
  }
}

// TSO: the device slices one oversized TCP frame into MSS-sized wire
// frames whose IPv4 and TCP checksums verify in software, whose sequence
// numbers advance by the payload emitted, and which carry FIN/PSH only on
// the last slice. Odd MSS exercises odd slice boundaries in the
// incremental checksum.
TEST_F(OffloadDeviceFixture, TsoSlicesVerifyAgainstSoftwareChecksums) {
  constexpr std::size_t kHdr =
      EtherHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize;
  constexpr std::size_t kPayload = 5000;
  constexpr std::uint16_t kMss = 699;
  const Ipv4Addr src = Ipv4Addr::of(10, 0, 0, 1);
  const Ipv4Addr dst = Ipv4Addr::of(10, 0, 0, 2);

  std::vector<std::byte> frame(kHdr + kPayload);
  EtherHeader eh;
  eh.dst = nic::MacAddr::local(2);
  eh.src = nic::MacAddr::local(1);
  eh.ethertype = kEtherTypeIpv4;
  eh.serialize(frame);
  Ipv4Header ih;
  ih.total_len = static_cast<std::uint16_t>(40 + kPayload);
  ih.id = 0x1234;
  ih.proto = kIpProtoTcp;
  ih.src = src;
  ih.dst = dst;
  ih.serialize(std::span<std::byte>{frame}.subspan(EtherHeader::kSize));
  TcpHeader th;
  th.src_port = 49152;
  th.dst_port = 5201;
  th.seq = 0x01020304;
  th.ack = 0xA0B0C0D0;
  th.flags = tcpflag::kAck | tcpflag::kPsh | tcpflag::kFin;
  th.window = 0x1000;
  constexpr std::size_t kL4Off = EtherHeader::kSize + Ipv4Header::kSize;
  th.serialize(std::span<std::byte>{frame}.subspan(kL4Off));
  // Driver seed: folded, non-inverted pseudo sum EXCLUDING the length term
  // (it differs per slice; the device adds each slice's own l4 length).
  put_be16(frame, kL4Off + 16,
           checksum_fold16(checksum_pseudo(src, dst, kIpProtoTcp, 0)));
  for (std::size_t i = 0; i < kPayload; ++i) {
    frame[kHdr + i] = std::byte{static_cast<std::uint8_t>(i * 7 + 1)};
  }

  nic::TxCtxDesc ctx{};
  ctx.l2_len = EtherHeader::kSize;
  ctx.l3_len = Ipv4Header::kSize;
  ctx.l4_len = TcpHeader::kSize;
  ctx.olflags = nic::kTxCtxOlTcp | nic::kTxCtxOlTso;
  ctx.mss = kMss;
  ctx.cmd = nic::kTxCmdCtx;
  mem.store_scalar(root, kTxRing + 0 * sizeof(nic::TxCtxDesc), ctx);
  mem.store(root, kTxBuf, std::span<const std::byte>{frame});
  nic::TxDesc d{};
  d.buffer_addr = kTxBuf;
  d.length = static_cast<std::uint16_t>(frame.size());
  d.cmd = nic::kTxCmdEOP | nic::kTxCmdTse;
  mem.store_scalar(root, kTxRing + 1 * sizeof(nic::TxDesc), d);
  dev.port(0).write_tdt(2);
  dev.poll(clock.now());

  const auto slices = drain_wire();
  const std::size_t nslices = (kPayload + kMss - 1) / kMss;
  ASSERT_EQ(slices.size(), nslices);
  std::vector<std::byte> reassembled;
  std::size_t off = 0;
  for (std::size_t i = 0; i < nslices; ++i) {
    const auto& s = slices[i];
    const std::size_t n = std::min<std::size_t>(kMss, kPayload - off);
    ASSERT_EQ(s.size(), kHdr + n) << "slice " << i;
    // IPv4 fixup: fresh valid header checksum, per-slice length, id++.
    const auto ip = Ipv4Header::parse(
        std::span<const std::byte>{s}.subspan(EtherHeader::kSize));
    ASSERT_TRUE(ip) << "slice " << i << " IP header checksum";
    EXPECT_EQ(ip->total_len, 40 + n);
    EXPECT_EQ(ip->id, 0x1234 + i);
    // TCP fixup: seq advances by payload emitted; FIN/PSH only on last.
    EXPECT_EQ(be32(s, kL4Off + 4), 0x01020304u + off) << "slice " << i;
    const auto fl = std::to_integer<std::uint8_t>(s[kL4Off + 13]);
    EXPECT_NE(fl & tcpflag::kAck, 0) << "slice " << i;
    if (i + 1 < nslices) {
      EXPECT_EQ(fl & (tcpflag::kFin | tcpflag::kPsh), 0) << "slice " << i;
    } else {
      EXPECT_NE(fl & tcpflag::kFin, 0);
      EXPECT_NE(fl & tcpflag::kPsh, 0);
    }
    // Full software TCP verification: pseudo header (with this slice's l4
    // length) + the L4 bytes including the inserted checksum folds to 0.
    std::uint32_t sum = checksum_pseudo(
        src, dst, kIpProtoTcp,
        static_cast<std::uint16_t>(TcpHeader::kSize + n));
    sum = checksum_partial(std::span<const std::byte>{s}.subspan(kL4Off),
                           sum);
    EXPECT_EQ(checksum_finish(sum), 0u) << "slice " << i;
    reassembled.insert(reassembled.end(), s.begin() + kHdr, s.end());
    off += n;
  }
  ASSERT_EQ(reassembled.size(), kPayload);
  EXPECT_TRUE(std::equal(reassembled.begin(), reassembled.end(),
                         frame.begin() + kHdr));
  EXPECT_EQ(dev.port(0).stats().tso_frames, nslices);
  EXPECT_EQ(dev.port(0).stats().tso_bytes, kPayload);
}

namespace {

/// Run one 64 KiB TCP transfer A->B under the given offload request and
/// report what the receiver saw plus the sender's software checksum work.
struct TransferResult {
  std::vector<std::uint8_t> received;
  std::uint64_t stack_checksum_bytes = 0;
  std::uint64_t peer_csum_errors = 0;
  std::uint32_t negotiated = 0;
};

TransferResult run_transfer(std::uint32_t offloads) {
  updk::EalConfig eal;
  eal.eth.offloads = offloads;
  TwoStacks ts(sim::Testbed::unconstrained(), fstack::TcpConfig{}, eal);
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_bind(ts.b(), lfd, {Ipv4Addr{}, 5201}), 0);
  EXPECT_EQ(ff_listen(ts.b(), lfd, 4), 0);
  const int afd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_connect(ts.a(), afd, {ts.ip_b(), 5201}), -EINPROGRESS);
  int bfd = -1;
  ts.pump_until([&] {
    bfd = ff_accept(ts.b(), lfd, nullptr);
    return bfd >= 0;
  });
  EXPECT_GE(bfd, 0);

  constexpr std::size_t kTotal = 64 * 1024;
  auto src = ts.heap_a().alloc_view(4096);
  auto dst = ts.heap_b().alloc_view(4096);
  TransferResult out;
  out.received.reserve(kTotal);
  std::uint64_t sent = 0;
  ts.pump_until(
      [&] {
        while (sent < kTotal) {
          const std::size_t n = std::min<std::uint64_t>(4096, kTotal - sent);
          for (std::size_t i = 0; i < n; ++i) {
            src.store<std::uint8_t>(
                i, static_cast<std::uint8_t>((sent + i) * 131 >> 3));
          }
          const auto w = ff_write(ts.a(), afd, src, n);
          if (w <= 0) break;
          sent += static_cast<std::uint64_t>(w);
        }
        while (true) {
          const auto r = ff_read(ts.b(), bfd, dst, 4096);
          if (r <= 0) break;
          for (std::size_t i = 0; i < static_cast<std::size_t>(r); ++i) {
            out.received.push_back(dst.load<std::uint8_t>(i));
          }
        }
        return out.received.size() == kTotal;
      },
      2'000'000);
  out.stack_checksum_bytes = ts.a().tx_stats().stack_checksum_bytes;
  out.peer_csum_errors = ts.b().stats().csum_errors;
  out.negotiated = ts.a().negotiated_offloads();
  return out;
}

}  // namespace

// An offload-masked queue must take the software path (stack_checksum_bytes
// counts the walked payload) yet deliver a byte-identical stream; on the
// hardware path the stack walks nothing, and a receiver with RX offload
// masked off software-verifies every device-inserted checksum.
TEST(OffloadFallback, MaskedQueueRunsSoftwarePathByteIdentically) {
  // TX insertion on, RX verdicts off: the peer verifies in software, so a
  // single wrong device checksum would hole the stream.
  const TransferResult hw =
      run_transfer(updk::kOffloadTxTcpCsum | updk::kOffloadTxUdpCsum);
  const TransferResult sw = run_transfer(0);

  ASSERT_EQ(hw.received.size(), sw.received.size());
  EXPECT_TRUE(std::equal(hw.received.begin(), hw.received.end(),
                         sw.received.begin()));
  for (std::size_t i = 0; i < hw.received.size(); ++i) {
    ASSERT_EQ(hw.received[i],
              static_cast<std::uint8_t>(i * 131 >> 3)) << "byte " << i;
  }
  EXPECT_NE(hw.negotiated & updk::kOffloadTxTcpCsum, 0u);
  EXPECT_EQ(hw.stack_checksum_bytes, 0u);
  EXPECT_EQ(hw.peer_csum_errors, 0u);  // software-verified hw checksums
  EXPECT_EQ(sw.negotiated, 0u);
  EXPECT_GT(sw.stack_checksum_bytes, 0u);
  EXPECT_EQ(sw.peer_csum_errors, 0u);
}

// Two shards of ONE port with different negotiated capabilities: shard 0
// rides the hardware checksum path, shard 1 has offloads masked to the
// software path. Both must move their streams concurrently — offload
// negotiation is per queue, not per port.
TEST(OffloadShards, MixedCapabilityShardsCoexistOnOnePort) {
  sim::VirtualClock clock;
  machine::AddressSpace as(96u << 20);
  nic::Wire wire(&clock, nullptr, sim::Testbed::unconstrained());
  nic::E82576Device card_a(&as.mem(), &clock,
                           {nic::MacAddr::local(10), nic::MacAddr::local(11)});
  nic::E82576Device card_b(&as.mem(), &clock,
                           {nic::MacAddr::local(20), nic::MacAddr::local(21)});
  card_a.connect(0, &wire, 0);
  card_b.connect(0, &wire, 1);
  machine::CompartmentHeap heap_a(
      &as.mem(), as.carve(24u << 20, cheri::PermSet::data_rw(), "A"));
  machine::CompartmentHeap heap_b(
      &as.mem(), as.carve(24u << 20, cheri::PermSet::data_rw(), "B"));

  scen::InstanceConfig c0;
  c0.netif.ip = Ipv4Addr::of(10, 0, 0, 1);
  c0.eal.eth.offloads = updk::kOffloadDefault;
  scen::InstanceConfig c1 = c0;
  c1.eal.eth.offloads = 0;  // this shard: pure software path
  scen::InstanceConfig cb = c0;
  cb.netif.ip = Ipv4Addr::of(10, 0, 0, 2);

  scen::FullStackInstance shard0(card_a, 0, 0, 2, heap_a, clock, c0);
  scen::FullStackInstance shard1(card_a, 0, 1, 2, heap_a, clock, c1);
  scen::FullStackInstance peer(card_b, 0, heap_b, clock, cb);

  const auto pump_until = [&](const std::function<bool()>& pred) {
    for (int i = 0; i < 800'000; ++i) {
      if (pred()) return true;
      bool progress = shard0.run_once();
      progress |= shard1.run_once();
      progress |= peer.run_once();
      if (!progress) {
        auto d = shard0.next_deadline();
        for (const auto& o : {shard1.next_deadline(), peer.next_deadline()}) {
          if (o && (!d || *o < *d)) d = o;
        }
        if (!d) return pred();
        clock.advance_to(*d);
      }
    }
    return pred();
  };

  const int lfd = ff_socket(peer.stack(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_bind(peer.stack(), lfd, {Ipv4Addr{}, 7000}), 0);
  ASSERT_EQ(ff_listen(peer.stack(), lfd, 4), 0);
  const int fd0 = ff_socket(shard0.stack(), kAfInet, kSockStream, 0);
  const int fd1 = ff_socket(shard1.stack(), kAfInet, kSockStream, 0);
  ASSERT_EQ(ff_connect(shard0.stack(), fd0, {cb.netif.ip, 7000}),
            -EINPROGRESS);
  ASSERT_EQ(ff_connect(shard1.stack(), fd1, {cb.netif.ip, 7000}),
            -EINPROGRESS);
  std::vector<int> accepted;
  ASSERT_TRUE(pump_until([&] {
    const int fd = ff_accept(peer.stack(), lfd, nullptr);
    if (fd >= 0) accepted.push_back(fd);
    return accepted.size() == 2;
  }));

  // Each shard streams 32 KiB; every byte is position-derived with a
  // per-shard tag so cross-shard leakage or reordering shows up at the
  // peer regardless of which accepted fd maps to which shard.
  constexpr std::size_t kPerShard = 32 * 1024;
  auto src0 = heap_a.alloc_view(2048);
  auto src1 = heap_a.alloc_view(2048);
  auto dst = heap_b.alloc_view(2048);
  std::uint64_t sent0 = 0, sent1 = 0;
  std::vector<std::uint64_t> got(accepted.size(), 0);
  std::vector<std::uint8_t> tag(accepted.size(), 0);
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(pump_until([&] {
    const auto push = [&](fstack::FfStack& st, int fd, std::uint64_t* sent,
                          machine::CapView& src, std::uint8_t t) {
      while (*sent < kPerShard) {
        const std::size_t n =
            std::min<std::uint64_t>(2048, kPerShard - *sent);
        for (std::size_t i = 0; i < n; ++i) {
          src.store<std::uint8_t>(
              i, static_cast<std::uint8_t>(t ^ ((*sent + i) * 131 >> 3)));
        }
        const auto w = ff_write(st, fd, src, n);
        if (w <= 0) break;
        *sent += static_cast<std::uint64_t>(w);
      }
    };
    push(shard0.stack(), fd0, &sent0, src0, 0x00);
    push(shard1.stack(), fd1, &sent1, src1, 0xA5);
    for (std::size_t c = 0; c < accepted.size(); ++c) {
      while (true) {
        const auto r = ff_read(peer.stack(), accepted[c], dst, 2048);
        if (r <= 0) break;
        for (std::size_t i = 0; i < static_cast<std::size_t>(r); ++i) {
          const auto v = dst.load<std::uint8_t>(i);
          if (got[c] + i == 0) {
            // First byte identifies the stream's shard tag.
            tag[c] = v == 0xA5 ? 0xA5 : 0x00;
          }
          const auto expect = static_cast<std::uint8_t>(
              tag[c] ^ ((got[c] + i) * 131 >> 3));
          if (v != expect) ++corrupt;
        }
        got[c] += static_cast<std::uint64_t>(r);
      }
    }
    return got[0] == kPerShard && got[1] == kPerShard;
  }));
  EXPECT_EQ(corrupt, 0u);
  EXPECT_NE(tag[0], tag[1]);  // one stream per shard arrived

  // The capability split: hardware shard walked zero payload bytes for
  // checksums; the masked shard paid the software walk.
  EXPECT_NE(shard0.stack().negotiated_offloads() & updk::kOffloadTxTcpCsum,
            0u);
  EXPECT_EQ(shard0.stack().tx_stats().stack_checksum_bytes, 0u);
  EXPECT_EQ(shard1.stack().negotiated_offloads(), 0u);
  EXPECT_GT(shard1.stack().tx_stats().stack_checksum_bytes, 0u);
}

// A frame whose FCS is VALID but whose L4 checksum is wrong must die at the
// RX checksum verdict (device write-back -> mbuf ol_flags -> stack drop):
// corruption that slips past the MAC cannot reach a socket.
TEST(OffloadVerdict, FcsValidCorruptL4DiesAtVerdictCheck) {
  TwoStacks ts;  // default offloads: RX verdicts negotiated
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.a(), sa, {Ipv4Addr{}, 9001}), 0);

  constexpr std::size_t kPay = 16;
  constexpr std::size_t kL4 = UdpHeader::kSize + kPay;
  const Ipv4Addr src = ts.ip_b();
  const Ipv4Addr dst = ts.ip_a();
  const auto build = [&](bool corrupt_l4) {
    std::vector<std::byte> f(EtherHeader::kSize + Ipv4Header::kSize + kL4);
    EtherHeader eh;
    eh.dst = nic::MacAddr::local(10);  // card_a port 0
    eh.src = nic::MacAddr::local(20);
    eh.ethertype = kEtherTypeIpv4;
    eh.serialize(f);
    Ipv4Header ih;
    ih.total_len = static_cast<std::uint16_t>(Ipv4Header::kSize + kL4);
    ih.proto = kIpProtoUdp;
    ih.src = src;
    ih.dst = dst;
    ih.serialize(std::span<std::byte>{f}.subspan(EtherHeader::kSize));
    constexpr std::size_t l4off = EtherHeader::kSize + Ipv4Header::kSize;
    UdpHeader uh;
    uh.src_port = 9000;
    uh.dst_port = 9001;
    uh.length = kL4;
    uh.checksum = 0;
    uh.serialize(std::span<std::byte>{f}.subspan(l4off));
    for (std::size_t i = 0; i < kPay; ++i) {
      f[l4off + UdpHeader::kSize + i] =
          std::byte{static_cast<std::uint8_t>(i + 1)};
    }
    std::uint32_t sum = checksum_pseudo(src, dst, kIpProtoUdp, kL4);
    sum = checksum_partial(std::span<const std::byte>{f}.subspan(l4off), sum);
    std::uint16_t ck = checksum_finish(sum);
    if (ck == 0) ck = 0xFFFF;
    if (corrupt_l4) {
      ck ^= 0x0101;        // payload no longer matches the checksum
      if (ck == 0) ck = 0x0202;
    }
    put_be16(f, l4off + 6, ck);
    // Valid FCS: this corruption modelled a fault past the MAC, so the
    // CRC32 must pass and the checksum verdict is the only line left.
    const std::size_t n = f.size();
    f.resize(n + 4);
    const std::uint32_t fcs =
        nic::crc32_ieee(std::span<const std::byte>{f.data(), n});
    std::memcpy(f.data() + n, &fcs, 4);
    return f;
  };

  ASSERT_NE(ts.a().negotiated_offloads() & updk::kOffloadRxCsum, 0u);
  nic::Frame bad;
  bad.data = build(/*corrupt_l4=*/true);
  ts.wire().transmit(1, std::move(bad), ts.clock().now());
  ts.pump_until([&] { return ts.a().stats().csum_errors >= 1; }, 50'000);
  EXPECT_EQ(ts.a().stats().csum_errors, 1u);
  EXPECT_EQ(ts.card_a().port(0).stats().rx_crc_errors, 0u);  // FCS passed
  auto rx = ts.heap_a().alloc_view(256);
  EXPECT_EQ(ff_recvfrom(ts.a(), sa, rx, 256, nullptr), -EAGAIN);

  // Control: the same frame with a correct checksum reaches the socket.
  nic::Frame good;
  good.data = build(/*corrupt_l4=*/false);
  ts.wire().transmit(1, std::move(good), ts.clock().now());
  std::int64_t r = -1;
  ts.pump_until([&] {
    r = ff_recvfrom(ts.a(), sa, rx, 256, nullptr);
    return r >= 0;
  });
  EXPECT_EQ(r, static_cast<std::int64_t>(kPay));
  EXPECT_EQ(ts.a().stats().csum_errors, 1u);
}

// An L4 sum that folds to exactly 0xFFFF verifies clean: UDP payloads
// tuned so the computed checksum is 0 (sent as 0xFFFF, RFC 768), plus
// all-0xFF and all-zero payloads at odd and even lengths. Software
// (checksum_partial/checksum_finish) and the device verdict must agree:
// every datagram reaches the socket and no checksum error is counted.
TEST(OffloadVerdict, L4SumFoldingToFfffVerifiesClean) {
  TwoStacks ts;
  const int sa = ff_socket(ts.a(), kAfInet, kSockDgram, 0);
  ASSERT_EQ(ff_bind(ts.a(), sa, {Ipv4Addr{}, 9001}), 0);
  ASSERT_NE(ts.a().negotiated_offloads() & updk::kOffloadRxCsum, 0u);
  const Ipv4Addr src = ts.ip_b();
  const Ipv4Addr dst = ts.ip_a();
  constexpr std::size_t l4off = EtherHeader::kSize + Ipv4Header::kSize;
  std::mt19937 rng(0xFFFFu);
  auto rx = ts.heap_a().alloc_view(2048);

  // fill < 0: random payload whose last two bytes zero the checksum.
  const auto build = [&](std::size_t pay, int fill) {
    const std::size_t l4 = UdpHeader::kSize + pay;
    std::vector<std::byte> f(l4off + l4);
    EtherHeader eh;
    eh.dst = nic::MacAddr::local(10);  // card_a port 0
    eh.src = nic::MacAddr::local(20);
    eh.ethertype = kEtherTypeIpv4;
    eh.serialize(f);
    Ipv4Header ih;
    ih.total_len = static_cast<std::uint16_t>(Ipv4Header::kSize + l4);
    ih.proto = kIpProtoUdp;
    ih.src = src;
    ih.dst = dst;
    ih.serialize(std::span<std::byte>{f}.subspan(EtherHeader::kSize));
    UdpHeader uh;
    uh.src_port = 9000;
    uh.dst_port = 9001;
    uh.length = static_cast<std::uint16_t>(l4);
    uh.checksum = 0;
    uh.serialize(std::span<std::byte>{f}.subspan(l4off));
    for (std::size_t i = l4off + UdpHeader::kSize; i < f.size(); ++i) {
      f[i] = std::byte{static_cast<std::uint8_t>(fill < 0 ? rng() : fill)};
    }
    const auto sum = [&] {
      return checksum_partial(std::span<const std::byte>{f}.subspan(l4off),
                              checksum_pseudo(src, dst, kIpProtoUdp,
                                              static_cast<std::uint16_t>(l4)));
    };
    if (fill < 0) {
      // Payload is even-length here: its last word is a big-endian word of
      // the L4 sum, set so the sum folds to exactly 0xFFFF.
      put_be16(f, f.size() - 2, 0);
      put_be16(f, f.size() - 2,
               static_cast<std::uint16_t>(0xFFFF - checksum_fold16(sum())));
      EXPECT_EQ(checksum_finish(sum()), 0x0000);
    }
    std::uint16_t ck = checksum_finish(sum());
    if (ck == 0) ck = 0xFFFF;  // 0 means "no checksum" in UDP
    put_be16(f, l4off + 6, ck);
    // With the checksum in place the L4 sum folds to exactly 0xFFFF.
    EXPECT_EQ(checksum_finish(sum()), 0x0000);
    const std::size_t n = f.size();
    f.resize(n + 4);
    const std::uint32_t fcs =
        nic::crc32_ieee(std::span<const std::byte>{f.data(), n});
    std::memcpy(f.data() + n, &fcs, 4);
    return f;
  };

  struct Case {
    std::size_t pay;
    int fill;
  };
  const Case cases[] = {{16, -1}, {2, -1}, {1000, -1}, {1472, -1},
                        {15, 0xFF}, {16, 0xFF}, {1471, 0xFF}, {15, 0x00},
                        {1472, 0x00}};
  for (const Case& c : cases) {
    nic::Frame fr;
    fr.data = build(c.pay, c.fill);
    ts.wire().transmit(1, std::move(fr), ts.clock().now());
    std::int64_t r = -1;
    ts.pump_until([&] {
      r = ff_recvfrom(ts.a(), sa, rx, 2048, nullptr);
      return r >= 0 || ts.a().stats().csum_errors > 0;
    });
    EXPECT_EQ(r, static_cast<std::int64_t>(c.pay))
        << "payload " << c.pay << " fill " << c.fill;
    EXPECT_EQ(ts.a().stats().csum_errors, 0u)
        << "payload " << c.pay << " fill " << c.fill;
  }
}
