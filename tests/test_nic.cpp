// NIC substrate: CRC32/FCS, wire pacing arithmetic, shared-bus caps,
// descriptor rings and capability-checked DMA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "cheri/tagged_memory.hpp"
#include "nic/crc32.hpp"
#include "nic/e82576.hpp"
#include "nic/shared_bus.hpp"
#include "nic/wire.hpp"

using namespace cherinet;
using sim::Ns;

namespace {
/// Bit-at-a-time CRC-32 (reflected, poly 0xEDB88320): the reference the
/// table-driven kernel must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::byte> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : data) {
    c ^= std::to_integer<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = std::byte{static_cast<std::uint8_t>(rng())};
  return v;
}

/// The FCS the MAC appended to a wire frame, in the MAC's byte order.
std::uint32_t trailing_fcs(const std::vector<std::byte>& frame) {
  std::uint32_t fcs = 0;
  std::memcpy(&fcs, frame.data() + frame.size() - 4, 4);
  return fcs;
}
}  // namespace

TEST(Crc32, KnownVectors) {
  const char* s = "123456789";
  EXPECT_EQ(nic::crc32_ieee(std::as_bytes(std::span{s, 9})), 0xCBF43926u);
  EXPECT_EQ(nic::crc32_ieee({}), 0x00000000u);
}

// Every length up to 2048 at every start offset 0..15, against both paths
// of crc32_ieee: the carry-less-multiply fold (whole 16-byte blocks of a
// buffer of 64 B or more, so every alignment of its 16-byte loads) with the
// slicing-by-8 tables after it, and the tables alone below 64 B. Lengths
// cover the byte-wise tail after each number of 8-byte steps and every
// count of 64-byte fold steps plus 16-byte single folds.
TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const auto buf = seeded_bytes(2048 + 16, 0xC4C32u);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 2048; ++len) {
      const std::span<const std::byte> s{buf.data() + off, len};
      ASSERT_EQ(nic::crc32_ieee(s), crc32_bitwise(s))
          << "offset " << off << " length " << len;
    }
  }
}

// Jumbo and maximum-length buffers: many 64-byte fold steps, then the
// 16-byte folds and the table tail (2100 = 32*64 + 3*16 + 4,
// 9018 = 140*64 + 3*16 + 10, 65535 = 1023*64 + 3*16 + 15).
TEST(Crc32, MatchesBitwiseReferenceOnLongBuffers) {
  for (const std::size_t len : {2100u, 9018u, 65535u}) {
    const auto buf = seeded_bytes(len, static_cast<std::uint32_t>(len));
    ASSERT_EQ(nic::crc32_ieee(buf), crc32_bitwise(buf)) << "length " << len;
  }
}

// A CRC-32 detects every single-bit error: the FCS-containment gates
// (rx_crc_errors + stack_csum_drops == wire_corrupts) rest on this.
TEST(Crc32, EverySingleBitFlipOfAFullFrameChangesTheFcs) {
  auto frame = seeded_bytes(1518, 0x802u);
  const std::uint32_t good = nic::crc32_ieee(frame);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    const std::byte mask{static_cast<std::uint8_t>(1u << (bit % 8))};
    frame[bit / 8] ^= mask;
    ASSERT_NE(nic::crc32_ieee(frame), good) << "bit " << bit;
    frame[bit / 8] ^= mask;
  }
}

TEST(MacAddr, BroadcastAndFormatting) {
  EXPECT_TRUE(nic::MacAddr::broadcast().is_broadcast());
  EXPECT_TRUE(nic::MacAddr::broadcast().is_multicast());
  EXPECT_FALSE(nic::MacAddr::local(3).is_broadcast());
  EXPECT_EQ(nic::MacAddr::local(3).to_string(), "02:00:00:00:00:03");
}

TEST(SharedBus, SerializesReservationsAtConfiguredRate) {
  nic::SharedBus bus(1e9, 2e9);  // 1 Gbit/s RX, 2 Gbit/s TX
  // 1250 bytes = 10000 bits = 10 us at 1 Gbit/s.
  const Ns t1 = bus.reserve(nic::SharedBus::Dir::kRx, 1250, Ns{0});
  EXPECT_EQ(t1, Ns{10'000});
  const Ns t2 = bus.reserve(nic::SharedBus::Dir::kRx, 1250, Ns{0});
  EXPECT_EQ(t2, Ns{20'000});  // queued behind the first
  // TX lane is independent and twice as fast.
  EXPECT_EQ(bus.reserve(nic::SharedBus::Dir::kTx, 1250, Ns{0}), Ns{5'000});
  EXPECT_EQ(bus.rx_bytes(), 2500u);
}

TEST(Wire, PacesAtLineRateWithFrameOverheads) {
  sim::VirtualClock clock;
  sim::Testbed tb = sim::Testbed::unconstrained();
  nic::Wire wire(&clock, nullptr, tb);
  // 1518-byte frame + 20 overhead bytes = 1538 * 8 ns at 1 Gbit/s.
  nic::Frame f;
  f.data.resize(1518);
  wire.transmit(0, std::move(f), Ns{0});
  const auto d = wire.next_delivery(1);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, Ns{1538 * 8} + tb.wire_latency);
  // Not deliverable until the clock reaches the arrival stamp.
  EXPECT_TRUE(wire.poll(1).empty());
  clock.advance_to(*d);
  EXPECT_EQ(wire.poll(1).size(), 1u);
}

TEST(Wire, BackToBackFramesQueueBehindSerialization) {
  sim::VirtualClock clock;
  nic::Wire wire(&clock, nullptr, sim::Testbed::unconstrained());
  for (int i = 0; i < 3; ++i) {
    nic::Frame f;
    f.data.resize(996);  // 996+24... => 1020... choose: +20 overhead = 1016B
    wire.transmit(0, std::move(f), Ns{0});
  }
  clock.advance_to(Ns{1'000'000});
  const auto frames = wire.poll(1);
  EXPECT_EQ(frames.size(), 3u);
  EXPECT_EQ(wire.stats(0).tx_frames, 3u);
}

TEST(Wire, IdleCountsTheLaneGapsBetweenFrames) {
  sim::VirtualClock clock;
  nic::Wire wire(&clock, nullptr, sim::Testbed::unconstrained());
  const auto send = [&](Ns ready) {
    nic::Frame f;
    f.data.resize(105);  // + 20 overhead bytes = 1000 ns at 1 Gbit/s
    wire.transmit(0, std::move(f), ready);
  };
  send(Ns{5'000});  // the lane's first frame: no gap before it
  send(Ns{5'000});  // queued behind it: back to back
  EXPECT_EQ(wire.stats(0).idle_ns, 0u);
  send(Ns{10'000});  // the lane freed at 7 µs
  EXPECT_EQ(wire.stats(0).idle_ns, 3'000u);
  EXPECT_EQ(wire.stats(1).idle_ns, 0u);  // the other direction sent nothing
}

TEST(Wire, LossInjectionDropsSelectedFrames) {
  sim::VirtualClock clock;
  nic::Wire wire(&clock, nullptr, sim::Testbed::unconstrained());
  wire.set_loss([](int, std::uint64_t idx) { return idx == 1; });
  for (int i = 0; i < 3; ++i) {
    nic::Frame f;
    f.data.resize(100);
    wire.transmit(0, std::move(f), Ns{0});
  }
  clock.advance_to(Ns{1'000'000});
  EXPECT_EQ(wire.poll(1).size(), 2u);
  EXPECT_EQ(wire.stats(0).dropped, 1u);
}

TEST(Wire, BusAttachmentThrottlesAggregate) {
  sim::VirtualClock clock;
  sim::Testbed tb = sim::Testbed::morello_82576();
  nic::Wire w0(&clock, nullptr, tb);
  nic::Wire w1(&clock, nullptr, tb);
  nic::SharedBus bus(tb.bus_rx_bits_per_sec, tb.bus_tx_bits_per_sec);
  // The receiving card (side 0 of both wires) sits behind one PCI bus.
  w0.set_bus(0, &bus);
  w1.set_bus(0, &bus);
  // Two senders blast one full-size frame each; RX-bus serialization makes
  // the second arrival later than wire pacing alone would.
  nic::Frame f0, f1;
  f0.data.resize(1518);
  f1.data.resize(1518);
  w0.transmit(1, std::move(f0), Ns{0});
  w1.transmit(1, std::move(f1), Ns{0});
  const auto d0 = w0.next_delivery(0);
  const auto d1 = w1.next_delivery(0);
  ASSERT_TRUE(d0 && d1);
  const Ns solo = Ns{1538 * 8} + tb.wire_latency;
  EXPECT_GE(std::max(*d0, *d1), solo + Ns{8'000});  // ~8.7us bus slot
}

// ------------------------------------------------------------ device model

namespace {
struct DeviceFixture : ::testing::Test {
  sim::VirtualClock clock;
  cheri::TaggedMemory mem{1 << 20};
  cheri::Capability root =
      cheri::CapabilityMinter::mint_root(0, 1 << 20, cheri::PermSet::all());
  nic::Wire wire{&clock, nullptr, sim::Testbed::unconstrained()};
  nic::E82576Device dev{&mem, &clock,
                        {nic::MacAddr::local(1), nic::MacAddr::local(2)}};

  static constexpr std::uint64_t kTxRing = 0x1000;
  static constexpr std::uint64_t kRxRing = 0x2000;
  static constexpr std::uint64_t kTxBuf = 0x4000;
  static constexpr std::uint64_t kRxBuf = 0x8000;

  void SetUp() override {
    dev.connect(0, &wire, 0);
    dev.attach_dma(0, root.with_bounds(0x1000, 0xF000)
                          .with_perms(cheri::PermSet::data_rw()));
    auto& p = dev.port(0);
    p.set_tx_ring(kTxRing, 8);
    p.set_rx_ring(kRxRing, 8, 2048);
    p.enable();
  }

  void stage_tx(std::uint32_t slot, std::uint16_t len) {
    std::vector<std::byte> frame(len, std::byte{0x55});
    // A valid Ethernet header keeps the far-end parser quiet.
    mem.store(root, kTxBuf + slot * 2048, frame);
    nic::TxDesc d{};
    d.buffer_addr = kTxBuf + slot * 2048;
    d.length = len;
    d.cmd = nic::kTxCmdEOP | nic::kTxCmdRS;
    mem.store_scalar(root, kTxRing + slot * sizeof(nic::TxDesc), d);
  }
};
}  // namespace

TEST_F(DeviceFixture, TxDescriptorFetchAndWriteBack) {
  stage_tx(0, 600);
  dev.port(0).write_tdt(1);
  dev.poll(clock.now());
  const auto d =
      mem.load_scalar<nic::TxDesc>(root, kTxRing + 0 * sizeof(nic::TxDesc));
  EXPECT_TRUE(d.status & nic::kTxStatusDD);
  EXPECT_EQ(dev.port(0).stats().tx_packets, 1u);
  EXPECT_EQ(dev.port(0).read_tdh(), 1u);
  // The frame (with appended FCS) is on the wire.
  clock.advance_to(Ns{1'000'000});
  const auto frames = wire.poll(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].data.size(), 604u);  // 600 + FCS
}

TEST_F(DeviceFixture, DmaIsCapabilityConfined) {
  // Descriptor points outside the DMA grant: the "IOMMU" faults the device
  // instead of letting it read foreign memory.
  nic::TxDesc d{};
  d.buffer_addr = 0x0100;  // below the grant
  d.length = 64;
  d.cmd = nic::kTxCmdEOP;
  mem.store_scalar(root, kTxRing + 0 * sizeof(nic::TxDesc), d);
  dev.port(0).write_tdt(1);
  EXPECT_THROW(dev.poll(clock.now()), cheri::CapFault);
}

TEST_F(DeviceFixture, RxDeliversIntoStagedDescriptors) {
  nic::RxDesc rd{};
  rd.buffer_addr = kRxBuf;
  mem.store_scalar(root, kRxRing + 0 * sizeof(nic::RxDesc), rd);
  dev.port(0).write_rdt(4);

  // Far end transmits a CRC-correct frame.
  std::vector<std::byte> payload(100, std::byte{0x77});
  nic::Frame f;
  f.data = payload;
  f.data.resize(104);
  const std::uint32_t fcs = nic::crc32_ieee(std::span{payload});
  std::memcpy(f.data.data() + 100, &fcs, 4);
  wire.transmit(1, std::move(f), Ns{0});
  clock.advance_to(Ns{1'000'000});
  dev.poll(clock.now());

  const auto wb =
      mem.load_scalar<nic::RxDesc>(root, kRxRing + 0 * sizeof(nic::RxDesc));
  EXPECT_TRUE(wb.status & nic::kRxStatusDD);
  EXPECT_EQ(wb.length, 100u);
  EXPECT_EQ(dev.port(0).stats().rx_packets, 1u);
  EXPECT_EQ(mem.load_scalar<std::uint8_t>(root, kRxBuf), 0x77u);
}

TEST_F(DeviceFixture, CorruptFcsIsDroppedAndCounted) {
  nic::RxDesc rd{};
  rd.buffer_addr = kRxBuf;
  mem.store_scalar(root, kRxRing + 0 * sizeof(nic::RxDesc), rd);
  dev.port(0).write_rdt(4);
  nic::Frame f;
  f.data.resize(104, std::byte{0x77});  // bogus FCS
  wire.transmit(1, std::move(f), Ns{0});
  clock.advance_to(Ns{1'000'000});
  dev.poll(clock.now());
  EXPECT_EQ(dev.port(0).stats().rx_crc_errors, 1u);
  EXPECT_EQ(dev.port(0).stats().rx_packets, 0u);
}

// The FCS the device appends on TX equals the bitwise reference over the
// frame as emitted — after IC checksum insertion and per TSO slice — so the
// far MAC is not the only check of the kernel against itself.
TEST_F(DeviceFixture, EmittedFramesCarryTheReferenceFcs) {
  // Slot 0: a plain frame.
  stage_tx(0, 600);
  // Slot 1: legacy IC checksum insertion over [css, end) into cso.
  stage_tx(1, 200);
  const auto icf = seeded_bytes(200, 5);
  mem.store(root, kTxBuf + 2048, std::span<const std::byte>{icf});
  auto ic = mem.load_scalar<nic::TxDesc>(root, kTxRing + sizeof(nic::TxDesc));
  ic.cmd |= nic::kTxCmdIC;
  ic.css = 34;
  ic.cso = 50;
  mem.store_scalar(root, kTxRing + sizeof(nic::TxDesc), ic);
  // Slots 2-3: a TSO context, then a 54-byte Ether/IPv4/TCP header plus
  // 1200 payload bytes sliced at MSS 500 into three wire frames.
  constexpr std::size_t kHdr = 14 + 20 + 20;
  nic::TxCtxDesc ctx{};
  ctx.l2_len = 14;
  ctx.l3_len = 20;
  ctx.l4_len = 20;
  ctx.olflags = nic::kTxCtxOlTcp | nic::kTxCtxOlTso;
  ctx.mss = 500;
  ctx.cmd = nic::kTxCmdCtx;
  mem.store_scalar(root, kTxRing + 2 * sizeof(nic::TxDesc), ctx);
  auto tso = seeded_bytes(kHdr + 1200, 7);
  tso[14] = std::byte{0x45};  // IPv4, 20-byte header
  mem.store(root, kTxBuf + 3 * 2048, std::span<const std::byte>{tso});
  nic::TxDesc d{};
  d.buffer_addr = kTxBuf + 3 * 2048;
  d.length = static_cast<std::uint16_t>(tso.size());
  d.cmd = nic::kTxCmdEOP | nic::kTxCmdTse;
  mem.store_scalar(root, kTxRing + 3 * sizeof(nic::TxDesc), d);

  dev.port(0).write_tdt(4);
  dev.poll(clock.now());
  clock.advance_to(Ns{1'000'000'000});
  const auto frames = wire.poll(1);
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(dev.port(0).stats().tso_frames, 3u);
  const std::size_t sizes[] = {600, 200, kHdr + 500, kHdr + 500, kHdr + 200};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& f = frames[i].data;
    ASSERT_EQ(f.size(), sizes[i] + 4) << "frame " << i;
    EXPECT_EQ(trailing_fcs(f),
              crc32_bitwise(std::span<const std::byte>{f.data(), sizes[i]}))
        << "frame " << i;
  }
  // The IC frame's FCS covers the inserted checksum, not the staged bytes.
  EXPECT_FALSE(std::equal(icf.begin(), icf.end(), frames[1].data.begin()));
}

// Runts and frames longer than the RX buffer are length errors (the
// 82576's ROC/RUC), not FCS errors: rx_crc_errors means wire corruption.
TEST_F(DeviceFixture, LengthErrorsAreNotCountedAsCrcErrors) {
  nic::RxDesc rd{};
  rd.buffer_addr = kRxBuf;
  mem.store_scalar(root, kRxRing + 0 * sizeof(nic::RxDesc), rd);
  dev.port(0).write_rdt(4);
  // 2100 bytes with a valid FCS into the fixture's 2048-byte buffers.
  const auto big = seeded_bytes(2100, 3);
  nic::Frame f;
  f.data = big;
  f.data.resize(2104);
  const std::uint32_t fcs = nic::crc32_ieee(big);
  std::memcpy(f.data.data() + 2100, &fcs, 4);
  wire.transmit(1, std::move(f), Ns{0});
  nic::Frame runt;
  runt.data.resize(10, std::byte{0x77});
  wire.transmit(1, std::move(runt), Ns{0});
  clock.advance_to(Ns{1'000'000});
  dev.poll(clock.now());
  EXPECT_EQ(dev.port(0).stats().rx_length_errors, 2u);
  EXPECT_EQ(dev.port(0).stats().rx_crc_errors, 0u);
  EXPECT_EQ(dev.port(0).stats().rx_packets, 0u);
}

TEST_F(DeviceFixture, RingFullDropsAreCounted) {
  // RDT == RDH: no descriptors available.
  dev.port(0).write_rdt(0);
  std::vector<std::byte> payload(64, std::byte{1});
  nic::Frame f;
  f.data = payload;
  f.data.resize(68);
  const std::uint32_t fcs = nic::crc32_ieee(std::span{payload});
  std::memcpy(f.data.data() + 64, &fcs, 4);
  wire.transmit(1, std::move(f), Ns{0});
  clock.advance_to(Ns{1'000'000});
  dev.poll(clock.now());
  EXPECT_EQ(dev.port(0).stats().rx_no_desc, 1u);
}
