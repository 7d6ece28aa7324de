// Protocol plumbing: checksums, header parse/serialize round-trips, TCP
// options, fragmentation planning/reassembly, ARP cache.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fstack/arp.hpp"
#include "fstack/checksum.hpp"
#include "fstack/headers.hpp"
#include "fstack/ipv4.hpp"
#include "fstack/sockbuf.hpp"
#include "fstack/tcp_scoreboard.hpp"
#include "machine/address_space.hpp"
#include "machine/heap.hpp"
#include "updk/mempool.hpp"

using namespace cherinet;
using namespace cherinet::fstack;

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t raw[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(checksum(std::as_bytes(std::span{raw})), 0x220Du);
}

TEST(Checksum, OddLengthAndVerification) {
  const std::uint8_t raw[] = {0x45, 0x00, 0x00};
  const std::uint16_t ck = checksum(std::as_bytes(std::span{raw}));
  // Folding the checksum back in verifies to zero.
  std::uint32_t sum = checksum_partial(std::as_bytes(std::span{raw}));
  sum += ck;
  EXPECT_EQ(checksum_finish(sum), 0u);
}

TEST(Headers, EtherRoundTrip) {
  EtherHeader h;
  h.dst = nic::MacAddr::local(9);
  h.src = nic::MacAddr::local(7);
  h.ethertype = kEtherTypeIpv4;
  std::byte buf[EtherHeader::kSize];
  h.serialize(buf);
  const auto p = EtherHeader::parse(buf);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->dst, h.dst);
  EXPECT_EQ(p->src, h.src);
  EXPECT_EQ(p->ethertype, kEtherTypeIpv4);
  EXPECT_FALSE(EtherHeader::parse(std::span<const std::byte>{buf, 13}));
}

TEST(Headers, ArpRoundTrip) {
  ArpHeader a;
  a.oper = ArpHeader::kOpRequest;
  a.sha = nic::MacAddr::local(1);
  a.spa = Ipv4Addr::of(10, 0, 0, 1);
  a.tha = nic::MacAddr{};
  a.tpa = Ipv4Addr::of(10, 0, 0, 2);
  std::byte buf[ArpHeader::kSize];
  a.serialize(buf);
  const auto p = ArpHeader::parse(buf);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->oper, ArpHeader::kOpRequest);
  EXPECT_EQ(p->spa, a.spa);
  EXPECT_EQ(p->tpa, a.tpa);
  EXPECT_EQ(p->sha, a.sha);
}

TEST(Headers, Ipv4ChecksumValidation) {
  Ipv4Header h;
  h.total_len = 40;
  h.id = 7;
  h.proto = kIpProtoTcp;
  h.src = Ipv4Addr::of(10, 0, 0, 1);
  h.dst = Ipv4Addr::of(10, 0, 0, 2);
  std::byte buf[Ipv4Header::kSize];
  h.serialize(buf);
  auto p = Ipv4Header::parse(buf);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->src, h.src);
  EXPECT_EQ(p->total_len, 40);
  // Flip a bit: checksum must now fail.
  buf[8] ^= std::byte{0x01};
  EXPECT_FALSE(Ipv4Header::parse(buf));
}

TEST(Headers, Ipv4FragmentFields) {
  Ipv4Header h;
  h.flags_frag = Ipv4Header::kFlagMF | (1480 / 8);
  EXPECT_TRUE(h.more_fragments());
  EXPECT_EQ(h.frag_offset_bytes(), 1480);
}

TEST(Headers, TcpHeaderRoundTrip) {
  TcpHeader t;
  t.src_port = 49152;
  t.dst_port = 5201;
  t.seq = 0xDEADBEEF;
  t.ack = 0x12345678;
  t.flags = tcpflag::kAck | tcpflag::kPsh;
  t.window = 0x7FFF;
  std::byte buf[TcpHeader::kSize];
  t.serialize(buf);
  const auto p = TcpHeader::parse(buf);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->seq, t.seq);
  EXPECT_EQ(p->ack, t.ack);
  EXPECT_TRUE(p->has(tcpflag::kAck));
  EXPECT_TRUE(p->has(tcpflag::kPsh));
  EXPECT_FALSE(p->has(tcpflag::kSyn));
  EXPECT_EQ(p->window, 0x7FFF);
}

TEST(Headers, TcpOptionsSynRoundTrip) {
  TcpOptions o;
  o.mss = 1448;
  o.wscale = 7;
  o.timestamps = {1000u, 2000u};
  EXPECT_EQ(o.encoded_size() % 4, 0u);
  std::byte buf[44];
  const std::size_t n = o.serialize(buf);
  EXPECT_EQ(n, o.encoded_size());
  const auto p = TcpOptions::parse(std::span<const std::byte>{buf, n});
  ASSERT_TRUE(p.mss);
  EXPECT_EQ(*p.mss, 1448);
  ASSERT_TRUE(p.wscale);
  EXPECT_EQ(*p.wscale, 7);
  ASSERT_TRUE(p.timestamps);
  EXPECT_EQ(p.timestamps->first, 1000u);
  EXPECT_EQ(p.timestamps->second, 2000u);
}

TEST(Headers, TcpOptionsTolerateUnknownAndTruncated) {
  // kind=99 len=4, then MSS.
  const std::uint8_t raw[] = {99, 4, 0, 0, 2, 4, 0x05, 0xA8};
  const auto p = TcpOptions::parse(std::as_bytes(std::span{raw}));
  ASSERT_TRUE(p.mss);
  EXPECT_EQ(*p.mss, 1448);
  // Truncated option list parses what it can without reading past the end.
  const std::uint8_t trunc[] = {2, 4, 0x05};
  const auto q = TcpOptions::parse(std::as_bytes(std::span{trunc}));
  EXPECT_FALSE(q.mss);
}

TEST(Headers, TcpOptionsSackPermittedFitsTheSynPadding) {
  TcpOptions o;
  o.mss = 1448;
  o.wscale = 7;
  o.timestamps = {1000u, 2000u};
  const std::size_t without = o.encoded_size();
  o.sack_permitted = true;
  // The SYN keeps its 20 option bytes: SACK-permitted takes two pad bytes.
  EXPECT_EQ(o.encoded_size(), without);
  EXPECT_EQ(o.encoded_size(), 20u);
  std::byte buf[40];
  const std::size_t n = o.serialize(buf);
  EXPECT_EQ(n, 20u);
  const auto p = TcpOptions::parse(std::span<const std::byte>{buf, n});
  EXPECT_TRUE(p.sack_permitted);
  ASSERT_TRUE(p.mss && p.wscale && p.timestamps);
  EXPECT_EQ(*p.mss, 1448);
  EXPECT_EQ(p.timestamps->second, 2000u);
}

TEST(Headers, TcpOptionsSackBlocksRoundTrip) {
  TcpOptions o;
  o.timestamps = {7u, 9u};
  o.sack_count = 3;
  o.sack[0] = {0xFFFFFF00u, 0x00000100u};  // across the sequence wrap
  o.sack[1] = {5000u, 6448u};
  o.sack[2] = {9000u, 9001u};
  // Timestamps (10) + SACK (2 + 3 * 8) = 36: a multiple of 4, no padding.
  EXPECT_EQ(o.encoded_size(), 36u);
  std::byte buf[40];
  const std::size_t n = o.serialize(buf);
  ASSERT_EQ(n, 36u);
  const auto p = TcpOptions::parse(std::span<const std::byte>{buf, n});
  ASSERT_EQ(p.sack_count, 3u);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(p.sack[k], o.sack[k]);
  ASSERT_TRUE(p.timestamps);
  EXPECT_EQ(p.timestamps->first, 7u);
  // A fourth block never goes out: it does not fit beside the timestamps.
  o.sack_count = 4;
  EXPECT_EQ(o.encoded_size(), 36u);
}

// A SACK option is 2 + 8n bytes with 1 <= n <= 4 (RFC 2018 §3). Anything
// else is ignored whole, and nothing past the option list is read.
TEST(Headers, TcpOptionsMalformedSackIsIgnored) {
  const auto block = [](std::vector<std::uint8_t>& v, std::uint32_t l,
                        std::uint32_t r) {
    for (int s = 24; s >= 0; s -= 8) v.push_back(std::uint8_t(l >> s));
    for (int s = 24; s >= 0; s -= 8) v.push_back(std::uint8_t(r >> s));
  };
  const auto parse = [](const std::vector<std::uint8_t>& v) {
    return TcpOptions::parse(std::as_bytes(std::span{v}));
  };
  {  // well formed: two blocks, then an MSS that must still parse
    std::vector<std::uint8_t> v{5, 18};
    block(v, 100, 200);
    block(v, 300, 400);
    v.insert(v.end(), {2, 4, 0x05, 0xA8});
    const auto p = parse(v);
    ASSERT_EQ(p.sack_count, 2u);
    EXPECT_EQ(p.sack[1], (SackBlock{300, 400}));
    ASSERT_TRUE(p.mss);
  }
  {  // length not 2 + 8n: skipped by its length, the MSS after it parses
    std::vector<std::uint8_t> v{5, 12};
    block(v, 100, 200);
    v.insert(v.end(), {0, 0});
    v.insert(v.end(), {2, 4, 0x05, 0xA8});
    const auto p = parse(v);
    EXPECT_EQ(p.sack_count, 0u);
    ASSERT_TRUE(p.mss);
  }
  {  // no block at all
    const auto p = parse({5, 2, 2, 4, 0x05, 0xA8});
    EXPECT_EQ(p.sack_count, 0u);
    ASSERT_TRUE(p.mss);
  }
  {  // five blocks: more than any option space holds
    std::vector<std::uint8_t> v{5, 42};
    for (std::uint32_t k = 0; k < 5; ++k) block(v, k * 10, k * 10 + 5);
    EXPECT_EQ(parse(v).sack_count, 0u);
  }
  {  // truncated block: the length runs past the option list
    std::vector<std::uint8_t> v{5, 18};
    block(v, 100, 200);
    v.insert(v.end(), {0, 0, 1});
    EXPECT_EQ(parse(v).sack_count, 0u);
  }
  {  // SACK-permitted must be exactly two bytes long
    EXPECT_FALSE(parse({4, 3, 0, 1}).sack_permitted);
    EXPECT_TRUE(parse({4, 2, 1, 1}).sack_permitted);
  }
}

// The sender's scoreboard under a seeded storm of sends, cumulative ACKs,
// loss marks, retransmissions and SACK blocks — a third of them hostile
// (below the first byte, past the end, reversed, straddling). After every
// step the ranges tile [first byte, end) in order, stay within kMaxRanges,
// and the SACKed/lost byte counts match the marks; a block that reaches
// outside the board changes nothing.
TEST(SackScoreboard, HostileBlocksKeepTheBoardBoundedAndConsistent) {
  std::mt19937 rng(0x5ac);
  SackScoreboard sb;
  std::uint32_t una = 0xFFFF0000u;  // the run crosses the sequence wrap
  std::uint32_t nxt = una;
  sim::Ns now{0};
  std::size_t peak = 0;
  bool wrapped = false;
  const auto pick = [&](std::uint32_t lo, std::uint32_t span) {
    return lo + (span == 0 ? 0 : static_cast<std::uint32_t>(rng() % span));
  };
  for (int step = 0; step < 20000; ++step) {
    now += sim::Ns{1000};
    const std::uint32_t out = nxt - una;
    switch (rng() % 6) {
      case 0:
      case 1:
        if (out < 256 * 1024) {
          const std::uint32_t len = 1 + rng() % 4000;
          sb.on_send(nxt, len, now);
          nxt += len;
        }
        break;
      case 2:
        if (out > 0 && rng() % 4 == 0) {
          una += pick(1, out);
          sb.ack(una, [](const SackScoreboard::Range&) {});
        }
        break;
      case 3:
        if (out > 0) sb.mark_lost(pick(una, out), 1 + rng() % 3000);
        break;
      case 4:
        if (out > 0) {
          const std::uint32_t seq = pick(una, out);
          sb.on_retransmit(seq, std::min<std::uint32_t>(nxt - seq, 1448),
                           now);
        }
        break;
      default: {
        SackBlock b;
        const bool hostile = rng() % 3 == 0;
        b.left = pick(hostile ? una - 5000 : una, out + 5000);
        b.right = b.left + 1 + rng() % 6000;
        if (hostile && rng() % 2 == 0) std::swap(b.left, b.right);
        const std::uint32_t sacked = sb.sacked_bytes();
        const bool inside = seq_lt(b.left, b.right) && seq_ge(b.left, una) &&
                            seq_le(b.right, nxt);
        EXPECT_EQ(sb.sack(b, [](const SackScoreboard::Range&) {}),
                  inside && out > 0);
        if (!inside) {
          EXPECT_EQ(sb.sacked_bytes(), sacked);
        }
        break;
      }
    }
    const auto ranges = sb.ranges();
    ASSERT_LE(ranges.size(), SackScoreboard::kMaxRanges);
    ASSERT_EQ(ranges.empty(), una == nxt);
    std::uint32_t at = una, sacked = 0, lost = 0;
    for (const auto& r : ranges) {
      ASSERT_EQ(r.start, at);
      ASSERT_TRUE(seq_lt(r.start, r.end));
      at = r.end;
      if (r.has(SackScoreboard::kSacked)) sacked += r.len();
      if (r.has(SackScoreboard::kLost)) lost += r.len();
      ASSERT_FALSE(r.has(SackScoreboard::kSacked) &&
                   r.has(SackScoreboard::kLost));
    }
    if (!ranges.empty()) {
      ASSERT_EQ(at, nxt);
    }
    peak = std::max(peak, ranges.size());
    wrapped |= nxt < 0xFFFF0000u;
    ASSERT_EQ(sb.sacked_bytes(), sacked);
    ASSERT_EQ(sb.lost_bytes(), lost);
  }
  EXPECT_TRUE(wrapped) << "the run never crossed the sequence wrap";
  EXPECT_EQ(peak, SackScoreboard::kMaxRanges) << "the bound was never hit";
}

// A full board whose neighbours all differ has nothing safe to merge: a
// new send merges the last two ranges by forgetting the SACK mark they
// disagree on, and the board holds kMaxRanges, never more.
TEST(SackScoreboard, FullBoardForgetsRatherThanGrows) {
  SackScoreboard sb;
  constexpr std::uint32_t kLen = 1000;
  std::uint32_t nxt = 1;
  for (std::uint32_t k = 0; k < SackScoreboard::kMaxRanges; ++k) {
    sb.on_send(nxt, kLen, sim::Ns{k});  // every range its own burst
    if (k % 2 == 1) {
      ASSERT_TRUE(sb.sack({nxt, nxt + kLen}, [](const auto&) {}));
    }
    nxt += kLen;
  }
  ASSERT_EQ(sb.ranges().size(), SackScoreboard::kMaxRanges);
  ASSERT_EQ(sb.sacked_bytes(), SackScoreboard::kMaxRanges / 2 * kLen);
  sb.on_send(nxt, kLen, sim::Ns{1000});
  EXPECT_EQ(sb.ranges().size(), SackScoreboard::kMaxRanges);
  EXPECT_EQ(sb.sacked_bytes(), (SackScoreboard::kMaxRanges / 2 - 1) * kLen);
  const auto& merged = sb.ranges()[SackScoreboard::kMaxRanges - 2];
  EXPECT_EQ(merged.len(), 2 * kLen);
  EXPECT_FALSE(merged.has(SackScoreboard::kSacked));
  EXPECT_EQ(sb.ranges().back().end, nxt + kLen);
}

TEST(Fragmentation, PlanCoversPayloadWithAlignedOffsets) {
  const auto plan = plan_fragments(3000, 1500, Ipv4Header::kSize);
  ASSERT_EQ(plan.size(), 3u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].payload_off % 8, 0u);
    EXPECT_EQ(plan[i].more_fragments, i + 1 < plan.size());
    EXPECT_EQ(plan[i].payload_off, covered);
    covered += plan[i].payload_len;
  }
  EXPECT_EQ(covered, 3000u);
  // Small payload: single fragment, MF clear.
  const auto single = plan_fragments(100, 1500, Ipv4Header::kSize);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_FALSE(single[0].more_fragments);
}

TEST(Fragmentation, ReassemblyInOrderAndOutOfOrder) {
  FragReassembler r;
  std::vector<std::byte> payload(2000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i & 0xFF);
  }
  const auto plan = plan_fragments(payload.size(), 1500, Ipv4Header::kSize);
  ASSERT_EQ(plan.size(), 2u);

  const auto mk = [&](const FragmentPlan& f) {
    Ipv4Header h;
    h.id = 42;
    h.proto = kIpProtoUdp;
    h.src = Ipv4Addr::of(1, 1, 1, 1);
    h.dst = Ipv4Addr::of(2, 2, 2, 2);
    h.flags_frag = static_cast<std::uint16_t>(f.payload_off / 8);
    if (f.more_fragments) h.flags_frag |= Ipv4Header::kFlagMF;
    return h;
  };
  // Out of order: second fragment first.
  auto r1 = r.input(mk(plan[1]),
                    std::span{payload}.subspan(plan[1].payload_off),
                    sim::Ns{0});
  EXPECT_FALSE(r1.has_value());
  auto r2 = r.input(mk(plan[0]),
                    std::span{payload}.subspan(0, plan[0].payload_len),
                    sim::Ns{0});
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, payload);
  EXPECT_EQ(r.stats().reassembled, 1u);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(Fragmentation, StalePartialsExpire) {
  FragReassembler r;
  Ipv4Header h;
  h.id = 1;
  h.flags_frag = Ipv4Header::kFlagMF;
  std::byte data[8]{};
  EXPECT_FALSE(r.input(h, data, sim::Ns{0}).has_value());
  EXPECT_EQ(r.pending(), 1u);
  r.expire(FragReassembler::kTimeout - sim::Ns{1});
  EXPECT_EQ(r.pending(), 1u);
  r.expire(FragReassembler::kTimeout);
  EXPECT_EQ(r.pending(), 0u);
  EXPECT_EQ(r.stats().expired, 1u);
}

TEST(Arp, CacheLookupInsertExpiry) {
  ArpCache::Config cfg;
  cfg.entry_ttl = sim::Ns{1000};
  ArpCache arp(cfg);
  const auto ip = Ipv4Addr::of(10, 0, 0, 2);
  EXPECT_FALSE(arp.lookup(ip, sim::Ns{0}));
  arp.insert(ip, nic::MacAddr::local(5), sim::Ns{0});
  ASSERT_TRUE(arp.lookup(ip, sim::Ns{500}));
  EXPECT_EQ(arp.lookup(ip, sim::Ns{500})->bytes[5], 5);
  EXPECT_FALSE(arp.lookup(ip, sim::Ns{1500}));  // expired
}

TEST(Checksum, CombineOverRandomSplitsEqualsLinear) {
  // Property: folding per-slice partial sums in via checksum_combine at
  // the slice's offset — odd or even — always equals the linear checksum.
  // This is what lets emission compose a segment checksum from the send
  // chain's cached partials in O(#slices) with zero payload re-reads.
  std::mt19937 rng(0xC0FFEE);
  std::vector<std::byte> buf(2048);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 1 + rng() % buf.size();
    const std::uint32_t linear =
        checksum_partial(std::span<const std::byte>{buf.data(), n});
    std::uint32_t composed = 0;
    std::size_t at = 0;
    while (at < n) {
      const std::size_t k = 1 + rng() % (n - at);  // odd AND even offsets
      composed = checksum_combine(
          composed,
          checksum_partial(std::span<const std::byte>{buf.data() + at, k}),
          at);
      at += k;
    }
    ASSERT_EQ(checksum_fold16(linear), checksum_fold16(composed))
        << "n=" << n << " trial=" << trial;
  }
}

TEST(Checksum, CapPartialMatchesBufferPartial) {
  // The capability-walking checksum (scalar loads, no bounce buffer) must
  // agree with the byte-span implementation for every offset/length shape
  // around the 8-byte bulk loop's boundaries.
  machine::AddressSpace as(1u << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(64u << 10, cheri::PermSet::data_rw(), "ck"));
  const machine::CapView v = heap.alloc_view(4096);
  std::mt19937 rng(7);
  std::vector<std::byte> buf(2100);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  v.write(0, buf);
  for (const std::size_t off : {0u, 1u, 3u, 7u, 8u, 13u}) {
    for (const std::size_t len :
         {0u, 1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 100u, 1000u, 1448u}) {
      const std::uint32_t ref = checksum_partial(
          std::span<const std::byte>{buf.data() + off, len});
      const std::uint32_t cap = checksum_cap_partial(v, off, len);
      EXPECT_EQ(checksum_fold16(ref), checksum_fold16(cap))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Arp, PendingQueueIsBoundedAndFlushable) {
  machine::AddressSpace as(8u << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(4u << 20, cheri::PermSet::data_rw(), "arp"));
  updk::Mempool pool(&heap, 32, 2048);
  ArpCache arp;
  const auto ip = Ipv4Addr::of(10, 0, 0, 9);
  for (std::size_t i = 0; i < 20; ++i) {
    updk::Mbuf* m = pool.alloc();
    ASSERT_NE(m, nullptr);
    m->append(64);
    const bool ok = arp.park(ip, m, sim::Ns{0});
    EXPECT_EQ(ok, i < 16);  // default cap 16 frames per hop
    if (!ok) pool.free(m);  // refused frames stay the caller's to free
  }
  EXPECT_EQ(arp.pending_packets(), 16u);
  EXPECT_EQ(arp.pending_bytes(), 16u * 64u);
  EXPECT_EQ(arp.stats().drops, 4u);
  EXPECT_EQ(arp.stats().dropped_bytes, 4u * 64u);
  const auto flushed = arp.take_parked(ip);
  EXPECT_EQ(flushed.size(), 16u);
  for (updk::Mbuf* m : flushed) pool.free(m);
  EXPECT_EQ(arp.pending_packets(), 0u);
  EXPECT_EQ(pool.available(), 32u);  // nothing leaked through the queue
}

TEST(Arp, PendingQueueByteCapCountsDrops) {
  machine::AddressSpace as(8u << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(4u << 20, cheri::PermSet::data_rw(), "arp"));
  updk::Mempool pool(&heap, 8, 4096);
  ArpCache::Config cfg;
  cfg.max_pending_per_hop = 16;
  cfg.max_pending_bytes_per_hop = 3000;  // bytes bind before the frame cap
  ArpCache arp(cfg);
  const auto ip = Ipv4Addr::of(10, 0, 0, 7);
  for (std::size_t i = 0; i < 3; ++i) {
    updk::Mbuf* m = pool.alloc();
    ASSERT_NE(m, nullptr);
    m->append(1400);
    if (!arp.park(ip, m, sim::Ns{0})) pool.free(m);
  }
  EXPECT_EQ(arp.pending_packets(), 2u);  // the third frame burst the cap
  EXPECT_EQ(arp.stats().drops, 1u);
  EXPECT_EQ(arp.stats().dropped_bytes, 1400u);
  for (updk::Mbuf* m : arp.take_all_parked()) pool.free(m);
  EXPECT_EQ(pool.available(), 8u);
}

TEST(Arp, RequestRateLimiting) {
  ArpCache arp;
  const auto ip = Ipv4Addr::of(10, 0, 0, 9);
  EXPECT_TRUE(arp.should_request(ip, sim::Ns{0}));
  EXPECT_FALSE(arp.should_request(ip, sim::Ns{50'000'000}));
  EXPECT_TRUE(arp.should_request(ip, sim::Ns{200'000'000}));
}

TEST(SockBuf, RingSemanticsWithCapabilities) {
  machine::AddressSpace as(1 << 20);
  machine::CompartmentHeap heap(
      &as.mem(), as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  SockBuf sb(heap.alloc_view(64));
  EXPECT_EQ(sb.capacity(), 64u);

  auto src = heap.alloc_view(100);
  for (std::uint32_t i = 0; i < 100; ++i) {
    src.store<std::uint8_t>(i, static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(sb.write_from(src, 0, 100), 64u);  // clipped
  EXPECT_EQ(sb.free(), 0u);

  std::byte peeked[10];
  sb.peek(5, peeked);
  EXPECT_EQ(static_cast<std::uint8_t>(peeked[0]), 5);

  sb.consume(30);
  EXPECT_EQ(sb.used(), 34u);
  // Wrap-around write: the bytes sit up to the ring's edge, so both
  // writes land at its physical start.
  EXPECT_EQ(sb.write_from(src, 0, 10), 10u);
  EXPECT_EQ(sb.write_from(src, 10, 10), 10u);
  std::byte tail[54];
  sb.peek(0, tail);
  EXPECT_EQ(static_cast<std::uint8_t>(tail[0]), 30);
  EXPECT_EQ(static_cast<std::uint8_t>(tail[33]), 63);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(tail[34 + i]), i);
  }
  SockBuf::PhysSpan spans[2];
  EXPECT_EQ(sb.phys_spans(0, 54, spans), 2u);  // the data wraps the edge
  EXPECT_EQ(spans[0].len + spans[1].len, 54u);
  EXPECT_THROW(sb.consume(100), std::out_of_range);
  EXPECT_THROW(sb.peek(50, tail), std::out_of_range);
  sb.consume(54);
  EXPECT_TRUE(sb.empty());
}
