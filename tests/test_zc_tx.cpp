// TCP zero-copy TX (the TxChain retransmission store): end-to-end delivery
// with ZERO send-side byte copies, retransmission re-reading the still-live
// mbuf after loss, partial-ACK head trimming, token lifecycle hardening
// (replay/forge -> -EINVAL before any TCP state mutates), and teardown
// (FIN completion, RST, RTO give-up) releasing every retained reference
// back to the pool — the leak half runs under the ASan ctest leg too.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <random>
#include <vector>

#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "fstack/checksum.hpp"
#include "fstack/tx_chain.hpp"
#include "machine/address_space.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::TwoStacks;

namespace {

struct Conn {
  int afd = -1;  // A side (client)
  int bfd = -1;  // B side (accepted)
  int listen_fd = -1;
};

Conn establish(TwoStacks& ts, std::uint16_t port) {
  Conn c;
  c.listen_fd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_bind(ts.b(), c.listen_fd, {Ipv4Addr{}, port}), 0);
  EXPECT_EQ(ff_listen(ts.b(), c.listen_fd, 4), 0);
  c.afd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_connect(ts.a(), c.afd, {ts.ip_b(), port}), -EINPROGRESS);
  ts.pump_until([&] {
    c.bfd = ff_accept(ts.b(), c.listen_fd, nullptr);
    return c.bfd >= 0;
  });
  EXPECT_GE(c.bfd, 0);
  return c;
}

std::vector<std::byte> pattern(std::size_t n, std::size_t phase = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(((phase + i) * 131) >> 3);
  }
  return v;
}

/// Queue `total` patterned bytes on `fd` purely through the zc TX path
/// (ff_zc_alloc + in-place compose + ff_zc_send), pumping between chunks;
/// returns bytes queued.
std::uint64_t zc_send_stream(TwoStacks& ts, int fd, std::uint64_t total,
                             std::size_t chunk = 1000) {
  std::uint64_t sent = 0;
  ts.pump_until(
      [&] {
        while (sent < total) {
          const std::size_t n = std::min<std::uint64_t>(chunk, total - sent);
          FfZcBuf zc;
          if (ff_zc_alloc(ts.a(), n, &zc) != 0) break;
          const auto bytes = pattern(n, sent);
          zc.data.write(0, bytes);
          const std::int64_t r = ff_zc_send(ts.a(), fd, zc, n);
          if (r != static_cast<std::int64_t>(n)) {
            // -EAGAIN keeps the reservation; abort it and retry next turn.
            ff_zc_abort(ts.a(), zc);
            break;
          }
          sent += n;
        }
        return sent == total;
      },
      2'000'000);
  return sent;
}

/// Read everything available on B and verify the position-derived pattern.
void drain_and_verify(TwoStacks& ts, int bfd, std::uint64_t total,
                      std::uint64_t* received, std::uint64_t* corrupt) {
  auto dst = ts.heap_b().alloc_view(4096);
  ts.pump_until(
      [&] {
        while (true) {
          const auto r = ff_read(ts.b(), bfd, dst, 4096);
          if (r <= 0) break;
          for (std::size_t i = 0; i < static_cast<std::size_t>(r); ++i) {
            const auto expect =
                static_cast<std::byte>(((*received + i) * 131) >> 3);
            if (dst.load<std::uint8_t>(i) !=
                static_cast<std::uint8_t>(expect)) {
              ++*corrupt;
            }
          }
          *received += static_cast<std::uint64_t>(r);
        }
        return *received == total;
      },
      4'000'000);
}

}  // namespace

TEST(ZcTcpTx, DeliversWithZeroSendSideCopies) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  constexpr std::uint64_t kTotal = 64 * 1024;
  ASSERT_EQ(zc_send_stream(ts, c.afd, kTotal), kTotal);
  std::uint64_t received = 0, corrupt = 0;
  drain_and_verify(ts, c.bfd, kTotal, &received, &corrupt);
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(corrupt, 0u);
  // The sending stack never byte-copied app payload: everything rode
  // retained mbuf references.
  EXPECT_EQ(ts.a().tx_stats().copied_bytes, 0u);
  EXPECT_EQ(ts.a().tx_stats().zc_bytes, kTotal);
  EXPECT_GE(ts.a().tx_stats().zc_segs, kTotal / 1448);
}

TEST(ZcTcpTx, AlignedStreamEmitsWithZeroPayloadReadsEvenAcrossLoss) {
  // MSS-sized zc slices align with emitted segments, so scatter-gather
  // emission composes each segment's checksum from the partial cached at
  // ff_zc_send time and chains indirect mbufs over the live rooms: ZERO
  // payload bytes are read back at emission — for the first transmission
  // AND for the loss-driven retransmissions (which re-reference the same
  // still-live slices).
  TwoStacks ts;
  ts.wire().set_loss([](int side, std::uint64_t idx) {
    return side == 0 && idx >= 12 && idx < 14;  // drop two A->B data frames
  });
  const Conn c = establish(ts, 5201);
  constexpr std::uint64_t kAligned = 1448 * 48;  // whole MSS-sized slices
  ASSERT_EQ(zc_send_stream(ts, c.afd, kAligned, 1448), kAligned);
  std::uint64_t received = 0, corrupt = 0;
  drain_and_verify(ts, c.bfd, kAligned, &received, &corrupt);
  EXPECT_EQ(received, kAligned);
  EXPECT_EQ(corrupt, 0u);
  const TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  EXPECT_GT(pcb->counters().rexmits + pcb->counters().fast_rexmits, 0u);
  EXPECT_EQ(ts.a().tx_stats().copied_bytes, 0u);
  EXPECT_EQ(ts.a().tx_stats().emit_payload_reads, 0u)
      << "emission must compose cached checksums and gather via indirect "
         "chains, never read payload back";
  // Every indirect segment the emission chained was detached when the
  // driver reclaimed its frame: allocs and frees balance.
  ts.pump(2000);
  EXPECT_EQ(ts.pool_a().stats().indirect_allocs,
            ts.pool_a().stats().indirect_frees);
  EXPECT_EQ(ts.pool_a().indirect_available(), ts.pool_a().size());
}

TEST(ZcTcpTx, RetransmitAfterLossReReadsTheLiveMbuf) {
  TwoStacks ts;
  // Drop a handful of A->B data frames mid-flow: the retransmitted bytes
  // can only be correct if the send queue still holds the LIVE mbuf (an
  // early recycle would hand the room to another flow and corrupt the
  // resend).
  ts.wire().set_loss([](int side, std::uint64_t idx) {
    return side == 0 && idx >= 10 && idx < 13;
  });
  const Conn c = establish(ts, 5201);
  // Baseline AFTER attach/establish: the PMD keeps descriptor rings
  // populated, so a quiescent pool is not the raw mbuf count.
  const std::uint32_t baseline = ts.pool_a().available();
  constexpr std::uint64_t kTotal = 96 * 1024;
  ASSERT_EQ(zc_send_stream(ts, c.afd, kTotal), kTotal);

  // While data is unacknowledged the pool visibly holds the references.
  EXPECT_LT(ts.pool_a().available(), baseline);

  std::uint64_t received = 0, corrupt = 0;
  drain_and_verify(ts, c.bfd, kTotal, &received, &corrupt);
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(corrupt, 0u) << "retransmission must re-read the live data room";

  const TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  EXPECT_GT(pcb->counters().rexmits + pcb->counters().fast_rexmits, 0u);
  EXPECT_EQ(ts.a().tx_stats().copied_bytes, 0u);

  // Cumulative ACK released every retained reference: once the stream is
  // fully acknowledged the pool is back at its quiescent level.
  ts.pump(2000);
  EXPECT_EQ(ts.pool_a().available(), baseline);
}

TEST(ZcTcpTx, ReplayedAndForgedTokensAreEinvalBeforeStateMutates) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);

  FfZcBuf zc;
  ASSERT_EQ(ff_zc_alloc(ts.a(), 512, &zc), 0);
  zc.data.write(0, pattern(512));
  const std::uint64_t token = zc.token;
  ASSERT_EQ(ff_zc_send(ts.a(), c.afd, zc, 512), 512);
  EXPECT_EQ(zc.token, 0u);  // consumed handle

  const TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  const auto before = pcb->debug_snapshot();
  const auto segs_before = pcb->counters().segs_out;

  // Replay the consumed token and forge one that never existed: both must
  // answer -EINVAL with the sequence space untouched and no segment sent.
  FfZcBuf replay;
  replay.token = token;
  EXPECT_EQ(ff_zc_send(ts.a(), c.afd, replay, 512), -EINVAL);
  FfZcBuf forged;
  forged.token = 0xDEAD600DULL;
  EXPECT_EQ(ff_zc_send(ts.a(), c.afd, forged, 512), -EINVAL);

  const auto after = pcb->debug_snapshot();
  EXPECT_EQ(after.snd_nxt, before.snd_nxt);
  EXPECT_EQ(after.snd_una, before.snd_una);
  EXPECT_EQ(after.snd_used, before.snd_used);
  EXPECT_EQ(pcb->counters().segs_out, segs_before);

  // The stream still completes exactly once (no duplicated payload).
  std::uint64_t received = 0, corrupt = 0;
  drain_and_verify(ts, c.bfd, 512, &received, &corrupt);
  EXPECT_EQ(received, 512u);
  EXPECT_EQ(corrupt, 0u);
}

TEST(ZcTcpTx, FinTeardownReleasesEveryRetainedReference) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  const std::uint32_t base_a = ts.pool_a().available();
  const std::uint32_t base_b = ts.pool_b().available();
  constexpr std::uint64_t kTotal = 32 * 1024;
  ASSERT_EQ(zc_send_stream(ts, c.afd, kTotal), kTotal);
  std::uint64_t received = 0, corrupt = 0;
  drain_and_verify(ts, c.bfd, kTotal, &received, &corrupt);
  ASSERT_EQ(received, kTotal);

  EXPECT_EQ(ff_close(ts.a(), c.afd), 0);
  auto dst = ts.heap_b().alloc_view(64);
  ts.pump_until([&] { return ff_read(ts.b(), c.bfd, dst, 64) == 0; });
  EXPECT_EQ(ff_close(ts.b(), c.bfd), 0);
  // Both PCBs drain through TIME_WAIT and reap; every zc TX reference (and
  // every RX loan on B) is back in its pool — the ASan leg would flag any
  // leak in the chain teardown as well.
  ts.pump_until([&] {
    const TcpPcb* p = nullptr;
    for (std::uint16_t q = 49152; q < 49160 && !p; ++q) {
      p = ts.a().find_pcb({ts.ip_a(), q, ts.ip_b(), 5201});
    }
    return p == nullptr;
  });
  EXPECT_EQ(ts.pool_a().available(), base_a);
  EXPECT_EQ(ts.pool_b().available(), base_b);
}

TEST(ZcTcpTx, RstAndRtoGiveUpReleaseUnackedReferences) {
  TwoStacks ts;
  const Conn c = establish(ts, 5201);
  const std::uint32_t base_a = ts.pool_a().available();

  // Queue zc payload, then black out the wire so nothing is ever ACKed:
  // the references sit pinned in the retransmission store.
  std::atomic<bool> blackout{false};
  ts.wire().set_loss([&blackout](int, std::uint64_t) {
    return blackout.load(std::memory_order_relaxed);
  });
  constexpr std::uint64_t kTotal = 8 * 1024;
  blackout = true;
  std::uint64_t queued = 0;
  while (queued < kTotal) {
    FfZcBuf zc;
    ASSERT_EQ(ff_zc_alloc(ts.a(), 1000, &zc), 0);
    zc.data.write(0, pattern(1000));
    ASSERT_EQ(ff_zc_send(ts.a(), c.afd, zc, 1000), 1000);
    queued += 1000;
  }
  EXPECT_LT(ts.pool_a().available(), base_a);

  // The RTO machinery backs off max_rexmit times and gives up (ETIMEDOUT):
  // the give-up path must free every retained reference even though the
  // socket fd is still open and the PCB not yet reaped.
  TcpPcb* pcb = nullptr;
  for (std::uint16_t p = 49152; p < 49160 && !pcb; ++p) {
    pcb = ts.a().find_pcb({ts.ip_a(), p, ts.ip_b(), 5201});
  }
  ASSERT_NE(pcb, nullptr);
  ts.pump_until([&] { return pcb->closed(); }, 4'000'000);
  ASSERT_TRUE(pcb->closed());
  EXPECT_EQ(pcb->error(), ETIMEDOUT);
  // Every TX reference was released at give-up: A's pool is back at its
  // quiescent level even though the fd is still open.
  EXPECT_EQ(ts.pool_a().available(), base_a);
  ff_close(ts.a(), c.afd);

  // RST path: a fresh connection, zc bytes in flight, then B's socket and
  // listener are torn down under A's feet — the RST must release A's
  // retained references the moment it lands.
  blackout = false;
  const Conn c2 = establish(ts, 5202);
  ASSERT_EQ(zc_send_stream(ts, c2.afd, 4'000), 4'000u);
  ff_close(ts.b(), c2.bfd);
  ff_close(ts.b(), c2.listen_fd);
  auto src = ts.heap_a().alloc_view(64);
  std::int64_t r = 0;
  ts.pump_until(
      [&] {
        r = ff_write(ts.a(), c2.afd, src, 64);
        return r < 0 && r != -EAGAIN;
      },
      3'000'000);
  EXPECT_TRUE(r == -ECONNRESET || r == -EPIPE || r == -ETIMEDOUT) << r;
  // A zc submit against the DEAD connection consumes the reservation and
  // frees the buffer immediately: a retry pipeline cannot leak one data
  // room per doomed attempt.
  FfZcBuf dead;
  ASSERT_EQ(ff_zc_alloc(ts.a(), 256, &dead), 0);
  const std::int64_t dr = ff_zc_send(ts.a(), c2.afd, dead, 256);
  EXPECT_LT(dr, 0);
  EXPECT_NE(dr, -EAGAIN);
  EXPECT_EQ(dead.token, 0u);  // consumed, not leaked into the token table
  ts.pump(2000);
  EXPECT_EQ(ts.pool_a().available(), base_a);
}

// TxChain::gather resumes from a cursor where the last call ended. Drive one
// chain through a seeded mix of copy writes (runs under 1448 B coalesce into
// the back slice), zero-copy pushes, partial and whole consumes,
// release_all and move-assignment; after each step gather at forward
// offsets, at the same offset twice and at backward (retransmit-style)
// offsets. Every gather's pieces must equal peek() over the same range and
// every piece flagged csum_ok must carry the sum of exactly its bytes.
TEST(TxChainGather, CursorMatchesPeekThroughRandomMutation) {
  machine::AddressSpace as{32u << 20};
  machine::CompartmentHeap heap{
      &as.mem(), as.carve(24u << 20, cheri::PermSet::data_rw(), "txchain")};
  updk::Mempool pool(&heap, 256, 4096);
  TxStats stats;
  constexpr std::size_t kSndbuf = 48 * 1024;
  const auto make = [&] {
    return TxChain(SockBuf(heap.alloc_view(kSndbuf)), &pool, &stats);
  };
  auto src = heap.alloc_view(3000);
  std::mt19937 rng(0x6A7E);
  const auto uniform = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  const auto random_bytes = [&](std::size_t n) {
    std::vector<std::byte> v(n);
    for (auto& b : v) b = std::byte{static_cast<std::uint8_t>(rng())};
    return v;
  };
  // Appends to `c` and to its byte model `m`.
  const auto write = [&](TxChain& c, std::vector<std::byte>& m,
                         std::size_t n) {
    const auto bytes = random_bytes(n);
    src.write(0, bytes);
    const std::size_t got = c.writev_from(std::array{FfIovec{src, n}});
    m.insert(m.end(), bytes.begin(), bytes.begin() + got);
  };

  std::vector<TxPiece> pieces(8192);
  std::uint64_t checked = 0;
  const auto check = [&](const TxChain& c, std::size_t off, std::size_t len) {
    const std::size_t n = c.gather(off, len, pieces);
    ASSERT_TRUE(n > 0 || len == 0) << "off " << off << " len " << len;
    std::vector<std::byte> got;
    for (std::size_t i = 0; i < n; ++i) {
      const TxPiece& p = pieces[i];
      std::vector<std::byte> b(p.len);
      if (p.m != nullptr) {
        p.m->room.read(p.off, b);
      } else {
        p.view.read(0, b);
      }
      if (p.csum_ok) {
        ASSERT_EQ(checksum_fold16(p.csum),
                  checksum_fold16(checksum_partial(b)))
            << "off " << off << " piece " << i;
      }
      got.insert(got.end(), b.begin(), b.end());
    }
    std::vector<std::byte> want(len);
    c.peek(off, want);
    ASSERT_EQ(got, want) << "off " << off << " len " << len;
    ++checked;
  };

  TxChain chain = make();
  std::vector<std::byte> model;
  for (int step = 0; step < 3000; ++step) {
    const std::size_t op = uniform(0, 99);
    if (op < 40) {
      // Mostly sub-MSS runs so the back slice coalesces.
      write(chain, model, op < 25 ? uniform(1, 1447) : uniform(1, 3000));
    } else if (op < 55) {
      updk::Mbuf* m = pool.alloc();
      if (m != nullptr) {
        const auto off = static_cast<std::uint32_t>(uniform(0, 1000));
        const auto len = static_cast<std::uint32_t>(uniform(1, 3000));
        const auto bytes = random_bytes(len);
        m->room.write(off, bytes);
        if (chain.push_zc(m, off, len, checksum_partial(bytes))) {
          model.insert(model.end(), bytes.begin(), bytes.end());
        } else {
          pool.free(m);
        }
      }
    } else if (op < 80) {
      // Partial consumes trim the head slice; whole ones pop slices.
      const std::size_t n =
          op < 70 ? uniform(0, std::min<std::size_t>(model.size(), 4000))
                  : model.size();
      chain.consume(n);
      model.erase(model.begin(), model.begin() + static_cast<long>(n));
    } else if (op < 83) {
      chain.release_all();
      model.clear();
    } else if (op < 86) {
      // Move-assign a freshly filled chain over this one, then round-trip
      // it through the move constructor.
      TxChain other = make();
      std::vector<std::byte> other_model;
      for (std::size_t i = uniform(0, 6); i > 0; --i) {
        write(other, other_model, uniform(1, 3000));
      }
      chain = std::move(other);
      TxChain moved(std::move(chain));
      chain = std::move(moved);
      model = std::move(other_model);
    }
    ASSERT_EQ(chain.used(), model.size());
    if (model.empty()) {
      check(chain, 0, 0);
      continue;
    }
    std::vector<std::byte> all(model.size());
    chain.peek(0, all);
    ASSERT_EQ(all, model) << "step " << step;

    // Forward: in-order MSS-sized windows, as emission walks them.
    std::size_t off = uniform(0, model.size() - 1);
    for (int i = 0; i < 4 && off < model.size(); ++i) {
      const std::size_t len = std::min<std::size_t>(
          uniform(1, 1448), model.size() - off);
      check(chain, off, len);
      off += len;
    }
    // The same offset twice.
    const std::size_t again = uniform(0, model.size() - 1);
    const std::size_t again_len =
        std::min<std::size_t>(uniform(0, 2000), model.size() - again);
    check(chain, again, again_len);
    check(chain, again, again_len);
    // Backward, retransmit-style: below where the last gather ended.
    const std::size_t back = uniform(0, again);
    check(chain, back,
          std::min<std::size_t>(uniform(1, 1448), model.size() - back));
    // A gather that runs out of pieces returns 0 and must leave the cursor
    // usable for the next one.
    TxPiece one[1];
    (void)chain.gather(0, model.size(), one);
    check(chain, uniform(0, model.size() - 1), 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(checked, 10000u);
  chain.release_all();
  EXPECT_EQ(pool.available(), pool.size());
}
