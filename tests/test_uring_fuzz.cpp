// Seeded SQE fuzzing over the v8 ring boundary. A hostile ring owner can
// write ANY bytes into its submission slots — unknown opcodes, forged
// (untagged) capabilities, replayed zc tokens, bogus fds, garbage arguments.
// The drain's validation sweep must answer every malformed entry with its
// own per-entry error CQE, and NOTHING may leak across rings: a well-behaved
// ring streaming alongside the fuzzer must deliver a byte-identical stream.
//
// The fuzzer bypasses FfUring::sq_push on purpose: it raw-stores the SQE
// image (data stores clear capability tags — cheri/tagged_memory.hpp), so
// every "capability" the stack decodes out of a fuzzed slot is exactly the
// forged-granule shape a CHERI compartment breach would need.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <vector>

#include "fixtures.hpp"
#include "fstack/api.hpp"
#include "fstack/uring.hpp"

using namespace cherinet;
using namespace cherinet::fstack;
using cherinet::test::AttachedRing;
using cherinet::test::attach_ring;
using cherinet::test::TwoStacks;

namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Raw-store one malformed SQE straight into the ring slot and publish the
/// tail — the whole point is that none of the fields went through a typed
/// API, so the payload granules hold untagged garbage where decode_sqe
/// expects capabilities.
bool raw_push(AttachedRing& r, std::uint32_t sq_cap, std::uint32_t op_raw,
              std::int32_t fd, std::uint64_t user_data,
              const std::uint64_t (&a)[4], std::uint32_t ncaps,
              std::uint64_t& rng) {
  const std::uint32_t head = r.mem.atomic_load_u32(FfUring::kSqHead);
  const std::uint32_t tail = r.mem.atomic_load_u32(FfUring::kSqTail);
  if (tail - head >= sq_cap) return false;
  const std::uint64_t off = FfUring::sqe_off(sq_cap, tail & (sq_cap - 1));
  r.mem.store<std::uint32_t>(off + 0, op_raw);
  r.mem.store<std::int32_t>(off + 4, fd);
  r.mem.store<std::uint64_t>(off + 8, user_data);
  for (std::size_t i = 0; i < 4; ++i) {
    r.mem.store<std::uint64_t>(off + 16 + i * 8, a[i]);
  }
  r.mem.store<std::uint32_t>(off + 48, ncaps);
  // Garbage over every payload slot: for cap-carrying ops these granules
  // decode as untagged capabilities; for OP_RECYCLE they are forged tokens.
  for (std::size_t i = 0; i < FfUringSqe::kMaxTokens; ++i) {
    r.mem.store<std::uint64_t>(off + FfUring::kSqePayloadOff + i * 8,
                               splitmix64(rng));
  }
  r.mem.atomic_store_u32(FfUring::kSqTail, tail + 1);
  return true;
}

/// One seeded malformed submission covering every v8 opcode (plus unknown
/// opcodes past the enum). Every shape below must earn a NEGATIVE result
/// CQE — none touches live state (fds are bogus, tokens forged, caps
/// untagged, lengths impossible).
bool push_fuzz_sqe(AttachedRing& r, std::uint32_t sq_cap, std::uint64_t ud,
                   std::uint64_t& rng) {
  const std::uint64_t pick = splitmix64(rng);
  const int bogus_fd = 500 + static_cast<int>(pick >> 32 & 0xFF);
  std::uint64_t a[4] = {splitmix64(rng), splitmix64(rng), splitmix64(rng),
                        splitmix64(rng)};
  switch (pick % 12) {
    case 0:  // unknown opcode -> sweep verdict -EINVAL
      return raw_push(r, sq_cap, 13 + static_cast<std::uint32_t>(pick % 200),
                      bogus_fd, ud, a, 0, rng);
    case 1:  // OP_WRITEV with forged (untagged) caps -> sweep -EINVAL
      return raw_push(r, sq_cap, 1, bogus_fd, ud, a,
                      1 + static_cast<std::uint32_t>(pick % 8), rng);
    case 2:  // opcode 2 (OP_SENDMSG_BATCH until v13) -> unknown, -EINVAL
      return raw_push(r, sq_cap, 2, bogus_fd, ud, a,
                      1 + static_cast<std::uint32_t>(pick % 8), rng);
    case 3:  // OP_ZC_SEND with a forged token on a bogus fd
      return raw_push(r, sq_cap, 3, bogus_fd, ud, a, 0, rng);
    case 4:  // OP_ZC_RECV on a bogus fd
      a[0] = 1 + (a[0] & 0x7);
      a[1] = 0;
      return raw_push(r, sq_cap, 4, bogus_fd, ud, a, 0, rng);
    case 5:  // OP_RECYCLE: every token forged -> single -EINVAL verdict
      a[0] = 1 + (a[0] % FfUringSqe::kMaxTokens);
      return raw_push(r, sq_cap, 5, bogus_fd, ud, a, 0, rng);
    case 6:  // OP_ZC_ALLOC with an impossible length
      a[0] = 1 + (a[0] & 0x7);
      a[1] = (1u << 20) + (a[1] & 0xFFFF);  // far past any data room
      return raw_push(r, sq_cap, 8, bogus_fd, ud, a, 0, rng);
    case 7:  // OP_CONNECT on a bogus fd
      return raw_push(r, sq_cap, 9, bogus_fd, ud, a, 0, rng);
    case 8:  // OP_CLOSE on a bogus fd
      return raw_push(r, sq_cap, 10, bogus_fd, ud, a, 0, rng);
    case 9:  // OP_EPOLL_CTL with a garbage op code on a bogus epfd
      return raw_push(r, sq_cap, 11, bogus_fd, ud, a, 0, rng);
    case 10:  // OP_SET_CLASS on a bogus fd
      return raw_push(r, sq_cap, 12, bogus_fd, ud, a, 0, rng);
    default:  // OP_ACCEPT_MULTISHOT on a bogus fd: -EINVAL for the
              // reserved a0 (set here), -EBADF when a0 happens to be 0
      return raw_push(r, sq_cap, 6, bogus_fd, ud, a, 0, rng);
  }
}

struct FuzzRun {
  std::vector<std::int64_t> verdicts;  // every fuzz CQE result, in order
  std::vector<std::byte> received;     // what the peer read off the wire
  std::uint64_t fuzz_submitted = 0;
};

constexpr std::uint64_t kStreamBytes = 16 * 1024;
constexpr std::size_t kChunk = 512;
constexpr std::uint16_t kPort = 6107;
constexpr std::uint32_t kGoodSq = 16, kGoodCq = 16;
constexpr std::uint32_t kFuzzSq = 32, kFuzzCq = 64;

/// Drive the good ring's OP_WRITEV stream to completion while a fuzz ring
/// on the SAME stack takes `fuzz_per_round` malformed SQEs per round.
FuzzRun run_interleaved(std::uint64_t seed, int fuzz_per_round) {
  FuzzRun out;
  TwoStacks ts;
  std::uint64_t rng = seed;

  AttachedRing good = attach_ring(ts, kGoodSq, kGoodCq);
  AttachedRing fuzz = attach_ring(ts, kFuzzSq, kFuzzCq);

  // The honest stream: A -> B over a classically-established connection.
  const int lfd = ff_socket(ts.b(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_bind(ts.b(), lfd, {Ipv4Addr{}, kPort}), 0);
  EXPECT_EQ(ff_listen(ts.b(), lfd, 4), 0);
  const int cfd = ff_socket(ts.a(), kAfInet, kSockStream, 0);
  EXPECT_EQ(ff_connect(ts.a(), cfd, {ts.ip_b(), kPort}), -EINPROGRESS);
  int bfd = -1;
  ts.pump_until([&] {
    bfd = ff_accept(ts.b(), lfd, nullptr);
    return bfd >= 0;
  });
  EXPECT_GE(bfd, 0);

  // Seeded payload pattern, rendered once.
  machine::CapView tx = ts.heap_a().alloc_view(kStreamBytes);
  {
    std::uint64_t pat = seed ^ 0xC0FFEE;
    for (std::uint64_t off = 0; off < kStreamBytes; off += 8) {
      tx.store<std::uint64_t>(off, splitmix64(pat));
    }
  }
  machine::CapView rx = ts.heap_b().alloc_view(kChunk);

  std::uint64_t sent = 0;      // next tx offset to submit
  bool inflight = false;       // one OP_WRITEV outstanding at a time
  std::uint64_t fuzz_ud = 0;
  FfUringCqe cq[16];

  for (int round = 0; round < 4000; ++round) {
    for (int k = 0; k < fuzz_per_round; ++k) {
      if (push_fuzz_sqe(fuzz, kFuzzSq, ++fuzz_ud, rng)) {
        out.fuzz_submitted++;
      }
    }
    if (!inflight && sent < kStreamBytes) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(
              kChunk, kStreamBytes - sent));
      FfUringSqe w;
      w.op = UringOp::kWritev;
      w.fd = cfd;
      w.user_data = sent;
      w.ncaps = 1;
      w.caps[0] = tx.window(sent, n);
      if (good.ring.sq_push(w) != FfUring::Push::kFull) inflight = true;
    }
    ts.a().run_once();
    ts.b().run_once();
    ts.pump(4);

    // Reap the honest ring: partial writes resubmit the remainder.
    std::size_t n = good.ring.cq_pop({cq, 16});
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(cq[i].op, UringOp::kWritev);
      if (cq[i].result > 0) sent += static_cast<std::uint64_t>(cq[i].result);
      inflight = false;
    }
    // Reap the fuzzer: EVERY verdict must be an error; record the stream
    // of verdicts for the determinism leg.
    while ((n = fuzz.ring.cq_pop({cq, 16})) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(cq[i].result, 0)
            << "fuzz SQE " << cq[i].user_data << " op "
            << static_cast<std::uint32_t>(cq[i].op) << " succeeded";
        out.verdicts.push_back(cq[i].result);
      }
    }
    // Drain the peer side into the capture buffer.
    std::int64_t got;
    while ((got = ff_read(ts.b(), bfd, rx, kChunk)) > 0) {
      const std::size_t base = out.received.size();
      out.received.resize(base + static_cast<std::size_t>(got));
      rx.read(0, {out.received.data() + base,
                  static_cast<std::size_t>(got)});
    }
    if (sent >= kStreamBytes && !inflight &&
        out.received.size() >= kStreamBytes &&
        out.fuzz_submitted >= 300 &&
        out.verdicts.size() >= out.fuzz_submitted) {
      break;
    }
  }

  ff_close(ts.a(), cfd);
  ff_close(ts.b(), bfd);
  ff_close(ts.b(), lfd);
  return out;
}

}  // namespace

TEST(UringFuzz, MalformedSqesGetPerEntryVerdictsAndTheGoodStreamIsIntact) {
  const FuzzRun run = run_interleaved(0xF02DBEEF, 3);

  // Coverage: the fuzzer really ran, and every malformed entry got its own
  // error CQE — no silent drops, no poisoned neighbours in the sweep.
  EXPECT_GT(run.fuzz_submitted, 200u);
  EXPECT_EQ(run.verdicts.size(), run.fuzz_submitted);
  for (const std::int64_t v : run.verdicts) EXPECT_LT(v, 0);

  // The well-behaved ring's stream arrived byte-identical.
  ASSERT_EQ(run.received.size(), kStreamBytes);
  std::vector<std::byte> expect(kStreamBytes);
  std::uint64_t pat = 0xF02DBEEFULL ^ 0xC0FFEE;
  for (std::uint64_t off = 0; off < kStreamBytes; off += 8) {
    const std::uint64_t w = splitmix64(pat);
    std::memcpy(expect.data() + off, &w, 8);
  }
  EXPECT_EQ(std::memcmp(run.received.data(), expect.data(), kStreamBytes), 0);
}

TEST(UringFuzz, SeededRunsAreDeterministic) {
  const FuzzRun a = run_interleaved(0x5EED0001, 2);
  const FuzzRun b = run_interleaved(0x5EED0001, 2);
  EXPECT_EQ(a.fuzz_submitted, b.fuzz_submitted);
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.received, b.received);
}
