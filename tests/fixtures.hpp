// Shared test fixtures.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <span>

#include "apps/ff_ops.hpp"
#include "fstack/api.hpp"
#include "fstack/uring.hpp"
#include "scenarios/two_stacks.hpp"

namespace cherinet::test {

/// The library's deterministic twin-stack rig (scenarios/two_stacks.hpp),
/// shared with the benches and examples that need a peer stack.
using scen::TwoStacks;

/// A header-initialized ring on stack A's heap, attached to stack A.
struct AttachedRing {
  machine::CapView mem;
  fstack::FfUring ring;
  int id = -1;
};

inline AttachedRing attach_ring(TwoStacks& ts, std::uint32_t sq,
                                std::uint32_t cq) {
  AttachedRing r;
  r.mem = ts.heap_a().alloc_view(fstack::FfUring::bytes_for(sq, cq));
  r.ring = fstack::FfUring(r.mem, sq, cq);
  r.id = fstack::ff_uring_attach(ts.a(), r.mem, sq, cq);
  EXPECT_GT(r.id, 0);
  return r;
}

/// Zero-copy TX on stack A the way every app submits it: one OP_ZC_ALLOC,
/// OP_ZC_SEND or OP_ZC_ABORT per SQE, drained by the ring's doorbell, one
/// CQE back. `tid` binds the ring to a tenant (0 leaves it untenanted).
class ZcTxRing {
 public:
  explicit ZcTxRing(TwoStacks& ts, int tid = 0)
      : ts_(ts), r_(attach_ring(ts, 8, 8)) {
    if (tid != 0) {
      EXPECT_EQ(fstack::ff_uring_bind_tenant(ts.a(), r_.id, tid), 0);
    }
  }

  /// One grant of `len` bytes. Returns the CQE result (`len`, or the
  /// refusal) and fills `out` from the CQE: token and writable room, or
  /// token 0 and no room when refused.
  std::int64_t alloc(std::size_t len, fstack::FfZcBuf* out) {
    fstack::FfUringSqe e;
    e.op = fstack::UringOp::kZcAlloc;
    e.a[0] = 1;
    e.a[1] = len;
    const fstack::FfUringCqe c = submit(e);
    *out = {c.aux0, c.cap};
    return c.result;
  }
  std::int64_t send(int fd, std::uint64_t token, std::size_t len) {
    fstack::FfUringSqe e;
    e.op = fstack::UringOp::kZcSend;
    e.fd = fd;
    e.a[0] = token;
    e.a[1] = len;
    return submit(e).result;
  }
  std::int64_t abort(std::uint64_t token) {
    fstack::FfUringSqe e;
    e.op = fstack::UringOp::kZcAbort;
    e.a[0] = token;
    return submit(e).result;
  }

 private:
  fstack::FfUringCqe submit(const fstack::FfUringSqe& e) {
    EXPECT_NE(r_.ring.sq_push(e), fstack::FfUring::Push::kFull);
    EXPECT_EQ(fstack::ff_uring_doorbell(ts_.a(), r_.id), 1);
    fstack::FfUringCqe c;
    EXPECT_EQ(r_.ring.cq_pop({&c, 1}), 1u);
    return c;
  }

  TwoStacks& ts_;
  AttachedRing r_;
};

/// Zero-copy RX the way every app takes it: one OP_ZC_RECV or OP_RECYCLE
/// per SQE, drained by the ring's doorbell. On TwoStacks the ring is stack
/// A's, called directly, and `tid` binds it to a tenant (0 leaves it
/// untenanted). Behind a Scenario 2 proxy the ring is attached through the
/// app's sealed entry, which binds the app's tenant, and `mem` is app
/// memory of FfUring::bytes_for(kSq, kCq) bytes.
class ZcRxRing {
 public:
  static constexpr std::uint32_t kSq = 8;
  static constexpr std::uint32_t kCq = 16;

  explicit ZcRxRing(TwoStacks& ts, int tid = 0) : direct_(&ts.a()) {
    ops_ = &*direct_;
    attach(ts.heap_a().alloc_view(fstack::FfUring::bytes_for(kSq, kCq)));
    if (tid != 0) {
      EXPECT_EQ(fstack::ff_uring_bind_tenant(ts.a(), id_, tid), 0);
    }
  }
  ZcRxRing(apps::FfOps& ops, const machine::CapView& mem) : ops_(&ops) {
    attach(mem);
  }
  ZcRxRing(const ZcRxRing&) = delete;
  ZcRxRing& operator=(const ZcRxRing&) = delete;

  /// Up to out.size() loans (at most 8) from `fd`. Returns the loans
  /// filled from the loan CQEs (token, read-only view, source), or the
  /// answer of the one CQE that carried none: 0 at EOF, or -errno.
  std::int64_t recv(int fd, std::span<fstack::FfZcRxBuf> out) {
    fstack::FfUringSqe e;
    e.op = fstack::UringOp::kZcRecv;
    e.fd = fd;
    e.a[0] = out.size();
    submit(e);
    fstack::FfUringCqe cq[fstack::FfUringSqe::kMaxCaps];
    const std::size_t n = ring_.cq_pop(cq);
    EXPECT_GT(n, 0u);
    if (n == 0) return -EIO;
    if (cq[0].result < 0 || (cq[0].flags & fstack::kCqeEof) != 0) {
      return cq[0].result;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = {cq[i].aux0, cq[i].cap, fstack::uring_unpack_addr(cq[i].aux1)};
    }
    return static_cast<std::int64_t>(n);
  }
  /// One OP_RECYCLE of up to 16 tokens. Returns its CQE: result = tokens
  /// recycled (-EINVAL when none was), aux0 = tokens refused.
  fstack::FfUringCqe recycle(std::span<const std::uint64_t> tokens) {
    fstack::FfUringSqe e;
    e.op = fstack::UringOp::kRecycle;
    e.a[0] = tokens.size();
    std::copy(tokens.begin(), tokens.end(), e.tokens.begin());
    submit(e);
    fstack::FfUringCqe c;
    EXPECT_EQ(ring_.cq_pop({&c, 1}), 1u);
    return c;
  }
  /// Recycle loans, 16 per entry. Returns how many were recycled.
  std::int64_t recycle(std::span<const fstack::FfZcRxBuf> loans) {
    std::int64_t ok = 0;
    for (std::size_t i = 0; i < loans.size();
         i += fstack::FfUringSqe::kMaxTokens) {
      std::uint64_t toks[fstack::FfUringSqe::kMaxTokens];
      const std::size_t n = std::min<std::size_t>(
          loans.size() - i, fstack::FfUringSqe::kMaxTokens);
      for (std::size_t k = 0; k < n; ++k) toks[k] = loans[i + k].token;
      const fstack::FfUringCqe c = recycle({toks, n});
      if (c.result > 0) ok += c.result;
    }
    return ok;
  }
  /// Recycle one loan: 1, or -EINVAL when it is refused.
  std::int64_t recycle(const fstack::FfZcRxBuf& loan) {
    return recycle({&loan.token, 1}).result;
  }

  [[nodiscard]] fstack::FfUring& ring() noexcept { return ring_; }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  void attach(const machine::CapView& mem) {
    ring_ = fstack::FfUring(mem, kSq, kCq);
    id_ = ops_->uring_attach(mem, kSq, kCq);
    EXPECT_GT(id_, 0);
  }
  void submit(const fstack::FfUringSqe& e) {
    EXPECT_NE(ring_.sq_push(e), fstack::FfUring::Push::kFull);
    EXPECT_EQ(ops_->uring_doorbell(id_), 1);
  }

  std::optional<apps::DirectFfOps> direct_;
  apps::FfOps* ops_ = nullptr;
  fstack::FfUring ring_;
  int id_ = -1;
};

}  // namespace cherinet::test
