// Shared test fixtures.
#pragma once

#include <gtest/gtest.h>

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

}  // namespace cherinet::test
