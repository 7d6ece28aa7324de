#include "scenarios/adversary.hpp"

namespace cherinet::scen {

namespace {

/// SplitMix64 — tiny, seedable, and good enough to make forged tokens and
/// abuse cadences unpredictable to the stack while fully reproducible.
std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kCrashAfterSteps = 48;  // kCrash drop-dead point
constexpr std::size_t kReapBatch = 16;

}  // namespace

const char* to_string(HostileProfile p) noexcept {
  switch (p) {
    case HostileProfile::kHoard:
      return "hoard";
    case HostileProfile::kNoReap:
      return "no_reap";
    case HostileProfile::kFlood:
      return "flood";
    case HostileProfile::kStorm:
      return "storm";
    case HostileProfile::kForge:
      return "forge";
    case HostileProfile::kCrash:
      return "crash";
  }
  return "?";
}

HostileTenant::HostileTenant(apps::FfOps* ops, machine::CapView ring_mem,
                             std::uint32_t sq_capacity,
                             std::uint32_t cq_capacity, HostileProfile profile,
                             std::uint64_t seed, std::uint16_t listen_port)
    : ops_(ops),
      ring_(ring_mem, sq_capacity, cq_capacity),
      profile_(profile),
      rng_(seed ^ 0xA5A5A5A5DEADBEEFULL),
      listen_port_(listen_port) {
  ring_id_ = ops_->uring_attach(ring_mem, sq_capacity, cq_capacity);
}

HostileTenant::~HostileTenant() {
  // Deliberately sloppy: a hostile tenant does NOT clean up after itself.
  // Only the fds are closed (so harness teardown does not depend on the
  // eviction path having run); rings, reservations and queued SQEs are the
  // control plane's problem — that is the point of tenant_evict.
  if (listen_fd_ >= 0) ops_->close(listen_fd_);
  if (victim_fd_ >= 0) ops_->close(victim_fd_);
}

std::uint64_t HostileTenant::next_rand() { return splitmix64(rng_); }

void HostileTenant::reap_all() {
  fstack::FfUringCqe cqes[kReapBatch];
  std::size_t n;
  while ((n = ring_.cq_pop({cqes, kReapBatch})) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cqes[i].result < 0) {
        census_.rejects++;
      } else if (cqes[i].op == fstack::UringOp::kZcAlloc) {
        census_.reservations++;  // hoarded: the token is never spent
      }
    }
  }
}

void HostileTenant::push_and_bell(const fstack::FfUringSqe& e) {
  const auto verdict = ring_.sq_push(e);
  if (verdict == fstack::FfUring::Push::kFull) return;
  census_.submits++;
  if (verdict == fstack::FfUring::Push::kDoorbell && ring_id_ >= 0) {
    ops_->uring_doorbell(ring_id_);
    census_.doorbells++;
  }
}

fstack::FfUringCqe HostileTenant::submit_and_reap(
    const fstack::FfUringSqe& e) {
  fstack::FfUringCqe cqe;
  cqe.result = -EAGAIN;
  if (ring_.sq_push(e) == fstack::FfUring::Push::kFull) return cqe;
  census_.submits++;
  ops_->uring_doorbell(ring_id_);
  census_.doorbells++;
  if (ring_.cq_pop({&cqe, 1}) == 0) cqe.result = -EAGAIN;
  if (cqe.result < 0) census_.rejects++;
  return cqe;
}

bool HostileTenant::step() {
  if (census_.crashed || ring_id_ < 0) return false;
  census_.steps++;

  switch (profile_) {
    case HostileProfile::kHoard: {
      // Reserve zc TX rooms and never send or abort them: each success
      // pins one mbuf against the tenant's budget until the pool quota
      // answers -ENOBUFS. Reaping keeps the CQ clear so the pressure
      // lands on the POOL, not on CQ space.
      fstack::FfUringSqe e;
      e.op = fstack::UringOp::kZcAlloc;
      e.user_data = census_.steps;
      e.a[0] = 4;    // buffers per submission
      e.a[1] = 256;  // bytes each
      push_and_bell(e);
      reap_all();
      return true;
    }

    case HostileProfile::kNoReap: {
      // Arm a multishot accept once (re-derivable state the stack may
      // evict), then pour NOPs in and never pop a CQE: the CQ fills, the
      // stack's completions defer, and the tenant's cq_stall_rounds climb
      // until its arms are evicted.
      if (!armed_) {
        listen_fd_ = ops_->socket_stream();
        if (listen_fd_ >= 0 && ops_->bind(listen_fd_, fstack::Ipv4Addr{0},
                                          listen_port_) == 0 &&
            ops_->listen(listen_fd_, 8) == 0) {
          fstack::FfUringSqe arm;
          arm.op = fstack::UringOp::kAcceptMultishot;
          arm.fd = listen_fd_;
          arm.user_data = 0xACCE55;
          push_and_bell(arm);
        }
        armed_ = true;
        return true;
      }
      fstack::FfUringSqe e;
      e.op = fstack::UringOp::kNop;
      e.user_data = census_.steps;
      push_and_bell(e);
      return true;  // never reap_all(): that is the whole profile
    }

    case HostileProfile::kFlood: {
      // Keep the SQ saturated with NOPs so the drain's DRR share is spent
      // on garbage every iteration. Reap so completions never throttle
      // the flood itself.
      fstack::FfUringSqe e;
      e.op = fstack::UringOp::kNop;
      for (std::uint32_t i = 0; i < ring_.sq_capacity(); ++i) {
        e.user_data = (census_.steps << 16) | i;
        if (ring_.sq_push(e) == fstack::FfUring::Push::kFull) break;
        census_.submits++;
      }
      if (ring_id_ >= 0) {
        ops_->uring_doorbell(ring_id_);
        census_.doorbells++;
      }
      reap_all();
      return true;
    }

    case HostileProfile::kStorm: {
      // Doorbell crossings with (mostly) nothing queued: pure crossing
      // pressure on the stack compartment's mutex. One NOP every 16th
      // step keeps the ring minimally live.
      if ((census_.steps & 0xF) == 0) {
        fstack::FfUringSqe e;
        e.op = fstack::UringOp::kNop;
        e.user_data = census_.steps;
        if (ring_.sq_push(e) != fstack::FfUring::Push::kFull) {
          census_.submits++;
        }
      }
      ops_->uring_doorbell(ring_id_);
      census_.doorbells++;
      reap_all();
      return true;
    }

    case HostileProfile::kForge: {
      // Forged and replayed capability tokens. One honestly-earned token
      // is aborted at setup; replaying it (and seeded mutations of it)
      // must answer -EINVAL without touching any state.
      if (victim_fd_ < 0) {
        victim_fd_ = ops_->socket_stream();
        fstack::FfUringSqe alloc;
        alloc.op = fstack::UringOp::kZcAlloc;
        alloc.a[0] = 1;
        alloc.a[1] = 128;
        const fstack::FfUringCqe honest = submit_and_reap(alloc);
        if (honest.result >= 0 && honest.aux0 != 0) {
          real_token_ = honest.aux0;
          fstack::FfUringSqe abort;
          abort.op = fstack::UringOp::kZcAbort;
          abort.a[0] = real_token_;
          submit_and_reap(abort);  // token is now dead: replay fodder
        }
        return true;
      }
      fstack::FfUringSqe e;
      e.op = fstack::UringOp::kZcSend;
      e.fd = victim_fd_;
      e.user_data = census_.steps;
      // Alternate pure fabrications with replays / near-misses of the
      // real token — the near-misses probe for guessable token spaces.
      const std::uint64_t r = next_rand();
      e.a[0] = (census_.steps & 1) ? r : real_token_ + (r & 0x7);
      e.a[1] = 64;
      push_and_bell(e);

      fstack::FfUringSqe rec;
      rec.op = fstack::UringOp::kRecycle;
      rec.a[0] = 4;
      for (std::size_t i = 0; i < 4; ++i) rec.tokens[i] = next_rand();
      push_and_bell(rec);
      reap_all();
      return true;
    }

    case HostileProfile::kCrash: {
      // Hoard + flood... then vanish mid-burst. Everything stays pinned
      // (reservations, queued SQEs, the ring itself) until the control
      // plane evicts the tenant.
      if (census_.steps > kCrashAfterSteps) {
        census_.crashed = true;
        return false;
      }
      fstack::FfUringSqe a;
      a.op = fstack::UringOp::kZcAlloc;
      a.user_data = census_.steps;
      a.a[0] = 2;
      a.a[1] = 256;
      push_and_bell(a);
      fstack::FfUringSqe e;
      e.op = fstack::UringOp::kNop;
      for (std::uint32_t i = 0; i < 8; ++i) {
        e.user_data = (census_.steps << 16) | i;
        if (ring_.sq_push(e) == fstack::FfUring::Push::kFull) break;
        census_.submits++;
      }
      if (ring_id_ >= 0) {
        ops_->uring_doorbell(ring_id_);
        census_.doorbells++;
      }
      reap_all();
      return true;
    }
  }
  return false;
}

}  // namespace cherinet::scen
