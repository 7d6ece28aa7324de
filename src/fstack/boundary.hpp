// The boundary check. Each operation that takes a capability is one row of
// kOps, and check_args() runs its row before the operation touches stack
// state, whichever door the call came in by. Each door answers a refused
// argument in its own shape:
//
//   Door::kCall   an ff_* call in the caller's own compartment (baseline,
//                 Scenario 1, ProxyFfOps' app-side writev/readv pre-flight)
//                 throws the CapFault its first access would have raised;
//   Door::kEntry  a Scenario 2 sealed entry answers -EFAULT, so cVM1 never
//                 traps on a caller's behalf (TenantScope names the door);
//   Door::kRing   an ff_uring SQE answers -EINVAL, for that entry alone.
//
// Direct calls, and the entries that forward to them, answer the fd, its
// kind and state, and -EMSGSIZE first; the ring sweep and the entries that
// marshal records check first. An argument travels with a count n
// (FfIovec::len) and is checked over its row's bytes for n, zero included:
// tag, seal, access, then bounds. An empty sealed-entry argument register
// arrives as the null (untagged) view.
// Beneath this stay the Intravisor's gate and TaggedMemory's per-access
// checks. No other file in src/fstack or src/scenarios asks a capability
// about its tag, seal, permissions or bounds (scripts/check.sh holds that).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <optional>
#include <span>

#include "fstack/api_types.hpp"
#include "fstack/uring.hpp"

namespace cherinet::fstack {

enum class Door : std::uint8_t { kCall, kEntry, kRing };

/// A row of kOps. ff_write and ff_read run as one-element batches.
enum class Op : std::uint8_t {
  kWritev, kReadv, kSendto, kRecvfrom,  // direct calls
  kEpollWait,                           // records a sealed entry marshals
  kUringAttach,
};

/// The accesses an argument must grant, one bit per cheri::Access. A ring
/// region needs load, store, load-cap and store-cap.
enum class Need : std::uint8_t { kLoad = 1, kStore = 2, kRingRegion = 15 };

/// A Scenario 2 epoll event record: u32 events + u64 data.
inline constexpr std::uint8_t kEventRecordBytes = 12;

struct OpRow {
  Op op;
  const char* entries;          // its Scenario 2 sealed entries
  std::optional<UringOp> ring;  // its SQE opcode
  Need need;
  std::uint8_t unit;   // bytes per counted item
  bool clamp = false;  // n clamps to the view's size, but to no less than 1
};

// n: an iovec's length (an SQE's spans its whole view), a datagram's, a
// record count, or FfUring::bytes_for(sq, cq).
inline constexpr OpRow kOps[] = {
    {Op::kWritev, "ff_write ff_writev", UringOp::kWritev, Need::kLoad, 1},
    {Op::kReadv, "ff_read ff_readv", {}, Need::kStore, 1},
    {Op::kSendto, nullptr, {}, Need::kLoad, 1},
    {Op::kRecvfrom, nullptr, {}, Need::kStore, 1, true},
    {Op::kEpollWait, "ff_epoll_wait", {}, Need::kStore, kEventRecordBytes},
    {Op::kUringAttach, "ff_uring_attach", {}, Need::kRingRegion, 1},
};
static_assert([] {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    if (static_cast<std::size_t>(kOps[i].op) != i) return false;
  }
  return true;
}());

/// Runs `op`'s row over its arguments: 0 when all pass, else the door's
/// verdict (Door::kCall throws).
inline std::int64_t check_args(Door door, Op op,
                               std::span<const FfIovec> args) {
  const OpRow& row = kOps[static_cast<std::size_t>(op)];
  for (const FfIovec& arg : args) {
    const auto& cap = arg.buf.cap();
    const std::uint64_t len =
        !row.clamp || arg.len == 0
            ? arg.len * row.unit
            : std::clamp<std::uint64_t>(arg.buf.size(), 1, arg.len);
    for (unsigned a = 0; a < 4; ++a) {
      if ((static_cast<unsigned>(row.need) >> a & 1) == 0) continue;
      const auto fault =
          cap.fault(static_cast<cheri::Access>(a), cap.address(), len);
      if (!fault) continue;
      if (door == Door::kEntry) return -EFAULT;
      if (door == Door::kRing) return -EINVAL;
      throw cheri::CapFault(*fault, cap.address(), len, cap.to_string());
    }
  }
  return 0;
}

/// The row an SQE opcode runs, if its payload carries capabilities.
inline std::optional<Op> ring_op(UringOp op) {
  for (const OpRow& row : kOps) {
    if (row.ring == op) return row.op;
  }
  return std::nullopt;
}

}  // namespace cherinet::fstack
