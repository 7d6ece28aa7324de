// Value types of the public F-Stack API surface, v1 and v2.
//
// Kept separate from api.hpp so the lower layers (sockbuf, tcp_pcb, stack)
// can speak the same scatter-gather vocabulary without a dependency cycle:
// the v2 batch calls thread these types from the application, across the
// compartment boundary, down to the socket buffers.
#pragma once

#include <cstdint>
#include <span>

#include "fstack/inet.hpp"
#include "machine/cap_view.hpp"

namespace cherinet::fstack {

/// sockaddr_in analogue (host byte order).
struct FfSockAddrIn {
  Ipv4Addr ip{};
  std::uint16_t port = 0;
};

/// One scatter-gather element: a capability-qualified buffer plus the byte
/// count the call may touch. `len` may be smaller than the capability's
/// bounds; it may never be larger — the batch validation sweep faults the
/// whole call on any oversized entry before a single byte moves.
struct FfIovec {
  machine::CapView buf;
  std::size_t len = 0;
};

/// The whole-batch capability sweep of API v2: tag, seal, permission and
/// bounds are checked for every element BEFORE any byte moves, so a bad
/// element faults the batch atomically (no partial compartment-boundary
/// leak). Both the stack's batch entry points and the Scenario-2 proxy
/// stubs enforce the same invariant through this one helper.
inline void ff_sweep_iovecs(std::span<const FfIovec> iov,
                            cheri::Access access) {
  for (const FfIovec& e : iov) {
    if (e.len == 0) continue;
    const cheri::Capability& c = e.buf.cap();
    c.check(access, c.address(), e.len);
  }
}

/// One zero-copy RX loan: `data` is an exactly-bounded READ-ONLY capability
/// straight into the RX mbuf data room that received the bytes — no copy
/// through any socket buffer. The application reads the payload in place
/// and returns the buffer with ff_zc_recycle; until then the loaned bytes
/// stay charged against the socket's receive window. The token is consumed
/// by recycle; a reused or forged token is -EINVAL.
struct FfZcRxBuf {
  std::uint64_t token = 0;  // 0 = invalid / already recycled
  machine::CapView data;
  FfSockAddrIn from{};  // datagram source (UDP; the peer for TCP)

  [[nodiscard]] bool valid() const noexcept {
    return token != 0 && data.valid();
  }
};

/// A zero-copy TX reservation: `data` is a bounded capability directly into
/// an updk::Mbuf data room — the application writes its payload through it
/// and submits with ff_zc_send on a TCP fd, skipping the copy through the
/// socket layer.
/// The token is consumed by send/abort; a reused token is -EINVAL.
struct FfZcBuf {
  std::uint64_t token = 0;  // 0 = invalid / already consumed
  machine::CapView data;

  [[nodiscard]] bool valid() const noexcept {
    return token != 0 && data.valid();
  }
};

}  // namespace cherinet::fstack
