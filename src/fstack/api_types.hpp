// Value types of the public F-Stack API surface.
//
// Kept separate from api.hpp so the lower layers (sockbuf, tcp_pcb, stack)
// can speak the same scatter-gather vocabulary without a dependency cycle:
// the batch calls thread these types from the application, across the
// compartment boundary, down to the socket buffers.
#pragma once

#include <cstdint>

#include "fstack/inet.hpp"
#include "machine/cap_view.hpp"

namespace cherinet::fstack {

/// sockaddr_in analogue (host byte order).
struct FfSockAddrIn {
  Ipv4Addr ip{};
  std::uint16_t port = 0;
};

/// One scatter-gather element: a capability-qualified buffer plus the byte
/// count the call may touch. `len` may be smaller than the buffer's bounds;
/// it may never be larger: check_args (fstack/boundary.hpp) refuses the
/// whole batch on any oversized element before a single byte moves.
struct FfIovec {
  machine::CapView buf;
  std::size_t len = 0;
};

/// One zero-copy RX loan: `data` is an exactly-bounded READ-ONLY capability
/// straight into the RX mbuf data room that received the bytes — no copy
/// through any socket buffer. An OP_ZC_RECV CQE carries one; the
/// application reads the payload in place and returns the buffer with
/// OP_RECYCLE; until then the loaned bytes stay charged against the
/// socket's receive window. The token is consumed by recycle; a reused or
/// forged token is refused.
struct FfZcRxBuf {
  std::uint64_t token = 0;  // 0 = invalid / already recycled
  machine::CapView data;
  FfSockAddrIn from{};  // datagram source (UDP; the peer for TCP)

  [[nodiscard]] bool valid() const noexcept {
    return token != 0 && data.valid();
  }
};

/// A zero-copy TX reservation, as an OP_ZC_ALLOC CQE carries it: `data` is
/// a bounded capability directly into an updk::Mbuf data room — the
/// application writes its payload through it and submits the token with
/// OP_ZC_SEND on a TCP fd, skipping the copy through the socket layer.
/// The token is consumed by OP_ZC_SEND/OP_ZC_ABORT; a reused one is -EINVAL.
struct FfZcBuf {
  std::uint64_t token = 0;  // 0 = invalid / already consumed
  machine::CapView data;

  [[nodiscard]] bool valid() const noexcept {
    return token != 0 && data.valid();
  }
};

}  // namespace cherinet::fstack
