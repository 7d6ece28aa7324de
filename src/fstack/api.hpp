// The F-Stack-compatible public API, CHERI-ported: the contract.
//
// Doors. Every ff_* below is a direct call: the app shares the stack's
// compartment (Baseline, Scenario 1). In Scenario 2 an app in its own cVM
// reaches 18 of them as sealed entries (ProxyFfOps::Entry in
// scenarios/scenario2.hpp), each run as the app's tenant. Once a ring is
// attached, most verbs are also an SQE opcode of the ff_uring
// (fstack/uring.hpp), run as the ring's tenant with no crossing per op.
// Each operation's note below names its doors; "-" means the door has none.
//
// Capabilities. A buffer is a machine::CapView, the `void* __capability` of
// the paper's port. An operation that takes one runs its kOps row
// (fstack/boundary.hpp) before it touches stack state, and a refused
// argument answers by door: a direct call throws the CapFault, a sealed
// entry -EFAULT, an SQE -EINVAL for that entry alone.
//
// Errors are -errno. Every fd-taking operation resolves the fd as the
// active tenant: a neighbour's fd, a closed fd or a never-opened one is
// -EBADF. Nothing blocks: -EAGAIN means retry after the loop has run.
#pragma once

#include <cstdint>
#include <span>

#include "fstack/api_types.hpp"
#include "fstack/stack.hpp"
#include "fstack/uring.hpp"

namespace cherinet::fstack {

inline constexpr int kAfInet = 2;
inline constexpr int kSockStream = 1;
inline constexpr int kSockDgram = 2;

// ------------------------------------------------------------ sockets

/// Entry kSocket (stream, bound to the app's tenant); SQE -; row -.
/// fd (>= 3); -EAFNOSUPPORT, -EPROTONOSUPPORT, -EMFILE (fd table full, or
/// the entry's tenant is at its socket cap).
int ff_socket(FfStack& st, int domain, int type, int protocol);
/// Entry kBind; SQE -; row -. 0; -EBADF, -EINVAL (already bound),
/// -EADDRINUSE.
int ff_bind(FfStack& st, int fd, const FfSockAddrIn& addr);
/// Entry kListen; SQE -; row -. 0; -EBADF (not TCP), -EINVAL (unbound, or
/// the fd owns a PCB: connecting or connected), -EADDRINUSE.
int ff_listen(FfStack& st, int fd, int backlog);
/// Entry kAccept; SQE OP_ACCEPT_MULTISHOT (one CQE per connection); row -.
/// fd; -EAGAIN (queue empty), -EBADF (not a listener), -EMFILE (fd table,
/// or the listener's tenant at its socket cap: the child is aborted).
int ff_accept(FfStack& st, int fd, FfSockAddrIn* peer);
/// Entry kConnect; SQE OP_CONNECT (one CQE when the handshake resolves:
/// 0, -ECONNREFUSED, -ETIMEDOUT); row -. -EINPROGRESS, then EPOLLOUT;
/// -EBADF, -EISCONN, -EADDRINUSE (no ephemeral port steers to this shard).
int ff_connect(FfStack& st, int fd, const FfSockAddrIn& addr);
/// Entry kClose; SQE OP_CLOSE; row -. 0; -EBADF. Outstanding zc RX loans
/// outlive the fd: each still owes one recycle.
int ff_close(FfStack& st, int fd);

// ------------------------------------------------------------ TCP bytes

/// ff_write: entry kWrite; SQE OP_WRITEV; row kWritev (load over nbytes).
/// ff_writev: entry kWritev (up to 8 iovecs); SQE OP_WRITEV; row kWritev.
/// Every element is checked before a byte moves. Bytes queued (a short
/// count when the send buffer fills), 0 for an all-empty batch; -EAGAIN
/// (buffer full, SYN_SENT, or the flow's QoS class still staged), -EBADF
/// (no TCP connection on the fd), -ENOTCONN, or the connection's error
/// (-ECONNRESET, -ECONNREFUSED, -ETIMEDOUT, -ECONNABORTED).
std::int64_t ff_write(FfStack& st, int fd, const machine::CapView& buf,
                      std::size_t nbytes);
std::int64_t ff_writev(FfStack& st, int fd, std::span<const FfIovec> iov);
/// ff_read: entry kRead; SQE -; row kReadv (store over nbytes).
/// ff_readv: entry kReadv; SQE -; row kReadv. Bytes copied (short when the
/// receive queue drains), 0 at EOF or for an all-empty batch; -EAGAIN,
/// -EBADF, or the connection's error. Reads interleave with outstanding
/// loans and still return bytes in order.
std::int64_t ff_read(FfStack& st, int fd, const machine::CapView& buf,
                     std::size_t nbytes);
std::int64_t ff_readv(FfStack& st, int fd, std::span<const FfIovec> iov);

// ------------------------------------------------------------ datagrams

/// Entry -; SQE -; row kSendto (load over nbytes). nbytes; -EBADF (not
/// UDP), -EMSGSIZE (over 65527), -EADDRINUSE (no port for an unbound fd).
std::int64_t ff_sendto(FfStack& st, int fd, const machine::CapView& buf,
                       std::size_t nbytes, const FfSockAddrIn& to);
/// Entry -; SQE -; row kRecvfrom (store, clamped to the view). One
/// datagram, oldest first, copied up to buf's bounds; -EAGAIN, -EBADF. A
/// refused buffer leaves the datagram queued.
std::int64_t ff_recvfrom(FfStack& st, int fd, const machine::CapView& buf,
                         std::size_t nbytes, FfSockAddrIn* from);

// ------------------------------------------------------------ zero-copy RX

/// Entry kZcRecv (row kZcRecv: 16-byte records, checked before a loan
/// moves); SQE OP_ZC_RECV (one CQE per loan, kCqeEof at EOF); row - for
/// the direct call. TCP or UDP. Fills up to out.size() exactly-bounded
/// READ-ONLY capability loans into RX data rooms: loans filled, 0 at EOF;
/// -EAGAIN, -EBADF, -ENOBUFS (the tenant's loan or pool cap, or no room to
/// bounce a copied slice; retry after recycling), -EMSGSIZE (a datagram no
/// room can hold: take it with ff_recvfrom). A loan stays charged against
/// the receive window until recycled.
std::int64_t ff_zc_recv(FfStack& st, int fd, std::span<FfZcRxBuf> out);
/// Entry kZcRecycle (row kZcRecycle; up to 64 tokens per crossing); SQE
/// OP_RECYCLE (up to 16 tokens, aux0 counts the refused). 0; -EINVAL for a
/// recycled, forged or neighbour's token. The only way a loan's room goes
/// back to the pool; ff_zc_recycle_batch returns how many it recycled.
int ff_zc_recycle(FfStack& st, FfZcRxBuf& zc);
std::int64_t ff_zc_recycle_batch(FfStack& st, std::span<FfZcRxBuf> zcs);

// Zero-copy TX has one door, the ring (entry -, row -), and runs as the
// ring's tenant:
//  OP_ZC_ALLOC  a0 grants (1..8), a1 bytes each. One CQE per grant: result
//               = a1, aux0 = token, cap = a writable view of exactly a1
//               bytes into an mbuf data room. The first refusal ends the
//               batch; with no grant one CQE carries it: -EINVAL (a1 = 0),
//               -EMSGSIZE (a1 > mtu - 28, one frame's UDP payload),
//               -ENOBUFS (the pool is down to its driver reserve, min(64,
//               an eighth of the pool), or the tenant is at its zc or pool
//               cap).
//  OP_ZC_SEND   fd, a0 token, a1 bytes: bytes queued. -EBADF for a fd
//               that is not TCP, before the token is read, so the
//               reservation stays live (and for a listener or a TCP fd
//               with no connection). -EINVAL for a sent, aborted, forged
//               or neighbour's token, before TCP state moves. -EMSGSIZE
//               (a1 over the grant), -EAGAIN (SYN_SENT or send window
//               full) and -ENOTCONN keep the reservation. A dead
//               connection's error consumes it and frees the room.
//               A queued room is the stack's until cumulatively ACKed;
//               retransmission re-reads it; FIN, RST and RTO give-up
//               release it.
//  OP_ZC_ABORT  a0 token: 0, the room back in the pool; -EINVAL for a
//               sent, aborted, forged or neighbour's token.

// ------------------------------------------------------------ QoS

/// Entry -; SQE OP_SET_CLASS; row -. Moves fd's flow to TX class cls (0 =
/// bulk .. kQosClasses-1; qos.hpp); a listener's children inherit it. 0;
/// -EBADF, -EINVAL (cls out of range).
int ff_set_class(FfStack& st, int fd, std::uint32_t cls);

// ------------------------------------------------------------ readiness

/// Entry kEpollCreate; SQE -; row -. epfd; -EMFILE.
int ff_epoll_create(FfStack& st);
/// Entry kEpollCtl; SQE OP_EPOLL_CTL; row -. 0; -EBADF (epfd or fd),
/// -EEXIST (add twice), -ENOENT (mod/del of no interest), -EINVAL (op).
int ff_epoll_ctl(FfStack& st, int epfd, EpollOp op, int fd,
                 std::uint32_t events, std::uint64_t data);
/// Entry kEpollWait (row kEpollWait: 12-byte records, checked before the
/// call); SQE OP_EPOLL_ARM (readiness CQEs with kCqeMore while armed; an
/// arm that ends, because its epfd closed, another ring re-armed it or its
/// ring detached, posts one last CQE without kCqeMore, result -ECANCELED);
/// row - for the direct call. Events written; -EBADF. On an armed epfd the
/// call first publishes what it is about to report, so any readiness that
/// rises after an answer of 0 posts a CQE.
/// A TCP socket reports kEpollOut only once a fifth of its send buffer is
/// free (TcpPcb::kSendLowatDiv); a write below that mark still takes
/// whatever fits. An ACK that moves the buffer past the mark changes the
/// mask, so an armed epfd posts it; one that leaves it below posts
/// nothing.
/// Scenario 2's proxy answers 0 without crossing when that is provable:
/// its last crossing for the epfd answered 0, it has made no crossing
/// since, no app on the shard has crossed into ff_epoll_ctl or a doorbell
/// since, and its own live arm on the epfd has posted nothing since.
/// Readiness rises only in the main loop, which publishes it, or through
/// those calls, so the answer is exact (scenarios/scenario2.hpp).
int ff_epoll_wait(FfStack& st, int epfd, std::span<FfEpollEvent> events);

// ------------------------------------------------------------ the ring

/// Entry kUringAttach (binds the app's tenant); SQE -; row kUringAttach
/// (load, store and both capability accesses over bytes_for(sq, cq)).
/// Arms a caller-initialized FfUring: the region is checked once, here.
/// Ring id (> 0); -EINVAL (capacity not a power of two, region short, or
/// header capacities that disagree).
int ff_uring_attach(FfStack& st, const machine::CapView& mem,
                    std::uint32_t sq_capacity, std::uint32_t cq_capacity);
/// Entry kUringDetach; SQE -; row -. 0; -EBADF. Cancels the ring's
/// multishot arms.
int ff_uring_detach(FfStack& st, int id);
/// Entry kUringDoorbell; SQE -; row -. Drains ring `id` now; needed only
/// when a push found the SQ empty and the stack parked
/// (FfUring::Push::kDoorbell). SQEs consumed; -EBADF.
int ff_uring_doorbell(FfStack& st, int id);

// ------------------------------------------------------------ tenants

// Entry -; SQE -; row -: the stack compartment's control plane (tenant.hpp
// has the quota knobs). Scenario 2 binds tenants inside its kSocket and
// kUringAttach entries; Scenario3Service registers, evicts and reads them.

/// Tenant id (>= 1). Id 0 is the unlimited, uncounted context.
int ff_tenant_register(FfStack& st, std::string name,
                       const TenantQuota& quota);
/// Bills fd to tenant tid (0 detaches). 0; -EBADF, -EINVAL (unknown tid),
/// -EMFILE (socket cap). A listener's children inherit the tenant.
int ff_set_tenant(FfStack& st, int fd, int tid);
/// Drains the ring under tid's weight and runs its ops as tid. 0; -EBADF,
/// -EINVAL (unknown tid).
int ff_uring_bind_tenant(FfStack& st, int ring_id, int tid);
/// Detaches tid's rings, aborts and closes its sockets, and reclaims every
/// loan, reservation and parked frame. 0; -EINVAL. The stats row stays.
int ff_tenant_evict(FfStack& st, int tid);
/// Live gauges and per-cause counters; nullptr for an unknown id.
const TenantStats* ff_tenant_stats(const FfStack& st, int tid);

}  // namespace cherinet::fstack
