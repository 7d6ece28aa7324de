// Scenario 2: application cVMs separated from the F-Stack/DPDK cVM
// (paper Fig. 2).
//
// cVM1 owns the network stack and exports the ff_* API as sealed-pair
// entries; application compartments (cVM2, cVM3) call through ProxyFfOps —
// the "wrapper functions ... to do the cross-compartment jump" of §III-B.
// A mutex in shared memory coordinates the F-Stack main loop with the
// proxied API calls; its contention is the subject of the paper's Fig. 6.
//
// Each app holds 18 entries (ProxyFfOps::Entry), every one run as the
// app's tenant. Every other verb — zero-copy TX, QoS classes, multishot
// accept — rides the app's ff_uring ring, so the boundary is no wider.
//
// Waiting without crossing. A proxied ff_epoll_wait answers 0 from the app
// side, with no crossing, when that answer is provably what the stack
// would give. On an app's first epoll_wait the proxy attaches one small
// ff_uring of its own (one crossing) and arms each epfd it waits on with
// OP_EPOLL_ARM (user_data = epfd), ringing the doorbell only when sq_push
// asks. Readiness rises only in the stack's main loop (input, ACKs,
// timers, ring drains), which ends every iteration by publishing each
// armed epfd's readiness edges as CQEs, or in a crossing that edits an
// interest set (ff_epoll_ctl, or a doorbell whose drain runs
// OP_EPOLL_CTL); other calls only consume readiness. And the stack's
// ff_epoll_wait re-baselines an armed epfd's edge publisher to the answer
// it gives, so whatever rises after a crossing that answered 0 posts a
// CQE. The proxy therefore answers 0 locally exactly when:
//   * its previous crossing for that epfd answered 0,
//   * it has made no other crossing since, and no app pinned to the shard
//     has crossed into ff_epoll_ctl or a doorbell since,
//   * the arm is live (drained, and not ended), and
//   * the arm has posted no CQE since.
// Otherwise it crosses. An arm ends visibly, with a final CQE
// without kCqeMore; an ended arm, a failed attach or a CQ overflow means
// "always cross" for the epfds concerned.
//
// Sharded mode: cVM1 may run N independent FfStack SHARDS, each with its
// own mempool, PCB table, ARP cache, timer wheel, uring drain set — and its
// own coordination mutex. An app compartment is pinned to ONE shard at
// make_proxy_ops time (the attach-time pinning of the RSS design: the
// shard's NIC queue receives every frame of the app's flows), so no mutex
// is ever shared across flows of different shards. Shard 0 preserves the
// original single-stack behaviour exactly.
#pragma once

#include <array>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "apps/ff_ops.hpp"
#include "fstack/uring.hpp"
#include "intravisor/compartment_mutex.hpp"
#include "intravisor/intravisor.hpp"
#include "scenarios/stack_instance.hpp"

namespace cherinet::scen {

class Scenario2Service {
 public:
  /// `cvm1` hosts the stack; `inst` must be built on cvm1's heap.
  Scenario2Service(iv::Intravisor& iv, iv::CVM& cvm1,
                   FullStackInstance& inst);

  /// Sharded service: every instance must be built on cvm1's heap, each
  /// attached to its own NIC queue (or its own port). One coordination
  /// mutex per shard.
  Scenario2Service(iv::Intravisor& iv, iv::CVM& cvm1,
                   std::vector<FullStackInstance*> shards);

  /// Build the proxied ff_* ops for one application compartment, pinned to
  /// `shard`. Entries are installed per app so each contender's futex
  /// escalation goes through its own trampoline. A registered tenant `tid`
  /// (Scenario 3) is bound inside the ff_socket / ff_uring_attach entries
  /// to every socket and ring the app creates, and every entry runs as
  /// that tenant (FfStack::TenantScope); 0 leaves them untenanted.
  [[nodiscard]] std::unique_ptr<apps::FfOps> make_proxy_ops(
      iv::CVM& app, std::size_t shard = 0, int tid = 0);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] iv::CompartmentMutex& mutex(std::size_t shard = 0) noexcept {
    return *mutexes_[shard];
  }
  [[nodiscard]] FullStackInstance& instance(std::size_t shard = 0) noexcept {
    return *shards_[shard];
  }
  [[nodiscard]] std::uint64_t proxied_calls(std::size_t shard) const noexcept {
    return proxied_calls_[shard];
  }
  /// All-shard total (legacy single-shard accessor).
  [[nodiscard]] std::uint64_t proxied_calls() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : proxied_calls_) sum += c;
    return sum;
  }

 private:
  friend class ProxyFfOps;

  iv::Intravisor& iv_;
  iv::CVM& cvm1_;
  std::vector<FullStackInstance*> shards_;
  std::vector<machine::CapView> mutex_words_;
  std::vector<std::unique_ptr<iv::CompartmentMutex>> mutexes_;
  // Fixed-size after construction: each shard's entries hold a pointer to
  // its counters.
  std::vector<std::uint64_t> proxied_calls_;
  // Per shard: the crossings that can add readiness to ANY app's interest
  // set (ff_epoll_ctl, and the doorbell, whose drain may run
  // OP_EPOLL_CTL). A proxy's quiet epoll answer survives every other
  // app's crossing but these.
  std::vector<std::uint64_t> interest_calls_;
};

/// Client-side stubs living in the application compartment.
class ProxyFfOps final : public apps::FfOps {
 public:
  /// The sealed entries one app holds, one per overridden call.
  enum Entry : std::uint8_t {
    // the v1 calls Fig. 4-6 and Table II time
    kSocket, kBind, kListen, kAccept, kConnect, kWrite, kRead, kClose,
    kWritev, kReadv, kZcRecv, kZcRecycle,  // gated census legs
    kEpollCreate, kEpollCtl, kEpollWait,   // EchoServer, the iperf apps
    kUringAttach, kUringDetach, kUringDoorbell,
    kEntryCount
  };
  static_assert(kEntryCount == 18, "Scenario 2 exports 18 sealed entries");

  ProxyFfOps(Scenario2Service* svc, iv::CVM* app, std::size_t shard = 0,
             int tid = 0);
  /// Detaches the readiness ring, if epoll_wait attached one.
  ~ProxyFfOps() override;
  ProxyFfOps(const ProxyFfOps&) = delete;
  ProxyFfOps& operator=(const ProxyFfOps&) = delete;

  int socket_stream() override;
  int bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override;
  int listen(int fd, int backlog) override;
  int accept(int fd) override;
  int connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override;
  std::int64_t write(int fd, const machine::CapView& buf,
                     std::size_t n) override;
  std::int64_t read(int fd, const machine::CapView& buf,
                    std::size_t n) override;
  /// Batched crossings: up to CrossCallArgs::kMaxVecCaps exactly-bounded
  /// iovec views travel per sealed-entry invocation — one domain switch and
  /// one stack-mutex acquisition service the whole chunk (the amortization
  /// the paper's Fig. 4/6 costs demand).
  std::int64_t writev(int fd, std::span<const fstack::FfIovec> iov) override;
  std::int64_t readv(int fd, std::span<const fstack::FfIovec> iov) override;
  /// Zero-copy RX across the compartment boundary: each crossing returns
  /// up to CrossCallArgs::kMaxVecCaps exactly-bounded read-only loans in
  /// the vector capability registers (tokens + sources marshal through the
  /// shared buffer); recycling sends a whole token batch back in ONE
  /// crossing under one mutex acquisition.
  std::int64_t zc_recv(int fd, std::span<fstack::FfZcRxBuf> out) override;
  std::int64_t zc_recycle_batch(std::span<fstack::FfZcRxBuf> zcs) override;
  /// ff_uring (API v3): the attach crossing delegates one bounded RW view
  /// of the app's ring region to the network cVM — the single arming
  /// crossing of the whole attachment. Submissions and completions then
  /// move by plain capability stores/loads; the doorbell entry exists only
  /// for the empty->non-empty-while-parked transition, and its one sealed
  /// jump performs the whole drain under ONE stack-mutex acquisition.
  int uring_attach(const machine::CapView& mem, std::uint32_t sq_capacity,
                   std::uint32_t cq_capacity) override;
  int uring_detach(int id) override;
  int uring_doorbell(int id) override;
  int close(int fd) override;
  int epoll_create() override;
  int epoll_ctl(int epfd, fstack::EpollOp op, int fd, std::uint32_t events,
                std::uint64_t data) override;
  /// Answers 0 without crossing when the readiness ring proves it (see
  /// the header comment); crosses otherwise.
  int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) override;

  /// The sealed pair behind entry `e` — the handle the app already holds,
  /// so a test can invoke it with hand-made arguments.
  [[nodiscard]] const machine::SealedEntry& entry(Entry e) const {
    return e_[e];
  }

 private:
  std::int64_t call(Entry e, machine::CrossCallArgs& args);
  /// Marshal scalar arguments (and a buffer in cap0) and cross.
  std::int64_t call(Entry e, std::initializer_list<std::uint64_t> scalars,
                    std::optional<machine::CapView> cap0 = std::nullopt);
  /// writev/readv: cross once per kMaxVecCaps-element chunk until the
  /// batch is done or a chunk comes back short.
  std::int64_t chunked(Entry e, int fd, std::span<const fstack::FfIovec> iov);

  /// What the proxy knows of one epfd it waits on.
  struct Watch {
    enum class Arm : std::uint8_t {
      kNone,     // not submitted (no ring, or its SQ was full)
      kPending,  // OP_EPOLL_ARM queued, not yet drained
      kLive,     // drained: every later edge posts a CQE
      kDead,     // ended or refused: always cross
    };
    Arm arm = Arm::kNone;
    bool quiet = false;  // the last crossing answered 0, no CQE since
    // Right after that crossing: this proxy's crossings and the shard's
    // interest-changing crossings.
    std::uint64_t own_mark = 0;
    std::uint64_t interest_mark = 0;
  };
  /// The epfd's watch, armed on the readiness ring (attached on first use)
  /// once the SQ takes the arm; reaps the ring's CQEs first.
  Watch& watch(int epfd);
  /// Pop every readiness CQE into the watches.
  void reap_edges();

  Scenario2Service* svc_;
  iv::CVM* app_;
  std::uint64_t crossings_ = 0;  // this proxy's sealed-entry calls
  const std::uint64_t* interest_calls_;  // the shard's, see the service
  machine::CapView event_buf_;  // epoll events cross the boundary here
  machine::CapView zc_buf_;     // zc tokens + sources, recycle batches
  std::array<machine::SealedEntry, kEntryCount> e_;
  std::optional<fstack::FfUring> edges_;  // the readiness ring
  int edges_id_ = -1;
  bool edges_failed_ = false;  // attach refused: every wait crosses
  std::uint32_t edges_overflows_ = 0;
  std::uint32_t pending_arms_ = 0;  // watches in Arm::kPending
  std::map<int, Watch> watches_;
};

}  // namespace cherinet::scen
