// Scenario 2: application cVMs separated from the F-Stack/DPDK cVM
// (paper Fig. 2).
//
// cVM1 owns the network stack and exports the ff_* API as sealed-pair
// entries; application compartments (cVM2, cVM3) call through ProxyFfOps —
// the "wrapper functions ... to do the cross-compartment jump" of §III-B.
// A mutex in shared memory coordinates the F-Stack main loop with the
// proxied API calls; its contention is the subject of the paper's Fig. 6.
//
// Each app holds 16 entries (ProxyFfOps::Entry), every one run as the
// app's tenant. Every other verb — zero-copy RX and TX, QoS classes,
// multishot accept — rides the app's ff_uring ring, so the boundary is no
// wider: a zero-copy RX loan reaches an app only as an OP_ZC_RECV CQE's
// capability, and goes back only through OP_RECYCLE.
//
// Waiting without crossing. A proxied ff_epoll_wait answers from a
// readiness mirror on the app side when the mirror provably holds the
// stack's answer. On an app's first epoll_wait the proxy attaches one
// small ff_uring of its own (one crossing) and arms each epfd it waits on
// with OP_EPOLL_ARM (user_data = epfd), ringing the doorbell only when
// sq_push asks. For each epfd it created, the proxy mirrors:
//   * the interest set, from its own epoll_ctl results (close(fd) drops fd
//     from every set, as the stack does). A cookie two fds share, or one
//     the set lacks in a CQE or an answer, makes the set unknown for good;
//   * each fd's ready mask, or "unknown". Readiness rises in the stack's
//     main loop, which ends every pass by posting each armed epfd's
//     changed masks as CQEs (result: the mask, aux0: the cookie); a CQE
//     sets its fd's mask. Falls come from the app's own calls: a short or
//     -EAGAIN read clears IN unless the mask holds HUP or ERR (a reset
//     socket stays readable), a short write clears OUT, an -EAGAIN accept
//     clears the listener's IN. A full-length read, a successful accept,
//     connect or listen, and a full-length or refused write on a mask
//     holding OUT make the mask unknown (-EAGAIN also answers a write
//     while the flow's class has frames staged); no other write changes
//     it. Every crossing reaps the ring first, so a CQE reaped after a
//     fall was posted after it;
//   * a crossing wait rebaselines: listed fds take their masks; an
//     unlisted one reads 0 if the answer was shorter than asked, else
//     unknown.
// A wait answers locally, in interest-set (ascending fd) order and capped
// at the 64 records a crossing carries, when the arm is live (drained,
// not ended), the set and every mask are known, and no app on the shard
// has crossed into ff_epoll_ctl or a doorbell since the rebaseline. A
// non-zero answer also needs that no other app on the shard crossed since
// (untenanted apps share fds) and that no app on the shard holds a ring
// (the loop drains it without a crossing). An ended arm, a failed
// attach or a CQ overflow means "always cross" for the epfds concerned.
// A read can also raise readiness (draining the data before a FIN raises
// HUP; reopening a full window pulls held-back segments in), which the
// loop's next pass posts: the mirror's answer is the stack's at every wait
// that follows a pass, as every wait on the lockstep rig does.
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
  // Per shard: the crossings that can change ANY app's interest set
  // (ff_epoll_ctl, and the doorbell, whose drain may run OP_EPOLL_CTL). A
  // proxy's mirrored answer survives no such crossing.
  std::vector<std::uint64_t> interest_calls_;
  // Per shard: the rings apps hold (not the proxies' readiness rings). The
  // loop drains them without a crossing, so an untenanted app's ring can
  // consume readiness of any app's fd.
  std::vector<std::uint32_t> app_rings_;
};

/// Client-side stubs living in the application compartment.
class ProxyFfOps final : public apps::FfOps {
 public:
  /// The sealed entries one app holds, one per overridden call.
  enum Entry : std::uint8_t {
    // the v1 calls Fig. 4-6 and Table II time
    kSocket, kBind, kListen, kAccept, kConnect, kWrite, kRead, kClose,
    kWritev, kReadv,                      // gated census legs
    kEpollCreate, kEpollCtl, kEpollWait,  // EchoServer, the iperf apps
    kUringAttach, kUringDetach, kUringDoorbell,
    kEntryCount
  };
  static_assert(kEntryCount == 16, "Scenario 2 exports 16 sealed entries");

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
  /// Answers from the readiness mirror without crossing when it provably
  /// holds the stack's answer (see the header comment); crosses, and
  /// rebaselines the mirror, otherwise.
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

  /// The readiness mirror of one epfd the proxy waits on.
  struct Watch {
    enum class Arm : std::uint8_t {
      kNone,     // not submitted (no ring, or its SQ was full)
      kPending,  // OP_EPOLL_ARM queued, not yet drained
      kLive,     // drained: every later edge posts a CQE
      kDead,     // ended or refused: always cross
    };
    struct Interest {
      std::uint64_t cookie = 0;
      std::optional<std::uint32_t> ready;  // empty: unknown
    };
    Arm arm = Arm::kNone;
    bool known = false;  // created here, and every cookie names one fd
    std::map<int, Interest> fds;  // the interest set, in the stack's order
    // At the last rebaseline: the shard's interest-changing crossings and
    // every other proxy's crossings on the shard.
    std::uint64_t interest_mark = 0;
    std::uint64_t others_mark = 0;
    /// The fd under `cookie`; none makes the set unknown.
    Interest* by_cookie(std::uint64_t cookie) {
      for (auto& [fd, f] : fds) {
        if (f.cookie == cookie) return &f;
      }
      known = false;  // an fd this proxy did not add
      return nullptr;
    }
  };
  /// The epfd's watch, armed on the readiness ring (attached on first use)
  /// once the SQ takes the arm; reaps the ring's CQEs first.
  Watch& watch(int epfd);
  /// Pop every readiness CQE into the watches.
  void reap_edges();
  /// The answer the mirror proves, written to `out`; empty: cross.
  std::optional<int> local_answer(const Watch& w,
                                  std::span<fstack::FfEpollEvent> out) const;
  /// A call that consumes the `bit` readiness of `fd` (kEpollIn for a read
  /// or accept, kEpollOut for a write) returned: `drained` when it proves
  /// that readiness gone. `bit` 0 makes the masks unknown.
  void settle(int fd, std::uint32_t bit, bool drained);
  /// Crossings by the other proxies pinned to this shard.
  [[nodiscard]] std::uint64_t others() const noexcept {
    return *shard_calls_ - crossings_;
  }

  Scenario2Service* svc_;
  iv::CVM* app_;
  std::uint64_t crossings_ = 0;  // this proxy's sealed-entry calls
  const std::uint64_t* shard_calls_;     // the shard's proxied calls
  const std::uint64_t* interest_calls_;  // the shard's, see the service
  std::uint32_t* app_rings_;             // the shard's, see the service
  machine::CapView event_buf_;  // epoll events cross the boundary here
  std::array<machine::SealedEntry, kEntryCount> e_;
  std::optional<fstack::FfUring> edges_;  // the readiness ring
  // Every crossing reaps: a batch pops here, with no per-reap setup.
  std::array<fstack::FfUringCqe, 16> reaped_;
  int edges_id_ = -1;
  bool edges_failed_ = false;  // attach refused: every wait crosses
  std::uint32_t edges_overflows_ = 0;
  std::uint32_t pending_arms_ = 0;  // watches in Arm::kPending
  std::map<int, Watch> watches_;
};

}  // namespace cherinet::scen
