// Scenario 2: application cVMs separated from the F-Stack/DPDK cVM
// (paper Fig. 2).
//
// cVM1 owns the network stack and exports the ff_* API as sealed-pair
// entries; application compartments (cVM2, cVM3) call through ProxyFfOps —
// the "wrapper functions ... to do the cross-compartment jump" of §III-B.
// A mutex in shared memory coordinates the F-Stack main loop with the
// proxied API calls; its contention is the subject of the paper's Fig. 6.
//
// Sharded mode: cVM1 may run N independent FfStack SHARDS, each with its
// own mempool, PCB table, ARP cache, timer wheel, uring drain set — and its
// own coordination mutex. An app compartment is pinned to ONE shard at
// make_proxy_ops time (the attach-time pinning of the RSS design: the
// shard's NIC queue receives every frame of the app's flows), so no mutex
// is ever shared across flows of different shards. Shard 0 preserves the
// original single-stack behaviour exactly.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "apps/ff_ops.hpp"
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
  /// to every socket and ring the app creates; 0 leaves them untenanted.
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
    return proxied_calls_[shard].load(std::memory_order_relaxed);
  }
  /// All-shard total (legacy single-shard accessor).
  [[nodiscard]] std::uint64_t proxied_calls() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : proxied_calls_) {
      sum += c.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  friend class ProxyFfOps;

  iv::Intravisor& iv_;
  iv::CVM& cvm1_;
  std::vector<FullStackInstance*> shards_;
  std::vector<machine::CapView> mutex_words_;
  std::vector<std::unique_ptr<iv::CompartmentMutex>> mutexes_;
  // Fixed-size after construction (atomics are not movable).
  std::vector<std::atomic<std::uint64_t>> proxied_calls_;
};

/// Client-side stubs living in the application compartment.
class ProxyFfOps final : public apps::FfOps {
 public:
  ProxyFfOps(Scenario2Service* svc, iv::CVM* app, std::size_t shard = 0,
             int tid = 0);

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
  /// Whole fd batch per sealed-entry crossing (one mutex acquisition
  /// drains the accept queue).
  int accept_batch(int fd, std::span<int> out) override;
  /// Zero-copy TX across the compartment boundary: the alloc crossing
  /// returns a WRITABLE exactly-bounded capability into a cVM1 mbuf data
  /// room (the reverse delegation of zc_recv's read-only loans); the app
  /// fills its payload in place and the send crossing submits the token —
  /// on TCP the network cVM then holds the buffer until cumulative ACK.
  int zc_alloc(std::size_t len, fstack::FfZcBuf* out) override;
  std::int64_t zc_send(int fd, fstack::FfZcBuf& zc, std::size_t len,
                       const fstack::FfSockAddrIn& to) override;
  int zc_abort(fstack::FfZcBuf& zc) override;
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
  /// API v7: one sealed-entry crossing assigns fd's QoS class.
  int set_class(int fd, std::uint32_t cls) override;
  int close(int fd) override;
  int epoll_create() override;
  int epoll_ctl(int epfd, fstack::EpollOp op, int fd, std::uint32_t events,
                std::uint64_t data) override;
  int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) override;

 private:
  std::int64_t call(const machine::SealedEntry& e,
                    machine::CrossCallArgs& args);

  Scenario2Service* svc_;
  iv::CVM* app_;
  machine::CapView event_buf_;  // epoll events cross the boundary here
  machine::CapView zc_buf_;     // zc tokens/sources + accept fd batches

  machine::SealedEntry e_socket_, e_bind_, e_listen_, e_accept_, e_connect_,
      e_write_, e_read_, e_writev_, e_readv_, e_close_, e_ep_create_,
      e_ep_ctl_, e_ep_wait_, e_accept_batch_, e_zc_recv_, e_zc_recycle_,
      e_zc_alloc_, e_zc_send_, e_zc_abort_, e_uring_attach_, e_uring_detach_,
      e_uring_doorbell_, e_set_class_;
};

}  // namespace cherinet::scen
