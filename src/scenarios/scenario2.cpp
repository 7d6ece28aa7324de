#include "scenarios/scenario2.hpp"

#include <algorithm>

#include "fstack/boundary.hpp"

namespace cherinet::scen {

namespace {
using fstack::Door;
using fstack::kEventRecordBytes;
using fstack::Op;

constexpr std::size_t kMaxProxyEvents = 64;
// The readiness ring carries only OP_EPOLL_ARM submissions; its CQ holds
// the edges posted between two waits.
constexpr std::uint32_t kEdgeSq = 4;
constexpr std::uint32_t kEdgeCq = 64;

constexpr std::uint64_t arg(int v) { return static_cast<std::uint64_t>(v); }

/// An argument register's view; an empty register holds the null view,
/// which check_args refuses like any untagged one.
machine::CapView view(const std::optional<machine::CapView>& r) {
  return r.value_or(machine::CapView{});
}

/// cap0 as `n` marshalling records, checked before the stack call so a bad
/// buffer answers -EFAULT instead of stranding events in cVM1.
std::int64_t check_records(Op op, const machine::CrossCallArgs& a,
                           std::uint64_t n) {
  const fstack::FfIovec records{view(a.cap0), n};
  return fstack::check_args(Door::kEntry, op, {&records, 1});
}
}  // namespace

Scenario2Service::Scenario2Service(iv::Intravisor& iv, iv::CVM& cvm1,
                                   FullStackInstance& inst)
    : Scenario2Service(iv, cvm1, std::vector<FullStackInstance*>{&inst}) {}

Scenario2Service::Scenario2Service(iv::Intravisor& iv, iv::CVM& cvm1,
                                   std::vector<FullStackInstance*> shards)
    : iv_(iv),
      cvm1_(cvm1),
      shards_(std::move(shards)),
      proxied_calls_(shards_.size()),
      interest_calls_(shards_.size()) {
  mutex_words_.reserve(shards_.size());
  mutexes_.reserve(shards_.size());
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    // Shard 0 keeps the historical grant name; siblings get a suffix so the
    // shared-memory census stays legible.
    const std::string name =
        j == 0 ? "s2-stack-mutex" : "s2-stack-mutex-s" + std::to_string(j);
    mutex_words_.push_back(iv_.grant_shared(64, name));
    mutex_words_.back().store<std::uint32_t>(0, 0);
    mutexes_.push_back(std::make_unique<iv::CompartmentMutex>(
        &cvm1_.libc(), mutex_words_.back().window(0, 4)));
  }
}

std::unique_ptr<apps::FfOps> Scenario2Service::make_proxy_ops(
    iv::CVM& app, std::size_t shard, int tid) {
  return std::make_unique<ProxyFfOps>(this, &app, shard, tid);
}

// ---------------------------------------------------------------------------
// ProxyFfOps
// ---------------------------------------------------------------------------

ProxyFfOps::ProxyFfOps(Scenario2Service* svc, iv::CVM* app, std::size_t shard,
                       int tid)
    : svc_(svc),
      app_(app),
      interest_calls_(&svc->interest_calls_.at(shard)) {
  event_buf_ = app_->heap().alloc_view(kMaxProxyEvents * kEventRecordBytes);

  auto& reg = svc_->iv_.entries();
  const machine::CompartmentContext* target = &svc_->cvm1_.context();
  // Attach-time shard pinning: every entry this app installs captures the
  // shard's OWN stack and OWN mutex — no call of this app's ever touches a
  // sibling shard's state.
  fstack::FfStack* st = &svc_->shards_.at(shard)->stack();
  iv::CompartmentMutex* mtx = svc_->mutexes_.at(shard).get();
  std::uint64_t* calls = &svc_->proxied_calls_[shard];
  std::uint64_t* interest = &svc_->interest_calls_[shard];
  iv::MuslLibc* libc = &app_->libc();  // the *caller's* futex path
  // Entry names are global: suffix the shard so one app may pin proxies to
  // several shards without colliding.
  const std::string tag =
      app_->name() + (shard == 0 ? "" : ":s" + std::to_string(shard));

  // Each wrapper: take the shard's mutex (serializing against that shard's
  // main loop), then run the ff_* function inside cVM1 as the app's tenant
  // — a neighbour's fd reads as -EBADF, exactly as it does on the app's
  // ring — through the sealed-entry door, so a
  // refused argument answers -EFAULT (fstack/boundary.hpp). The sealed
  // entry itself performed the domain transition before we get here.
  const auto wrap = [calls, mtx, libc, st, tid](auto fn) {
    return [calls, mtx, libc, st, tid,
            fn](machine::CrossCallArgs& a) -> std::uint64_t {
      iv::CompartmentLockGuard lk(*mtx, libc);
      ++*calls;
      const fstack::FfStack::TenantScope as_tenant(*st, tid, Door::kEntry);
      return static_cast<std::uint64_t>(fn(a));
    };
  };

  // Tenancy is fixed at attach time and bound INSIDE the creating entry —
  // the same crossing and mutex acquisition that makes the socket or ring —
  // so no handle is ever visible untenanted. Over quota, the handle dies
  // before the app learns of it.
  e_[kSocket] = reg.install(
      tag + ":ff_socket", target,
      wrap([st, tid](machine::CrossCallArgs&) -> std::int64_t {
        const int fd =
            fstack::ff_socket(*st, fstack::kAfInet, fstack::kSockStream, 0);
        if (fd < 0) return fd;
        const int r = fstack::ff_set_tenant(*st, fd, tid);
        if (r < 0) fstack::ff_close(*st, fd);
        return r < 0 ? r : fd;
      }));
  e_[kBind] = reg.install(
      tag + ":ff_bind", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_bind(
            *st, static_cast<int>(a.a[0]),
            {fstack::Ipv4Addr{static_cast<std::uint32_t>(a.a[1])},
             static_cast<std::uint16_t>(a.a[2])});
      }));
  e_[kListen] = reg.install(
      tag + ":ff_listen", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_listen(*st, static_cast<int>(a.a[0]),
                                 static_cast<int>(a.a[1]));
      }));
  e_[kAccept] = reg.install(
      tag + ":ff_accept", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_accept(*st, static_cast<int>(a.a[0]), nullptr);
      }));
  e_[kConnect] = reg.install(
      tag + ":ff_connect", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_connect(
            *st, static_cast<int>(a.a[0]),
            {fstack::Ipv4Addr{static_cast<std::uint32_t>(a.a[1])},
             static_cast<std::uint16_t>(a.a[2])});
      }));
  e_[kWrite] = reg.install(
      tag + ":ff_write", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_write(*st, static_cast<int>(a.a[0]), view(a.cap0),
                                a.a[1]);
      }));
  e_[kRead] = reg.install(
      tag + ":ff_read", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_read(*st, static_cast<int>(a.a[0]), view(a.cap0),
                               a.a[1]);
      }));
  // Batched entries: a[1] iovec views arrive in the vector capability
  // registers, each exactly bounded to its element length (the length IS
  // the capability's bounds — the tightest possible grant crosses). One
  // wrap() acquisition serializes the whole batch against the main loop.
  const auto unpack_iov = [](machine::CrossCallArgs& a,
                              std::span<fstack::FfIovec> out) {
    const std::size_t k = std::min<std::size_t>(
        a.a[1], machine::CrossCallArgs::kMaxVecCaps);
    for (std::size_t i = 0; i < k; ++i) {
      const machine::CapView v = view(a.caps[i]);
      out[i] = {v, static_cast<std::size_t>(v.size())};
    }
    return out.first(k);
  };
  e_[kWritev] = reg.install(
      tag + ":ff_writev", target,
      wrap([st, unpack_iov](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfIovec iov[machine::CrossCallArgs::kMaxVecCaps];
        return fstack::ff_writev(*st, static_cast<int>(a.a[0]),
                                 unpack_iov(a, iov));
      }));
  e_[kReadv] = reg.install(
      tag + ":ff_readv", target,
      wrap([st, unpack_iov](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfIovec iov[machine::CrossCallArgs::kMaxVecCaps];
        return fstack::ff_readv(*st, static_cast<int>(a.a[0]),
                                unpack_iov(a, iov));
      }));
  e_[kClose] = reg.install(
      tag + ":ff_close", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_close(*st, static_cast<int>(a.a[0]));
      }));
  e_[kEpollCreate] = reg.install(
      tag + ":ff_epoll_create", target,
      wrap([st](machine::CrossCallArgs&) -> std::int64_t {
        return fstack::ff_epoll_create(*st);
      }));
  e_[kEpollCtl] = reg.install(
      tag + ":ff_epoll_ctl", target,
      wrap([st, interest](machine::CrossCallArgs& a) -> std::int64_t {
        ++*interest;
        return fstack::ff_epoll_ctl(
            *st, static_cast<int>(a.a[0]),
            static_cast<fstack::EpollOp>(a.a[1]), static_cast<int>(a.a[2]),
            static_cast<std::uint32_t>(a.a[3]), a.a[4]);
      }));
  e_[kEpollWait] = reg.install(
      tag + ":ff_epoll_wait", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfEpollEvent evs[kMaxProxyEvents];
        const std::size_t want =
            std::min<std::uint64_t>(a.a[1], kMaxProxyEvents);
        if (const auto r = check_records(Op::kEpollWait, a, want)) return r;
        const int n = fstack::ff_epoll_wait(*st, static_cast<int>(a.a[0]),
                                            {evs, want});
        // Marshal through the app-provided capability buffer.
        for (int i = 0; i < n; ++i) {
          const auto off = static_cast<std::uint64_t>(i) * kEventRecordBytes;
          a.cap0->store<std::uint32_t>(off, evs[i].events);
          a.cap0->store<std::uint64_t>(off + 4, evs[i].data);
        }
        return n;
      }));
  // ff_uring: the arming crossing delegates the app's whole ring region in
  // cap0; doorbell/detach carry only the ring id. Each is one sealed jump
  // under one wrap() mutex acquisition — and the doorbell's acquisition
  // covers the entire drain sweep, not one op.
  e_[kUringAttach] = reg.install(
      tag + ":ff_uring_attach", target,
      wrap([st, tid](machine::CrossCallArgs& a) -> std::int64_t {
        const int id = fstack::ff_uring_attach(
            *st, view(a.cap0), static_cast<std::uint32_t>(a.a[0]),
            static_cast<std::uint32_t>(a.a[1]));
        if (id < 0) return id;
        const int r = fstack::ff_uring_bind_tenant(*st, id, tid);
        if (r < 0) fstack::ff_uring_detach(*st, id);
        return r < 0 ? r : id;
      }));
  e_[kUringDetach] = reg.install(
      tag + ":ff_uring_detach", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_uring_detach(*st, static_cast<int>(a.a[0]));
      }));
  // The doorbell's drain may run OP_EPOLL_CTL: it counts with ff_epoll_ctl
  // as a crossing that can add readiness to any app's interest set.
  e_[kUringDoorbell] = reg.install(
      tag + ":ff_uring_doorbell", target,
      wrap([st, interest](machine::CrossCallArgs& a) -> std::int64_t {
        ++*interest;
        return fstack::ff_uring_doorbell(*st, static_cast<int>(a.a[0]));
      }));
}

ProxyFfOps::~ProxyFfOps() {
  if (edges_id_ >= 0) uring_detach(edges_id_);
}

std::int64_t ProxyFfOps::call(Entry e, machine::CrossCallArgs& args) {
  ++crossings_;
  return static_cast<std::int64_t>(svc_->iv_.entries().invoke(e_[e], args));
}

std::int64_t ProxyFfOps::call(Entry e,
                              std::initializer_list<std::uint64_t> scalars,
                              std::optional<machine::CapView> cap0) {
  machine::CrossCallArgs a;
  std::copy(scalars.begin(), scalars.end(), a.a);
  a.cap0 = std::move(cap0);
  return call(e, a);
}

int ProxyFfOps::socket_stream() { return static_cast<int>(call(kSocket, {})); }

int ProxyFfOps::bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) {
  return static_cast<int>(call(kBind, {arg(fd), ip.value, port}));
}

int ProxyFfOps::listen(int fd, int backlog) {
  return static_cast<int>(call(kListen, {arg(fd), arg(backlog)}));
}

int ProxyFfOps::accept(int fd) {
  return static_cast<int>(call(kAccept, {arg(fd)}));
}

int ProxyFfOps::connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) {
  return static_cast<int>(call(kConnect, {arg(fd), ip.value, port}));
}

std::int64_t ProxyFfOps::write(int fd, const machine::CapView& buf,
                               std::size_t n) {
  // The capability-qualified buffer crosses the boundary in cap0.
  return call(kWrite, {arg(fd), n}, buf);
}

std::int64_t ProxyFfOps::read(int fd, const machine::CapView& buf,
                              std::size_t n) {
  return call(kRead, {arg(fd), n}, buf);
}

std::int64_t ProxyFfOps::chunked(Entry e, int fd,
                                 std::span<const fstack::FfIovec> iov) {
  std::int64_t total = 0;
  std::size_t i = 0;
  while (i < iov.size()) {
    // One chunk per crossing: each element rides a vector register as a
    // sub-capability bounded to exactly [0, len) — the tightest grant.
    machine::CrossCallArgs a;
    std::uint64_t chunk_bytes = 0;
    std::size_t k = 0;
    for (; k < machine::CrossCallArgs::kMaxVecCaps && i + k < iov.size();
         ++k) {
      a.caps[k] = iov[i + k].buf.window(0, iov[i + k].len);
      chunk_bytes += iov[i + k].len;
    }
    a.a[0] = arg(fd);
    a.a[1] = k;
    const std::int64_t r = call(e, a);
    if (r < 0) return total > 0 ? total : r;
    total += r;
    if (static_cast<std::uint64_t>(r) < chunk_bytes) break;  // short count
    i += k;
  }
  return total;
}

std::int64_t ProxyFfOps::writev(int fd, std::span<const fstack::FfIovec> iov) {
  // Whole-batch pre-flight BEFORE the first chunk crosses: batches wider
  // than the vector register file submit in chunks, and the documented
  // "any invalid element faults before a byte moves" guarantee must not be
  // voided by an invalid element in a later chunk. It runs app-side, so a
  // bad element is the app's own trap.
  fstack::check_args(Door::kCall, Op::kWritev, iov);
  return chunked(kWritev, fd, iov);
}

std::int64_t ProxyFfOps::readv(int fd, std::span<const fstack::FfIovec> iov) {
  fstack::check_args(Door::kCall, Op::kReadv, iov);
  return chunked(kReadv, fd, iov);
}

int ProxyFfOps::uring_attach(const machine::CapView& mem,
                             std::uint32_t sq_capacity,
                             std::uint32_t cq_capacity) {
  // The app delegates its whole ring region, bounded, in cap0.
  return static_cast<int>(
      call(kUringAttach, {sq_capacity, cq_capacity}, mem));
}

int ProxyFfOps::uring_detach(int id) {
  return static_cast<int>(call(kUringDetach, {arg(id)}));
}

int ProxyFfOps::uring_doorbell(int id) {
  return static_cast<int>(call(kUringDoorbell, {arg(id)}));
}

int ProxyFfOps::close(int fd) {
  const int r = static_cast<int>(call(kClose, {arg(fd)}));
  // A watched epfd's arm ended with it (its final CQE is reaped here); a
  // successor reusing the number starts a watch of its own.
  if (watches_.contains(fd)) {
    reap_edges();
    watches_.erase(fd);
  }
  return r;
}

int ProxyFfOps::epoll_create() {
  return static_cast<int>(call(kEpollCreate, {}));
}

int ProxyFfOps::epoll_ctl(int epfd, fstack::EpollOp op, int fd,
                          std::uint32_t events, std::uint64_t data) {
  return static_cast<int>(call(
      kEpollCtl,
      {arg(epfd), static_cast<std::uint64_t>(op), arg(fd), events, data}));
}

void ProxyFfOps::reap_edges() {
  if (!edges_) return;
  // One CQE at a time: edges are rare, and the empty CQ of a quiet wait
  // is its hot path.
  fstack::FfUringCqe cqe;
  std::size_t popped = 0;
  for (; edges_->cq_pop({&cqe, 1}) == 1; ++popped) {
    const auto it = watches_.find(static_cast<int>(cqe.user_data));
    if (it == watches_.end()) continue;
    if ((cqe.flags & fstack::kCqeMore) != 0) {
      it->second.quiet = false;  // an edge since the last crossing
    } else {
      it->second.arm = Watch::Arm::kDead;  // -ECANCELED, or -EBADF
    }
  }
  // A deferred CQE may be an arm's end that a detach then lost: no arm on
  // this ring can be trusted again. Only a reap that found the CQ full can
  // follow an overflow (nothing else empties it).
  if (popped >= kEdgeCq && edges_->cq_overflows() != edges_overflows_) {
    edges_overflows_ = edges_->cq_overflows();
    for (auto& [fd, w] : watches_) w.arm = Watch::Arm::kDead;
  }
  if (pending_arms_ > 0 && edges_->sq_pending() == 0) {  // all drained
    pending_arms_ = 0;
    for (auto& [fd, w] : watches_) {
      if (w.arm == Watch::Arm::kPending) w.arm = Watch::Arm::kLive;
    }
  }
}

ProxyFfOps::Watch& ProxyFfOps::watch(int epfd) {
  reap_edges();
  Watch& w = watches_[epfd];
  if (w.arm != Watch::Arm::kNone || edges_failed_) return w;
  if (!edges_) {
    const machine::CapView mem =
        app_->heap().alloc_view(fstack::FfUring::bytes_for(kEdgeSq, kEdgeCq));
    fstack::FfUring ring(mem, kEdgeSq, kEdgeCq);
    const int id = uring_attach(mem, kEdgeSq, kEdgeCq);
    if (id < 0) {
      app_->heap().free(mem.cap());
      edges_failed_ = true;
      return w;
    }
    edges_ = ring;
    edges_id_ = id;
  }
  fstack::FfUringSqe arm;
  arm.op = fstack::UringOp::kEpollArm;
  arm.fd = epfd;
  arm.user_data = static_cast<std::uint64_t>(epfd);
  switch (edges_->sq_push(arm)) {
    case fstack::FfUring::Push::kFull:
      return w;  // submitted on a later wait
    case fstack::FfUring::Push::kDoorbell:
      uring_doorbell(edges_id_);
      break;
    case fstack::FfUring::Push::kQueued:
      break;
  }
  w.arm = Watch::Arm::kPending;
  ++pending_arms_;
  return w;
}

int ProxyFfOps::epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) {
  Watch& w = watch(epfd);
  if (w.arm == Watch::Arm::kLive && w.quiet && crossings_ == w.own_mark &&
      *interest_calls_ == w.interest_mark) {
    return 0;
  }
  const int n = static_cast<int>(call(
      kEpollWait, {arg(epfd), std::min(out.size(), kMaxProxyEvents)},
      event_buf_));
  for (int i = 0; i < n && i < static_cast<int>(out.size()); ++i) {
    const auto off = static_cast<std::uint64_t>(i) * kEventRecordBytes;
    out[i].events = event_buf_.load<std::uint32_t>(off);
    out[i].data = event_buf_.load<std::uint64_t>(off + 4);
  }
  // An empty `out` reads nothing, so its 0 proves nothing.
  w.quiet = n == 0 && !out.empty();
  w.own_mark = crossings_;
  w.interest_mark = *interest_calls_;
  return n;
}

}  // namespace cherinet::scen
