#include "scenarios/scenario2.hpp"

#include <algorithm>
#include <cerrno>

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
      interest_calls_(shards_.size()),
      app_rings_(shards_.size()) {
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
      shard_calls_(&svc->proxied_calls_.at(shard)),
      interest_calls_(&svc->interest_calls_.at(shard)),
      app_rings_(&svc->app_rings_.at(shard)) {
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
  // Whatever this crossing lowers in the mirror, a CQE reaped after it
  // was posted after it.
  reap_edges();
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
  const int r = static_cast<int>(call(kListen, {arg(fd), arg(backlog)}));
  settle(fd, 0, false);
  return r;
}

int ProxyFfOps::accept(int fd) {
  const int r = static_cast<int>(call(kAccept, {arg(fd)}));
  settle(fd, fstack::kEpollIn, r == -EAGAIN);
  return r;
}

int ProxyFfOps::connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) {
  const int r = static_cast<int>(call(kConnect, {arg(fd), ip.value, port}));
  settle(fd, 0, false);
  return r;
}

namespace {
/// A read that drained its socket: -EAGAIN, or bytes short of `want`.
bool read_drained(std::int64_t r, std::uint64_t want) {
  return r == -EAGAIN || (r > 0 && static_cast<std::uint64_t>(r) < want);
}
/// A write that filled its send buffer: bytes short of `want`. -EAGAIN
/// proves nothing: the stack also answers it while the flow's class has
/// frames staged, with send space free.
bool write_filled(std::int64_t r, std::uint64_t want) {
  return r > 0 && static_cast<std::uint64_t>(r) < want;
}
std::uint64_t total_len(std::span<const fstack::FfIovec> iov) {
  std::uint64_t n = 0;
  for (const fstack::FfIovec& e : iov) n += e.len;
  return n;
}
}  // namespace

std::int64_t ProxyFfOps::write(int fd, const machine::CapView& buf,
                               std::size_t n) {
  // The capability-qualified buffer crosses the boundary in cap0.
  const std::int64_t r = call(kWrite, {arg(fd), n}, buf);
  settle(fd, fstack::kEpollOut, write_filled(r, n));
  return r;
}

std::int64_t ProxyFfOps::read(int fd, const machine::CapView& buf,
                              std::size_t n) {
  const std::int64_t r = call(kRead, {arg(fd), n}, buf);
  settle(fd, fstack::kEpollIn, read_drained(r, n));
  return r;
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
  const std::int64_t r = chunked(kWritev, fd, iov);
  settle(fd, fstack::kEpollOut, write_filled(r, total_len(iov)));
  return r;
}

std::int64_t ProxyFfOps::readv(int fd, std::span<const fstack::FfIovec> iov) {
  fstack::check_args(Door::kCall, Op::kReadv, iov);
  const std::int64_t r = chunked(kReadv, fd, iov);
  settle(fd, fstack::kEpollIn, read_drained(r, total_len(iov)));
  return r;
}

int ProxyFfOps::uring_attach(const machine::CapView& mem,
                             std::uint32_t sq_capacity,
                             std::uint32_t cq_capacity) {
  // The app delegates its whole ring region, bounded, in cap0.
  const int id = static_cast<int>(
      call(kUringAttach, {sq_capacity, cq_capacity}, mem));
  if (id >= 0) ++*app_rings_;
  return id;
}

int ProxyFfOps::uring_detach(int id) {
  const int r = static_cast<int>(call(kUringDetach, {arg(id)}));
  if (r == 0 && id != edges_id_ && *app_rings_ > 0) --*app_rings_;
  return r;
}

int ProxyFfOps::uring_doorbell(int id) {
  return static_cast<int>(call(kUringDoorbell, {arg(id)}));
}

int ProxyFfOps::close(int fd) {
  const int r = static_cast<int>(call(kClose, {arg(fd)}));
  if (r != 0) return r;
  // The fd left every interest set with it. A watched epfd's arm ended
  // with it (its final CQE is reaped here); a successor reusing the number
  // starts a watch of its own.
  for (auto& [epfd, w] : watches_) w.fds.erase(fd);
  if (watches_.contains(fd)) {
    reap_edges();
    watches_.erase(fd);
  }
  return r;
}

int ProxyFfOps::epoll_create() {
  const int epfd = static_cast<int>(call(kEpollCreate, {}));
  if (epfd >= 0) {
    Watch& w = watches_[epfd] = Watch{};
    w.known = true;  // empty, and every change goes through epoll_ctl
    w.interest_mark = *interest_calls_;
    w.others_mark = others();
  }
  return epfd;
}

int ProxyFfOps::epoll_ctl(int epfd, fstack::EpollOp op, int fd,
                          std::uint32_t events, std::uint64_t data) {
  const int r = static_cast<int>(call(
      kEpollCtl,
      {arg(epfd), static_cast<std::uint64_t>(op), arg(fd), events, data}));
  const auto it = watches_.find(epfd);
  if (r != 0 || it == watches_.end()) return r;
  Watch& w = it->second;
  if (op == fstack::EpollOp::kDel) {
    w.fds.erase(fd);
    return r;
  }
  for (const auto& [other, f] : w.fds) {
    if (other != fd && f.cookie == data) w.known = false;  // ambiguous
  }
  // Unknown until a CQE or a crossing wait: a MOD keeps the publisher's
  // record, so no CQE need come.
  w.fds[fd] = {data, std::nullopt};
  return r;
}

void ProxyFfOps::reap_edges() {
  if (!edges_) return;
  std::size_t popped = 0;
  for (std::size_t k; (k = edges_->cq_pop(reaped_)) > 0; popped += k) {
    for (const fstack::FfUringCqe& cqe : std::span{reaped_}.first(k)) {
      const auto it = watches_.find(static_cast<int>(cqe.user_data));
      if (it == watches_.end()) continue;
      Watch& w = it->second;
      if ((cqe.flags & fstack::kCqeMore) == 0) {
        w.arm = Watch::Arm::kDead;  // -ECANCELED, or -EBADF
        continue;
      }
      if (Watch::Interest* f = w.by_cookie(cqe.aux0)) {
        f->ready = static_cast<std::uint32_t>(cqe.result);
      }
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
    const int id =
        static_cast<int>(call(kUringAttach, {kEdgeSq, kEdgeCq}, mem));
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

std::optional<int> ProxyFfOps::local_answer(
    const Watch& w, std::span<fstack::FfEpollEvent> out) const {
  if (w.arm != Watch::Arm::kLive || !w.known ||
      *interest_calls_ != w.interest_mark) {
    return std::nullopt;
  }
  const std::size_t cap = std::min(out.size(), kMaxProxyEvents);
  std::size_t n = 0;
  for (const auto& [fd, f] : w.fds) {
    if (!f.ready) return std::nullopt;
    if (*f.ready != 0 && n < cap) out[n++] = {*f.ready, f.cookie};
  }
  if (n > 0 && (*app_rings_ > 0 || others() != w.others_mark)) {
    return std::nullopt;
  }
  return static_cast<int>(n);
}

void ProxyFfOps::settle(int fd, std::uint32_t bit, bool drained) {
  for (auto& [epfd, w] : watches_) {
    const auto it = w.fds.find(fd);
    if (it == w.fds.end() || !it->second.ready) continue;
    std::uint32_t& mask = *it->second.ready;
    // A write lowers only OUT: without it, the mask stands.
    if (bit == fstack::kEpollOut && (mask & bit) == 0) continue;
    if (!drained) {
      it->second.ready.reset();
    } else if (bit == fstack::kEpollOut ||
               (mask & (fstack::kEpollHup | fstack::kEpollErr)) == 0) {
      mask &= ~bit;
    }
  }
}

int ProxyFfOps::epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) {
  Watch& w = watch(epfd);
  if (const std::optional<int> n = local_answer(w, out)) return *n;
  const std::size_t want = std::min(out.size(), kMaxProxyEvents);
  const int n =
      static_cast<int>(call(kEpollWait, {arg(epfd), want}, event_buf_));
  if (n < 0) return n;
  // Rebaseline: an fd the answer left out reads 0 only if it had room.
  for (auto& [fd, f] : w.fds) {
    f.ready = static_cast<std::size_t>(n) < want
                  ? std::optional<std::uint32_t>{0}
                  : std::nullopt;
  }
  for (int i = 0; i < n && i < static_cast<int>(out.size()); ++i) {
    const auto off = static_cast<std::uint64_t>(i) * kEventRecordBytes;
    out[i].events = event_buf_.load<std::uint32_t>(off);
    out[i].data = event_buf_.load<std::uint64_t>(off + 4);
    if (Watch::Interest* f = w.by_cookie(out[i].data)) f->ready = out[i].events;
  }
  w.interest_mark = *interest_calls_;
  w.others_mark = others();
  return n;
}

}  // namespace cherinet::scen
