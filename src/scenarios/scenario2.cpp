#include "scenarios/scenario2.hpp"

namespace cherinet::scen {

namespace {
constexpr std::size_t kMaxProxyEvents = 64;
// One marshalling record per zc loan: u64 token, u32 src ip, u16 src port
// (+2 bytes padding). The same buffer carries recycle token batches and
// accepted-fd batches.
constexpr std::size_t kZcRecordBytes = 16;
constexpr std::size_t kMaxZcRecords = 64;
}  // namespace

Scenario2Service::Scenario2Service(iv::Intravisor& iv, iv::CVM& cvm1,
                                   FullStackInstance& inst)
    : Scenario2Service(iv, cvm1, std::vector<FullStackInstance*>{&inst}) {}

Scenario2Service::Scenario2Service(iv::Intravisor& iv, iv::CVM& cvm1,
                                   std::vector<FullStackInstance*> shards)
    : iv_(iv),
      cvm1_(cvm1),
      shards_(std::move(shards)),
      proxied_calls_(shards_.size()) {
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
    // Every proxied ff_* call reaches a shard through a sealed-entry
    // crossing; surface that counter through the stack's own stats.
    shards_[j]->stack().set_crossing_probe(
        [reg = &iv_.entries()] { return reg->crossings(); });
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
    : svc_(svc), app_(app) {
  event_buf_ = app_->heap().alloc_view(kMaxProxyEvents * 12);
  zc_buf_ = app_->heap().alloc_view(kMaxZcRecords * kZcRecordBytes);

  auto& reg = svc_->iv_.entries();
  const machine::CompartmentContext* target = &svc_->cvm1_.context();
  // Attach-time shard pinning: every entry this app installs captures the
  // shard's OWN stack and OWN mutex — no call of this app's ever touches a
  // sibling shard's state.
  fstack::FfStack* st = &svc_->shards_.at(shard)->stack();
  iv::CompartmentMutex* mtx = svc_->mutexes_.at(shard).get();
  std::atomic<std::uint64_t>* calls = &svc_->proxied_calls_[shard];
  iv::MuslLibc* libc = &app_->libc();  // the *caller's* futex path
  // Entry names are global: suffix the shard so one app may pin proxies to
  // several shards without colliding.
  const std::string tag =
      app_->name() + (shard == 0 ? "" : ":s" + std::to_string(shard));

  // Each wrapper: take the shard's mutex (serializing against that shard's
  // main loop), run the ff_* function inside cVM1. The sealed entry itself
  // performed the domain transition before we get here.
  const auto wrap = [calls, mtx, libc](auto fn) {
    return [calls, mtx, libc, fn](machine::CrossCallArgs& a) -> std::uint64_t {
      iv::CompartmentLockGuard lk(*mtx, libc);
      calls->fetch_add(1, std::memory_order_relaxed);
      return static_cast<std::uint64_t>(fn(a));
    };
  };

  // Tenancy is fixed at attach time and bound INSIDE the creating entry —
  // the same crossing and mutex acquisition that makes the socket or ring —
  // so no handle is ever visible untenanted. Over quota, the handle dies
  // before the app learns of it.
  e_socket_ = reg.install(
      tag + ":ff_socket", target,
      wrap([st, tid](machine::CrossCallArgs&) -> std::int64_t {
        const int fd =
            fstack::ff_socket(*st, fstack::kAfInet, fstack::kSockStream, 0);
        if (fd < 0) return fd;
        const int r = fstack::ff_set_tenant(*st, fd, tid);
        if (r < 0) fstack::ff_close(*st, fd);
        return r < 0 ? r : fd;
      }));
  e_bind_ = reg.install(
      tag + ":ff_bind", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_bind(
            *st, static_cast<int>(a.a[0]),
            {fstack::Ipv4Addr{static_cast<std::uint32_t>(a.a[1])},
             static_cast<std::uint16_t>(a.a[2])});
      }));
  e_listen_ = reg.install(tag + ":ff_listen", target,
                          wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
                            return fstack::ff_listen(
                                *st, static_cast<int>(a.a[0]),
                                static_cast<int>(a.a[1]));
                          }));
  e_accept_ = reg.install(tag + ":ff_accept", target,
                          wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
                            return fstack::ff_accept(
                                *st, static_cast<int>(a.a[0]), nullptr);
                          }));
  e_connect_ = reg.install(
      tag + ":ff_connect", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_connect(
            *st, static_cast<int>(a.a[0]),
            {fstack::Ipv4Addr{static_cast<std::uint32_t>(a.a[1])},
             static_cast<std::uint16_t>(a.a[2])});
      }));
  e_write_ = reg.install(tag + ":ff_write", target,
                         wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
                           return fstack::ff_write(*st,
                                                   static_cast<int>(a.a[0]),
                                                   *a.cap0, a.a[1]);
                         }));
  e_read_ = reg.install(tag + ":ff_read", target,
                        wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
                          return fstack::ff_read(*st,
                                                 static_cast<int>(a.a[0]),
                                                 *a.cap0, a.a[1]);
                        }));
  // Batched entries: a[1] iovec views arrive in the vector capability
  // registers, each exactly bounded to its element length (the length IS
  // the capability's bounds — the tightest possible grant crosses). One
  // wrap() acquisition serializes the whole batch against the main loop.
  const auto unpack_iov =
      [](machine::CrossCallArgs& a,
         std::span<fstack::FfIovec> out) -> std::int64_t {
    const std::size_t k = std::min<std::size_t>(
        a.a[1], machine::CrossCallArgs::kMaxVecCaps);
    for (std::size_t i = 0; i < k; ++i) {
      if (!a.caps[i].has_value()) return -EFAULT;
      out[i] = {*a.caps[i], static_cast<std::size_t>(a.caps[i]->size())};
    }
    return static_cast<std::int64_t>(k);
  };
  e_writev_ = reg.install(
      tag + ":ff_writev", target,
      wrap([st, unpack_iov](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfIovec iov[machine::CrossCallArgs::kMaxVecCaps];
        const std::int64_t k = unpack_iov(a, iov);
        if (k < 0) return k;
        return fstack::ff_writev(*st, static_cast<int>(a.a[0]),
                                 {iov, static_cast<std::size_t>(k)});
      }));
  e_readv_ = reg.install(
      tag + ":ff_readv", target,
      wrap([st, unpack_iov](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfIovec iov[machine::CrossCallArgs::kMaxVecCaps];
        const std::int64_t k = unpack_iov(a, iov);
        if (k < 0) return k;
        return fstack::ff_readv(*st, static_cast<int>(a.a[0]),
                                {iov, static_cast<std::size_t>(k)});
      }));
  e_close_ = reg.install(tag + ":ff_close", target,
                         wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
                           return fstack::ff_close(*st,
                                                   static_cast<int>(a.a[0]));
                         }));
  e_set_class_ = reg.install(
      tag + ":ff_set_class", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_set_class(*st, static_cast<int>(a.a[0]),
                                    static_cast<std::uint32_t>(a.a[1]));
      }));
  e_ep_create_ = reg.install(
      tag + ":ff_epoll_create", target,
      wrap([st](machine::CrossCallArgs&) -> std::int64_t {
        return fstack::ff_epoll_create(*st);
      }));
  e_ep_ctl_ = reg.install(
      tag + ":ff_epoll_ctl", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_epoll_ctl(
            *st, static_cast<int>(a.a[0]),
            static_cast<fstack::EpollOp>(a.a[1]), static_cast<int>(a.a[2]),
            static_cast<std::uint32_t>(a.a[3]), a.a[4]);
      }));
  e_ep_wait_ = reg.install(
      tag + ":ff_epoll_wait", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfEpollEvent evs[kMaxProxyEvents];
        const std::size_t want =
            std::min<std::uint64_t>(a.a[1], kMaxProxyEvents);
        const int n = fstack::ff_epoll_wait(*st, static_cast<int>(a.a[0]),
                                            {evs, want});
        // Marshal through the app-provided capability buffer.
        for (int i = 0; i < n; ++i) {
          a.cap0->store<std::uint32_t>(i * 12u, evs[i].events);
          a.cap0->store<std::uint64_t>(i * 12u + 4, evs[i].data);
        }
        return n;
      }));
  // Batched accept: ONE crossing and ONE mutex acquisition drain up to
  // a[1] queued connections; fds marshal through the shared buffer.
  e_accept_batch_ = reg.install(
      tag + ":ff_accept_batch", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        const std::size_t want =
            std::min<std::uint64_t>(a.a[1], kMaxZcRecords);
        std::int64_t n = 0;
        while (static_cast<std::size_t>(n) < want) {
          const int fd =
              fstack::ff_accept(*st, static_cast<int>(a.a[0]), nullptr);
          if (fd < 0) break;
          a.cap0->store<std::int32_t>(static_cast<std::uint64_t>(n) * 4u, fd);
          ++n;
        }
        return n;
      }));
  // Zero-copy RX: the loans themselves return in the vector capability
  // registers — each one an exactly-bounded read-only view into cVM1's RX
  // mbuf arena (the CompartOS-style delegation: the app compartment gets
  // authority over exactly the payload bytes, nothing else). Tokens and
  // datagram sources marshal through the shared record buffer.
  e_zc_recv_ = reg.install(
      tag + ":ff_zc_recv", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfZcRxBuf loans[machine::CrossCallArgs::kMaxVecCaps];
        const std::size_t want = std::min<std::uint64_t>(
            a.a[1], machine::CrossCallArgs::kMaxVecCaps);
        const std::int64_t r =
            fstack::ff_zc_recv(*st, static_cast<int>(a.a[0]), {loans, want});
        for (std::int64_t i = 0; i < r; ++i) {
          a.caps[static_cast<std::size_t>(i)] = loans[i].data;
          const auto off = static_cast<std::uint64_t>(i) * kZcRecordBytes;
          a.cap0->store<std::uint64_t>(off, loans[i].token);
          a.cap0->store<std::uint32_t>(off + 8, loans[i].from.ip.value);
          a.cap0->store<std::uint16_t>(off + 12, loans[i].from.port);
        }
        return r;
      }));
  // Recycling moves a whole token batch back per crossing: the costly
  // direction (per-buffer returns) amortizes exactly like writev.
  e_zc_recycle_ = reg.install(
      tag + ":ff_zc_recycle", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        const std::size_t n = std::min<std::uint64_t>(a.a[0], kMaxZcRecords);
        std::int64_t ok = 0;
        for (std::size_t i = 0; i < n; ++i) {
          fstack::FfZcRxBuf z;
          z.token = a.cap0->load<std::uint64_t>(i * kZcRecordBytes);
          if (fstack::ff_zc_recycle(*st, z) == 0) ++ok;
        }
        return ok;
      }));
  // Zero-copy TX: the alloc entry delegates a WRITABLE exactly-bounded
  // view of a cVM1 mbuf data room back to the app (token marshals through
  // the record buffer); the send entry consumes the token — on TCP the
  // payload then lives in the network cVM as a retained reference until
  // cumulative ACK, with no byte ever copied across the boundary.
  e_zc_alloc_ = reg.install(
      tag + ":ff_zc_alloc", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfZcBuf z;
        const int r = fstack::ff_zc_alloc(*st, a.a[0], &z);
        if (r != 0) return r;
        a.caps[0] = z.data;  // the writable grant returns in a vector reg
        a.cap0->store<std::uint64_t>(0, z.token);
        return 0;
      }));
  e_zc_send_ = reg.install(
      tag + ":ff_zc_send", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfZcBuf z;
        z.token = a.a[1];
        const std::int64_t r = fstack::ff_zc_send(
            *st, static_cast<int>(a.a[0]), z, a.a[2],
            {fstack::Ipv4Addr{static_cast<std::uint32_t>(a.a[3])},
             static_cast<std::uint16_t>(a.a[4])});
        // The post-call token goes back for the app-side handle to mirror:
        // only the stack knows which outcomes consumed it.
        a.cap0->store<std::uint64_t>(0, z.token);
        return r;
      }));
  e_zc_abort_ = reg.install(
      tag + ":ff_zc_abort", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        fstack::FfZcBuf z;
        z.token = a.a[0];
        return fstack::ff_zc_abort(*st, z);
      }));
  // ff_uring: the arming crossing delegates the app's whole ring region in
  // cap0; doorbell/detach carry only the ring id. Each is one sealed jump
  // under one wrap() mutex acquisition — and the doorbell's acquisition
  // covers the entire drain sweep, not one op.
  e_uring_attach_ = reg.install(
      tag + ":ff_uring_attach", target,
      wrap([st, tid](machine::CrossCallArgs& a) -> std::int64_t {
        if (!a.cap0.has_value()) return -EFAULT;
        const int id = fstack::ff_uring_attach(
            *st, *a.cap0, static_cast<std::uint32_t>(a.a[0]),
            static_cast<std::uint32_t>(a.a[1]));
        if (id < 0) return id;
        const int r = fstack::ff_uring_bind_tenant(*st, id, tid);
        if (r < 0) fstack::ff_uring_detach(*st, id);
        return r < 0 ? r : id;
      }));
  e_uring_detach_ = reg.install(
      tag + ":ff_uring_detach", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_uring_detach(*st, static_cast<int>(a.a[0]));
      }));
  e_uring_doorbell_ = reg.install(
      tag + ":ff_uring_doorbell", target,
      wrap([st](machine::CrossCallArgs& a) -> std::int64_t {
        return fstack::ff_uring_doorbell(*st, static_cast<int>(a.a[0]));
      }));
}

std::int64_t ProxyFfOps::call(const machine::SealedEntry& e,
                              machine::CrossCallArgs& args) {
  return static_cast<std::int64_t>(svc_->iv_.entries().invoke(e, args));
}

int ProxyFfOps::socket_stream() {
  machine::CrossCallArgs a;
  return static_cast<int>(call(e_socket_, a));
}

int ProxyFfOps::bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = ip.value;
  a.a[2] = port;
  return static_cast<int>(call(e_bind_, a));
}

int ProxyFfOps::listen(int fd, int backlog) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = static_cast<std::uint64_t>(backlog);
  return static_cast<int>(call(e_listen_, a));
}

int ProxyFfOps::accept(int fd) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  return static_cast<int>(call(e_accept_, a));
}

int ProxyFfOps::connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = ip.value;
  a.a[2] = port;
  return static_cast<int>(call(e_connect_, a));
}

std::int64_t ProxyFfOps::write(int fd, const machine::CapView& buf,
                               std::size_t n) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = n;
  a.cap0 = buf;  // the capability-qualified buffer crosses the boundary
  return call(e_write_, a);
}

std::int64_t ProxyFfOps::read(int fd, const machine::CapView& buf,
                              std::size_t n) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = n;
  a.cap0 = buf;
  return call(e_read_, a);
}

namespace {
/// Marshal one chunk of iovecs into the vector capability registers. Each
/// element crosses as a sub-capability bounded to exactly [0, len) — the
/// tightest possible grant is what crosses the boundary.
std::size_t marshal_chunk(std::span<const fstack::FfIovec> iov,
                          std::size_t from, machine::CrossCallArgs& a,
                          std::uint64_t* chunk_bytes) {
  std::size_t k = 0;
  *chunk_bytes = 0;
  for (; k < machine::CrossCallArgs::kMaxVecCaps && from + k < iov.size();
       ++k) {
    const fstack::FfIovec& e = iov[from + k];
    a.caps[k] = e.buf.window(0, e.len);
    *chunk_bytes += e.len;
  }
  return k;
}
}  // namespace

std::int64_t ProxyFfOps::writev(int fd, std::span<const fstack::FfIovec> iov) {
  // Whole-batch pre-flight BEFORE the first chunk crosses: batches wider
  // than the vector register file submit in chunks, and the documented
  // "any invalid element faults before a byte moves" guarantee must not be
  // voided by an invalid element in a later chunk.
  fstack::ff_sweep_iovecs(iov, cheri::Access::kLoad);
  std::int64_t total = 0;
  std::size_t i = 0;
  while (i < iov.size()) {
    machine::CrossCallArgs a;
    a.a[0] = static_cast<std::uint64_t>(fd);
    std::uint64_t chunk_bytes = 0;
    const std::size_t k = marshal_chunk(iov, i, a, &chunk_bytes);
    a.a[1] = k;
    const std::int64_t r = call(e_writev_, a);
    if (r < 0) return total > 0 ? total : r;
    total += r;
    if (static_cast<std::uint64_t>(r) < chunk_bytes) break;  // short count
    i += k;
  }
  return total;
}

std::int64_t ProxyFfOps::readv(int fd, std::span<const fstack::FfIovec> iov) {
  fstack::ff_sweep_iovecs(iov, cheri::Access::kStore);
  std::int64_t total = 0;
  std::size_t i = 0;
  while (i < iov.size()) {
    machine::CrossCallArgs a;
    a.a[0] = static_cast<std::uint64_t>(fd);
    std::uint64_t chunk_bytes = 0;
    const std::size_t k = marshal_chunk(iov, i, a, &chunk_bytes);
    a.a[1] = k;
    const std::int64_t r = call(e_readv_, a);
    if (r < 0) return total > 0 ? total : r;
    if (r == 0 && total == 0) return 0;  // EOF / empty batch
    total += r;
    if (static_cast<std::uint64_t>(r) < chunk_bytes) break;
    i += k;
  }
  return total;
}

int ProxyFfOps::accept_batch(int fd, std::span<int> out) {
  if (out.empty()) return 0;
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = std::min<std::uint64_t>(out.size(), kMaxZcRecords);
  a.cap0 = zc_buf_;
  const int n = static_cast<int>(call(e_accept_batch_, a));
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] =
        zc_buf_.load<std::int32_t>(static_cast<std::uint64_t>(i) * 4u);
  }
  return n;
}

std::int64_t ProxyFfOps::zc_recv(int fd, std::span<fstack::FfZcRxBuf> out) {
  std::int64_t filled = 0;
  std::size_t i = 0;
  while (i < out.size()) {
    const std::size_t want = std::min<std::size_t>(
        out.size() - i, machine::CrossCallArgs::kMaxVecCaps);
    machine::CrossCallArgs a;
    a.a[0] = static_cast<std::uint64_t>(fd);
    a.a[1] = want;
    a.cap0 = zc_buf_;
    const std::int64_t r = call(e_zc_recv_, a);
    if (r <= 0) return filled > 0 ? filled : r;
    for (std::int64_t k = 0; k < r; ++k) {
      fstack::FfZcRxBuf& o = out[i + static_cast<std::size_t>(k)];
      const auto off = static_cast<std::uint64_t>(k) * kZcRecordBytes;
      o.token = zc_buf_.load<std::uint64_t>(off);
      o.data = *a.caps[static_cast<std::size_t>(k)];  // the loan capability
      o.from.ip = fstack::Ipv4Addr{zc_buf_.load<std::uint32_t>(off + 8)};
      o.from.port = zc_buf_.load<std::uint16_t>(off + 12);
    }
    filled += r;
    i += static_cast<std::size_t>(r);
    if (static_cast<std::size_t>(r) < want) break;  // queue drained
  }
  return filled;
}

std::int64_t ProxyFfOps::zc_recycle_batch(std::span<fstack::FfZcRxBuf> zcs) {
  std::int64_t total = 0;
  std::size_t i = 0;
  while (i < zcs.size()) {
    const std::size_t n = std::min<std::size_t>(zcs.size() - i,
                                                kMaxZcRecords);
    for (std::size_t k = 0; k < n; ++k) {
      zc_buf_.store<std::uint64_t>(k * kZcRecordBytes, zcs[i + k].token);
    }
    machine::CrossCallArgs a;
    a.a[0] = n;
    a.cap0 = zc_buf_;
    const std::int64_t r = call(e_zc_recycle_, a);
    if (r < 0) return total > 0 ? total : r;
    for (std::size_t k = 0; k < n; ++k) {  // consumed either way
      zcs[i + k].token = 0;
      zcs[i + k].data = machine::CapView{};
    }
    total += r;
    i += n;
  }
  return total;
}

int ProxyFfOps::zc_alloc(std::size_t len, fstack::FfZcBuf* out) {
  if (out == nullptr) return -EINVAL;
  out->token = 0;
  out->data = machine::CapView{};
  machine::CrossCallArgs a;
  a.a[0] = len;
  a.cap0 = zc_buf_;
  const int r = static_cast<int>(call(e_zc_alloc_, a));
  if (r != 0) return r;
  if (!a.caps[0].has_value()) return -EFAULT;
  out->data = *a.caps[0];
  out->token = zc_buf_.load<std::uint64_t>(0);
  return 0;
}

std::int64_t ProxyFfOps::zc_send(int fd, fstack::FfZcBuf& zc,
                                 std::size_t len,
                                 const fstack::FfSockAddrIn& to) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = zc.token;
  a.a[2] = len;
  a.a[3] = to.ip.value;
  a.a[4] = to.port;
  a.cap0 = zc_buf_;
  const std::int64_t r = call(e_zc_send_, a);
  // Mirror the stack's token lifecycle in the app-side handle, exactly as
  // a direct call would leave it: consumed tokens (success, a dead
  // connection, any UDP outcome) lose their data view too.
  zc.token = zc_buf_.load<std::uint64_t>(0);
  if (zc.token == 0) zc.data = machine::CapView{};
  return r;
}

int ProxyFfOps::zc_abort(fstack::FfZcBuf& zc) {
  machine::CrossCallArgs a;
  a.a[0] = zc.token;
  const int r = static_cast<int>(call(e_zc_abort_, a));
  if (r == 0) {
    zc.token = 0;
    zc.data = machine::CapView{};
  }
  return r;
}

int ProxyFfOps::uring_attach(const machine::CapView& mem,
                             std::uint32_t sq_capacity,
                             std::uint32_t cq_capacity) {
  machine::CrossCallArgs a;
  a.a[0] = sq_capacity;
  a.a[1] = cq_capacity;
  a.cap0 = mem;  // the app delegates its whole ring region, bounded
  return static_cast<int>(call(e_uring_attach_, a));
}

int ProxyFfOps::uring_detach(int id) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(id);
  return static_cast<int>(call(e_uring_detach_, a));
}

int ProxyFfOps::uring_doorbell(int id) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(id);
  return static_cast<int>(call(e_uring_doorbell_, a));
}

int ProxyFfOps::set_class(int fd, std::uint32_t cls) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  a.a[1] = cls;
  return static_cast<int>(call(e_set_class_, a));
}

int ProxyFfOps::close(int fd) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(fd);
  return static_cast<int>(call(e_close_, a));
}

int ProxyFfOps::epoll_create() {
  machine::CrossCallArgs a;
  return static_cast<int>(call(e_ep_create_, a));
}

int ProxyFfOps::epoll_ctl(int epfd, fstack::EpollOp op, int fd,
                          std::uint32_t events, std::uint64_t data) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(epfd);
  a.a[1] = static_cast<std::uint64_t>(op);
  a.a[2] = static_cast<std::uint64_t>(fd);
  a.a[3] = events;
  a.a[4] = data;
  return static_cast<int>(call(e_ep_ctl_, a));
}

int ProxyFfOps::epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) {
  machine::CrossCallArgs a;
  a.a[0] = static_cast<std::uint64_t>(epfd);
  a.a[1] = std::min(out.size(), kMaxProxyEvents);
  a.cap0 = event_buf_;
  const int n = static_cast<int>(call(e_ep_wait_, a));
  for (int i = 0; i < n && i < static_cast<int>(out.size()); ++i) {
    out[i].events = event_buf_.load<std::uint32_t>(i * 12u);
    out[i].data = event_buf_.load<std::uint64_t>(i * 12u + 4);
  }
  return n;
}

}  // namespace cherinet::scen
