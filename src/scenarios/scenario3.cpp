#include "scenarios/scenario3.hpp"

#include <atomic>
#include <functional>
#include <thread>

#include "apps/echo.hpp"
#include "apps/iperf.hpp"
#include "apps/mavlink.hpp"
#include "intravisor/compartment_mutex.hpp"

namespace cherinet::scen {

namespace {

constexpr std::uint16_t kFleetIperfPort = 5201;
constexpr std::uint16_t kEchoPortBase = 7000;
constexpr std::uint16_t kHostilePortBase = 7800;
constexpr sim::Ns kFleetHeartbeat{1'000'000};  // 1 ms virtual idle heartbeat
constexpr std::uint32_t kHostileSq = 16;
constexpr std::uint32_t kHostileCq = 32;

/// MAVLink-v1 telemetry stream: heartbeat + attitude frames rendered once
/// into the tx buffer, then streamed over TCP like any telemetry downlink.
/// TCP is a byte stream, so partial writes never break framing — the
/// receiver reassembles on kMavStx.
class MavTelemetry {
 public:
  MavTelemetry(apps::FfOps* ops, fstack::Ipv4Addr dst, std::uint16_t port,
               std::uint64_t total_bytes, machine::CapView tx)
      : ops_(ops), total_(total_bytes), tx_(tx) {
    std::size_t off = 0;
    std::uint8_t seq = 0;
    // Leave headroom for the largest frame (attitude: 6+28+2 bytes).
    while (off + 64 <= tx_.size() && off < 4096) {
      const auto hb = apps::mav_encode(apps::make_heartbeat(seq));
      tx_.write(off, hb);
      off += hb.size();
      const float t = 0.01f * static_cast<float>(seq);
      const auto att =
          apps::mav_encode(apps::make_attitude(seq, t, -t, 2.0f * t));
      tx_.write(off, att);
      off += att.size();
      ++seq;
    }
    pattern_ = off;
    fd_ = ops_->socket_stream();
    if (fd_ >= 0) ops_->connect(fd_, dst, port);
  }

  bool step() {
    if (done_.load(std::memory_order_relaxed) || fd_ < 0) return false;
    bool progress = false;
    while (sent_ < total_) {
      const std::uint64_t off = sent_ % pattern_;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(pattern_ - off, total_ - sent_));
      const std::int64_t r = ops_->write(fd_, tx_.at(off), n);
      if (r <= 0) return progress;  // connecting / buffer full: retry
      sent_ += static_cast<std::uint64_t>(r);
      progress = true;
    }
    ops_->close(fd_);
    fd_ = -1;
    done_.store(true, std::memory_order_release);
    return true;
  }

  /// Poll-safe from the fleet coordinator while the slot thread steps us.
  [[nodiscard]] bool finished() const noexcept {
    return done_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return sent_; }

 private:
  apps::FfOps* ops_;
  std::uint64_t total_;
  machine::CapView tx_;
  std::size_t pattern_ = 1;
  int fd_ = -1;
  std::uint64_t sent_ = 0;
  std::atomic<bool> done_{false};
};

}  // namespace

const char* to_string(TenantWorkload w) noexcept {
  switch (w) {
    case TenantWorkload::kEcho:
      return "echo";
    case TenantWorkload::kIperf:
      return "iperf";
    case TenantWorkload::kMavlink:
      return "mavlink";
  }
  return "?";
}

// ===========================================================================
// TenantFfOps: orchestrator-bound tenancy over the proxied ops
// ===========================================================================

/// Decorates the Scenario 2 proxy: every handle the app obtains is bound to
/// its tenant by the CONTROL PLANE (under the shard mutex) before the app
/// sees it. Accepted children need no decoration — the stack makes them
/// inherit the listener's tenant at the accept boundary, where the socket
/// quota is charged.
class TenantFfOps final : public apps::FfOps {
 public:
  TenantFfOps(Scenario3Service* svc, std::unique_ptr<apps::FfOps> inner,
              int tid)
      : svc_(svc), inner_(std::move(inner)), tid_(tid) {}

  int socket_stream() override {
    const int fd = inner_->socket_stream();
    if (fd < 0) return fd;
    const int r = svc_->bind_socket(fd, tid_);
    if (r < 0) {  // over the tenant's socket quota: fail THIS tenant only
      inner_->close(fd);
      return r;
    }
    return fd;
  }
  int uring_attach(const machine::CapView& mem, std::uint32_t sq_capacity,
                   std::uint32_t cq_capacity) override {
    const int id = inner_->uring_attach(mem, sq_capacity, cq_capacity);
    if (id < 0) return id;
    const int r = svc_->bind_ring(id, tid_);
    if (r < 0) {
      inner_->uring_detach(id);
      return r;
    }
    return id;
  }

  int bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return inner_->bind(fd, ip, port);
  }
  int listen(int fd, int backlog) override { return inner_->listen(fd, backlog); }
  int accept(int fd) override { return inner_->accept(fd); }
  int connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return inner_->connect(fd, ip, port);
  }
  std::int64_t write(int fd, const machine::CapView& buf,
                     std::size_t n) override {
    return inner_->write(fd, buf, n);
  }
  std::int64_t read(int fd, const machine::CapView& buf,
                    std::size_t n) override {
    return inner_->read(fd, buf, n);
  }
  std::int64_t writev(int fd, std::span<const fstack::FfIovec> iov) override {
    return inner_->writev(fd, iov);
  }
  std::int64_t readv(int fd, std::span<const fstack::FfIovec> iov) override {
    return inner_->readv(fd, iov);
  }
  int accept_batch(int fd, std::span<int> out) override {
    return inner_->accept_batch(fd, out);
  }
  int zc_alloc(std::size_t len, fstack::FfZcBuf* out) override {
    return inner_->zc_alloc(len, out);
  }
  std::int64_t zc_send(int fd, fstack::FfZcBuf& zc, std::size_t len,
                       const fstack::FfSockAddrIn& to) override {
    return inner_->zc_send(fd, zc, len, to);
  }
  int zc_abort(fstack::FfZcBuf& zc) override { return inner_->zc_abort(zc); }
  std::int64_t zc_recv(int fd, std::span<fstack::FfZcRxBuf> out) override {
    return inner_->zc_recv(fd, out);
  }
  std::int64_t zc_recycle_batch(std::span<fstack::FfZcRxBuf> zcs) override {
    return inner_->zc_recycle_batch(zcs);
  }
  int uring_detach(int id) override { return inner_->uring_detach(id); }
  int uring_doorbell(int id) override { return inner_->uring_doorbell(id); }
  int set_class(int fd, std::uint32_t cls) override {
    return inner_->set_class(fd, cls);
  }
  int close(int fd) override { return inner_->close(fd); }
  int epoll_create() override { return inner_->epoll_create(); }
  int epoll_ctl(int epfd, fstack::EpollOp op, int fd, std::uint32_t events,
                std::uint64_t data) override {
    return inner_->epoll_ctl(epfd, op, fd, events, data);
  }
  int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) override {
    return inner_->epoll_wait(epfd, out);
  }

 private:
  Scenario3Service* svc_;
  std::unique_ptr<apps::FfOps> inner_;
  int tid_;
};

// ===========================================================================
// Scenario3Service
// ===========================================================================

Scenario3Service::Scenario3Service(iv::Intravisor& iv, iv::CVM& cvm1,
                                   FullStackInstance& inst)
    : svc_(iv, cvm1, inst), inst_(inst) {}

int Scenario3Service::register_tenant(std::string name,
                                      const fstack::TenantQuota& quota) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  return inst_.stack().tenant_register(std::move(name), quota);
}

std::unique_ptr<apps::FfOps> Scenario3Service::make_tenant_ops(iv::CVM& app,
                                                               int tid) {
  return std::make_unique<TenantFfOps>(this, svc_.make_proxy_ops(app, 0),
                                       tid);
}

int Scenario3Service::evict(int tid) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  return inst_.stack().tenant_evict(tid);
}

fstack::TenantStats Scenario3Service::stats(int tid) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  const fstack::TenantStats* s = inst_.stack().tenant_stats(tid);
  return s != nullptr ? *s : fstack::TenantStats{};
}

int Scenario3Service::bind_socket(int fd, int tid) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  return inst_.stack().sock_set_tenant(fd, tid);
}

int Scenario3Service::bind_ring(int ring_id, int tid) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  return inst_.stack().uring_bind_tenant(ring_id, tid);
}

// ===========================================================================
// The fleet
// ===========================================================================

Scenario3Outcome run_scenario3_fleet(const Scenario3Options& s3,
                                     const TestbedOptions& opt) {
  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  Scenario3Outcome out;

  const std::size_t n = s3.tenants.size();
  std::atomic<bool> stop{false};
  std::vector<std::function<bool()>> done;

  // Participants: the peer host, cVM1's stack loop, and one per app cVM.
  arb.expect_participants(2 + n);
  PeerHost& peer = tb.make_peer(0);

  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), clock, tb.morello_cfg(0));
  Scenario3Service svc(iv, cvm1, inst);

  struct Slot {
    iv::CVM* cvm = nullptr;
    std::unique_ptr<apps::FfOps> ops;
    std::unique_ptr<apps::EchoServer> echo;
    std::unique_ptr<apps::IperfClient> iperf;
    std::unique_ptr<MavTelemetry> mav;
    std::unique_ptr<HostileTenant> evil;
    int tid = 0;
    std::string label;
  };
  std::vector<Slot> slot(n);

  // Register every tenant BEFORE the stack loop starts (pure setup), then
  // start the loop and the apps.
  for (std::size_t j = 0; j < n; ++j) {
    slot[j].tid = svc.register_tenant(s3.tenants[j].name, s3.tenants[j].quota);
  }
  cvm1.start([&] { svc.base().run_shard_loop(0, stop, arb); });

  int streams_to_peer = 0;  // iperf + mavlink tenants stream to the peer
  for (std::size_t j = 0; j < n; ++j) {
    const Scenario3TenantSpec& spec = s3.tenants[j];
    if (!spec.hostile &&
        (spec.workload == TenantWorkload::kIperf ||
         spec.workload == TenantWorkload::kMavlink)) {
      ++streams_to_peer;
    }
  }
  if (streams_to_peer > 0) peer.serve_iperf(kFleetIperfPort, streams_to_peer);

  for (std::size_t j = 0; j < n; ++j) {
    const Scenario3TenantSpec& spec = s3.tenants[j];
    Slot& sl = slot[j];
    sl.label = "tenant:" + spec.name;
    sl.cvm = &iv.create_cvm(sl.label, 16u << 20);
    sl.ops = svc.make_tenant_ops(*sl.cvm, sl.tid);
    machine::CapView buf = sl.cvm->alloc(64 * 1024);

    if (spec.hostile) {
      const auto port =
          static_cast<std::uint16_t>(kHostilePortBase + static_cast<int>(j));
      machine::CapView ring = sl.cvm->alloc(
          fstack::FfUring::bytes_for(kHostileSq, kHostileCq));
      sl.evil = std::make_unique<HostileTenant>(
          sl.ops.get(), ring, kHostileSq, kHostileCq, *spec.hostile,
          s3.seed + j, port);
      continue;  // adversaries never finish; stop reaps them
    }
    switch (spec.workload) {
      case TenantWorkload::kEcho: {
        const auto port =
            static_cast<std::uint16_t>(kEchoPortBase + static_cast<int>(j));
        sl.echo = std::make_unique<apps::EchoServer>(sl.ops.get(), port, buf);
        peer.run_iperf_client(MorelloTestbed::morello_ip(0), port,
                              s3.bytes_per_tenant);
        break;  // completion observed through peer.workload_finished()
      }
      case TenantWorkload::kIperf: {
        sl.iperf = std::make_unique<apps::IperfClient>(
            sl.ops.get(), &clock, MorelloTestbed::peer_ip(0), kFleetIperfPort,
            s3.bytes_per_tenant, buf.window(0, 16 * 1024));
        done.push_back([&sl] { return sl.iperf->finished(); });
        break;
      }
      case TenantWorkload::kMavlink: {
        sl.mav = std::make_unique<MavTelemetry>(
            sl.ops.get(), MorelloTestbed::peer_ip(0), kFleetIperfPort,
            s3.bytes_per_tenant, buf.window(0, 8 * 1024));
        done.push_back([&sl] { return sl.mav->finished(); });
        break;
      }
    }
  }
  done.push_back([&peer] { return peer.workload_finished(); });
  peer.start();

  for (Slot& sl : slot) {
    sl.cvm->start([&sl, &clock, &arb, &stop] {
      sim::Participant part(arb, sl.label);
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t token = part.prepare();
        bool progress = false;
        if (sl.echo) progress |= sl.echo->step();
        if (sl.iperf) progress |= sl.iperf->step();
        if (sl.mav) progress |= sl.mav->step();
        // An adversary ALWAYS has another abuse step queued — counting it
        // as progress would spin this participant forever and freeze the
        // virtual clock for the whole fleet. One abuse burst per heartbeat
        // bounds it without throttling honest work.
        if (sl.evil) sl.evil->step();
        if (progress) continue;
        part.wait(token, clock.now() + kFleetHeartbeat);
      }
    });
  }

  // Victims' completion drives shutdown; adversaries never hold it up.
  while (true) {
    bool all = true;
    for (const auto& f : done) all &= f();
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  arb.kick();

  for (Slot& sl : slot) sl.cvm->join();
  cvm1.join();
  peer.request_stop();
  peer.join();

  // Post-run control-plane pass: evict the hostile tenants (the loops are
  // quiesced, so the evictions run against a settled stack) and harvest
  // every census.
  if (s3.evict_hostile) {
    for (std::size_t j = 0; j < n; ++j) {
      if (s3.tenants[j].hostile && svc.evict(slot[j].tid) == 0) {
        out.evicted++;
      }
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const Scenario3TenantSpec& spec = s3.tenants[j];
    Slot& sl = slot[j];
    TenantOutcome to;
    to.name = spec.name;
    to.workload = spec.workload;
    to.hostile = spec.hostile.has_value();
    to.tid = sl.tid;
    to.stats = svc.stats(sl.tid);
    if (sl.echo) to.goodput_bytes = sl.echo->bytes_echoed();
    if (sl.iperf) to.goodput_bytes = sl.iperf->report().bytes;
    if (sl.mav) to.goodput_bytes = sl.mav->bytes_sent();
    if (sl.evil) to.abuse = sl.evil->census();
    out.tenants.push_back(std::move(to));
  }
  out.pcbs_end = inst.stack().tcp_pcb_count();
  out.wheel_end = inst.stack().timer_wheel().size();
  out.pool_available_end = inst.pool().available();
  out.pool_indirect_available_end = inst.pool().indirect_available();
  return out;
}

}  // namespace cherinet::scen
