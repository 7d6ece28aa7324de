#include "scenarios/scenario3.hpp"

#include <optional>

#include "apps/echo.hpp"
#include "apps/iperf.hpp"
#include "apps/mavlink.hpp"
#include "intravisor/compartment_mutex.hpp"

namespace cherinet::scen {

namespace {

constexpr std::uint16_t kFleetIperfPort = 5201;
constexpr std::uint16_t kEchoPortBase = 7000;
constexpr std::uint16_t kHostilePortBase = 7800;
constexpr std::uint32_t kHostileSq = 16;
constexpr std::uint32_t kHostileCq = 32;
// Adversary j draws its abuse sequence from kHostileSeed + j.
constexpr std::uint64_t kHostileSeed = 0x53EDu;

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
    if (done_ || fd_ < 0) return false;
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
    done_ = true;
    return true;
  }

  [[nodiscard]] bool finished() const noexcept { return done_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return sent_; }

 private:
  apps::FfOps* ops_;
  std::uint64_t total_;
  machine::CapView tx_;
  std::size_t pattern_ = 1;
  int fd_ = -1;
  std::uint64_t sent_ = 0;
  bool done_ = false;
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
// Scenario3Service
// ===========================================================================

int Scenario3Service::register_tenant(std::string name,
                                      const fstack::TenantQuota& quota) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  return svc_.instance(0).stack().tenant_register(std::move(name), quota);
}

int Scenario3Service::evict(int tid) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  return svc_.instance(0).stack().tenant_evict(tid);
}

fstack::TenantStats Scenario3Service::stats(int tid) {
  iv::CompartmentLockGuard g(svc_.mutex(0));
  const fstack::TenantStats* s = svc_.instance(0).stack().tenant_stats(tid);
  return s != nullptr ? *s : fstack::TenantStats{};
}

// ===========================================================================
// The fleet
// ===========================================================================

Scenario3Outcome run_scenario3_fleet(const Scenario3Options& s3,
                                     const TestbedOptions& opt) {
  const std::size_t n = s3.tenants.size();
  LockstepRig rig(ScenarioKind::kScenario2Uncontended, 0,
                  s3.bytes_per_tenant * n, opt);
  Scenario3Service svc(*rig.service());
  FullStackInstance& inst = rig.service()->instance(0);
  PeerHost& peer = rig.testbed().peer(0);
  Scenario3Outcome out;

  struct Slot {
    int ep = 0;  // the tenant's app cVM on the rig
    int tid = 0;
    std::unique_ptr<apps::EchoServer> echo;
    std::unique_ptr<apps::IperfClient> iperf;
    std::unique_ptr<MavTelemetry> mav;
    std::unique_ptr<HostileTenant> evil;
    std::optional<sim::Ns> abused_at;  // adversary: instant of its last step
  };
  std::vector<Slot> slot(n);

  int streams_to_peer = 0;  // iperf + mavlink tenants stream to the peer
  for (const Scenario3TenantSpec& spec : s3.tenants) {
    if (!spec.hostile && (spec.workload == TenantWorkload::kIperf ||
                          spec.workload == TenantWorkload::kMavlink)) {
      ++streams_to_peer;
    }
  }
  if (streams_to_peer > 0) peer.serve_iperf(kFleetIperfPort, streams_to_peer);

  for (std::size_t j = 0; j < n; ++j) {
    const Scenario3TenantSpec& spec = s3.tenants[j];
    Slot& sl = slot[j];
    sl.tid = svc.register_tenant(spec.name, spec.quota);
    sl.ep = rig.add_app("tenant:" + spec.name, sl.tid);
    apps::FfOps* ops = &rig.ops(sl.ep);
    const machine::CapView buf = rig.alloc(64 * 1024, sl.ep);
    const auto port = [j](std::uint16_t base) {
      return static_cast<std::uint16_t>(base + static_cast<int>(j));
    };
    rig.run(sl.ep, [&] {
      if (spec.hostile) {
        const machine::CapView ring = rig.alloc(
            fstack::FfUring::bytes_for(kHostileSq, kHostileCq), sl.ep);
        sl.evil = std::make_unique<HostileTenant>(
            ops, ring, kHostileSq, kHostileCq, *spec.hostile, kHostileSeed + j,
            port(kHostilePortBase));
        return;
      }
      switch (spec.workload) {
        case TenantWorkload::kEcho:
          sl.echo = std::make_unique<apps::EchoServer>(
              ops, port(kEchoPortBase), buf);
          return;
        case TenantWorkload::kIperf:
          sl.iperf = std::make_unique<apps::IperfClient>(
              ops, &rig.testbed().clock(), MorelloTestbed::peer_ip(0),
              kFleetIperfPort, s3.bytes_per_tenant, buf.window(0, 16 * 1024));
          return;
        case TenantWorkload::kMavlink:
          sl.mav = std::make_unique<MavTelemetry>(
              ops, MorelloTestbed::peer_ip(0), kFleetIperfPort,
              s3.bytes_per_tenant, buf.window(0, 8 * 1024));
          return;
      }
    });
    if (sl.echo) {  // the peer streams into it; done when that stream ends
      peer.run_iperf_client(MorelloTestbed::morello_ip(0),
                            port(kEchoPortBase), s3.bytes_per_tenant);
    }
  }

  // Victims' completion ends the run; adversaries never hold it up.
  const auto finished = [&] {
    for (const Slot& sl : slot) {
      if ((sl.iperf && !sl.iperf->finished()) ||
          (sl.mav && !sl.mav->finished())) {
        return false;
      }
    }
    return peer.workload_finished();
  };
  while (!finished()) {
    bool progress = false;
    for (Slot& sl : slot) {
      progress |= rig.run(sl.ep, [&] {
        // An adversary ALWAYS has another abuse step queued, so its steps
        // never count as progress, and it steps at most once per virtual
        // instant: a busy adversary cannot pin the clock for the fleet.
        if (sl.evil) {
          if (sl.abused_at != rig.now()) sl.evil->step();
          sl.abused_at = rig.now();
          return false;
        }
        if (sl.echo) return sl.echo->step();
        return sl.iperf ? sl.iperf->step() : sl.mav->step();
      });
    }
    if (!rig.turn(progress)) break;
  }

  // Post-run control-plane pass: evict the hostile tenants (nothing steps
  // any more, so the evictions run against a settled stack) and harvest
  // every census.
  for (std::size_t j = 0; j < n; ++j) {
    if (s3.tenants[j].hostile && svc.evict(slot[j].tid) == 0) {
      out.evicted++;
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
