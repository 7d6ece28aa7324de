// Drone telemetry: the paper's motivating workload (PX4/MAVLink, §I).
//
// A "flight controller" compartment streams MAVLink attitude telemetry
// over UDP through the compartmentalized stack to a ground station. Then a
// hostile frame with a lying length byte arrives: the legacy
// length-trusting parser (CVE-2024-38951 pattern) overreads — and CHERI
// bounds contain it to the telemetry compartment while the stack keeps
// flying. Exits nonzero unless all 20 frames arrive CRC-valid and both
// parsers behave as described.
//
//   build/example_drone_telemetry
#include <cstdio>

#include "apps/mavlink.hpp"
#include "fstack/api.hpp"
#include "scenarios/experiment.hpp"

using namespace cherinet;
using namespace cherinet::fstack;

int main() {
  scen::TestbedOptions opt;
  scen::MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();

  // Flight controller cVM owns the stack; ground station is the peer side.
  iv::CVM& fc = iv.create_cvm("flight-controller", 32u << 20);
  scen::FullStackInstance drone(tb.card(), 0, fc.heap(), clock,
                                tb.morello_cfg(0));
  auto& ground = tb.make_peer(0);  // uses the peer's own stack instance

  const auto pump = [&](auto&& done) {
    for (int i = 0; i < 200000 && !done(); ++i) {
      bool p = drone.run_once();
      p |= ground.stack().run_once();
      if (p) continue;
      auto d = drone.next_deadline();
      if (auto db = ground.stack().next_deadline(); db && (!d || *db < *d)) {
        d = db;
      }
      if (!d) break;
      clock.advance_to(*d);
    }
  };

  // Ground station listens for telemetry datagrams.
  const int gs = ff_socket(ground.stack(), kAfInet, kSockDgram, 0);
  ff_bind(ground.stack(), gs, {Ipv4Addr{}, 14550});  // MAVLink UDP port

  // Resolve the next hop before streaming: frames to an unresolved hop
  // park on a bounded ARP queue (16 per hop), which a 20-frame burst
  // would overflow.
  drone.stack().send_ping(scen::MorelloTestbed::peer_ip(0), 1, 1, 8);
  pump([&] { return drone.stack().pings().replies(1, 1) > 0; });

  // Drone streams 20 attitude messages through its capability buffers.
  const int tx = ff_socket(drone.stack(), kAfInet, kSockDgram, 0);
  machine::CapView txbuf = fc.alloc(512);
  for (std::uint8_t seq = 0; seq < 20; ++seq) {
    const auto frame = apps::mav_encode(apps::make_attitude(
        seq, 0.01f * seq, -0.02f * seq, 1.57f));
    txbuf.write(0, frame);
    ff_sendto(drone.stack(), tx, txbuf, frame.size(),
              {scen::MorelloTestbed::peer_ip(0), 14550});
  }

  // (ground station buffers come from its own heap inside PeerHost)
  auto gsbuf = iv.grant_shared(512, "gs-rx");  // demo-side receive buffer
  int received = 0, parsed = 0;
  pump([&] {
    FfSockAddrIn from{};
    const auto r = ff_recvfrom(ground.stack(), gs, gsbuf, 512, &from);
    if (r > 0) {
      ++received;
      if (apps::mav_parse_strict(gsbuf.window(0, static_cast<std::size_t>(r)),
                                 static_cast<std::size_t>(r))) {
        ++parsed;
      }
    }
    return received == 20;
  });
  std::printf("ground station received %d telemetry frames, %d CRC-valid\n",
              received, parsed);

  // --- the attack: a crafted frame claims a 200-byte payload -------------
  auto evil = apps::mav_encode(apps::make_heartbeat(99));
  evil[1] = std::byte{200};
  iv::CVM& decoder = iv.create_cvm("telemetry-decoder", 4u << 20);
  decoder.start([&] {
    machine::CapView frame_buf = decoder.alloc(evil.size());
    frame_buf.write(0, evil);
    // Legacy parser trusts the length byte -> capability bounds fault.
    (void)apps::mav_parse_trusting(frame_buf.window(0, evil.size()),
                                   evil.size());
  });
  decoder.join();
  std::printf("\ncrafted frame outcome: decoder faulted=%s\n",
              decoder.faulted() ? "yes (contained)" : "no");
  if (!iv.fault_log().empty()) {
    std::printf("%s\n", iv.fault_log().back().to_console().c_str());
  }
  // The flight controller's stack is unaffected — keep flying.
  drone.run_once();
  auto check = iv.grant_shared(512, "check");
  check.write(0, evil);
  const bool strict_rejects =
      !apps::mav_parse_strict(check.window(0, evil.size()), evil.size())
           .has_value();
  std::printf("flight controller stack still running; strict parser "
              "rejects the same frame: %s\n",
              strict_rejects ? "yes" : "NO (bug)");
  return received == 20 && parsed == 20 && decoder.faulted() &&
                 strict_rejects
             ? 0
             : 1;
}
