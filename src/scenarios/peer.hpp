// PeerHost: the external load-generator machine on the far end of a wire
// (the iperf counterpart the Morello node talks to). Runs its own NIC model
// (no shared-bus constraint — only the Morello card is PCI-limited), its
// own stack instance, and either a polling thread registered with the time
// arbiter (start()) or single-threaded stepping by a lockstep pump (step()).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "apps/iperf.hpp"
#include "machine/address_space.hpp"
#include "scenarios/stack_instance.hpp"
#include "sim/time_arbiter.hpp"

namespace cherinet::scen {

class PeerHost {
 public:
  struct Config {
    std::string name = "peer";
    InstanceConfig inst;
    std::size_t heap_bytes = 32u << 20;
  };

  PeerHost(Config cfg, machine::AddressSpace& as, sim::VirtualClock& clock,
           sim::TimeArbiter& arb, nic::Wire& wire, int wire_side);
  ~PeerHost();

  // Assign the workload before start().
  void serve_iperf(std::uint16_t port, int expected_connections);
  void run_iperf_client(fstack::Ipv4Addr dst, std::uint16_t port,
                        std::uint64_t total_bytes);
  void run_iperf_clients(fstack::Ipv4Addr dst, std::uint16_t port,
                         std::uint64_t total_bytes, int count);

  void start();
  void request_stop() { stop_.store(true, std::memory_order_release); }
  void join();

  /// One poll of the peer machine: its stack's main loop, then its workload
  /// apps. Returns true when anything progressed. The start() thread loops
  /// on this; a lockstep pump calls it directly instead.
  bool step();
  /// Earliest virtual instant the peer has work scheduled (nullopt: none).
  [[nodiscard]] std::optional<sim::Ns> next_deadline() const {
    return inst_->next_deadline();
  }

  [[nodiscard]] bool workload_finished() const;
  [[nodiscard]] const apps::IperfServer* server() const {
    return server_.get();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<apps::IperfClient>>&
  clients() const {
    return clients_;
  }
  [[nodiscard]] fstack::FfStack& stack() { return inst_->stack(); }

 private:
  void loop();

  Config cfg_;
  sim::VirtualClock& clock_;
  sim::TimeArbiter& arb_;
  std::unique_ptr<nic::E82576Device> card_;
  std::unique_ptr<machine::CompartmentHeap> heap_;
  std::unique_ptr<FullStackInstance> inst_;
  std::unique_ptr<apps::DirectFfOps> ops_;
  std::unique_ptr<apps::IperfServer> server_;
  std::vector<std::unique_ptr<apps::IperfClient>> clients_;
  machine::CapView app_buf_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace cherinet::scen
