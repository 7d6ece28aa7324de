#include "scenarios/peer.hpp"

namespace cherinet::scen {

namespace {
constexpr std::size_t kHeapBytes = 32u << 20;
}  // namespace

PeerHost::PeerHost(Config cfg, machine::AddressSpace& as,
                   sim::VirtualClock& clock, nic::Wire& wire,
                   int wire_side)
    : cfg_(std::move(cfg)), clock_(clock) {
  card_ = std::make_unique<nic::E82576Device>(
      &as.mem(), &clock,
      std::array<nic::MacAddr, 2>{nic::MacAddr::local(200), nic::MacAddr::local(201)});
  card_->connect(0, &wire, wire_side);
  heap_ = std::make_unique<machine::CompartmentHeap>(
      &as.mem(),
      as.carve(kHeapBytes, cheri::PermSet::data_rw(),
               cfg_.name + "-heap"));
  inst_ = std::make_unique<FullStackInstance>(*card_, 0, *heap_, clock,
                                              cfg_.inst);
  ops_ = std::make_unique<apps::DirectFfOps>(&inst_->stack());
  app_buf_ = heap_->alloc_view(64 * 1024);
}

void PeerHost::serve_iperf(std::uint16_t port, int expected_connections) {
  server_ = std::make_unique<apps::IperfServer>(ops_.get(), &clock_, port,
                                                app_buf_,
                                                expected_connections);
}

void PeerHost::run_iperf_client(fstack::Ipv4Addr dst, std::uint16_t port,
                                std::uint64_t total_bytes) {
  run_iperf_clients(dst, port, total_bytes, 1);
}

void PeerHost::run_iperf_clients(fstack::Ipv4Addr dst, std::uint16_t port,
                                 std::uint64_t total_bytes, int count) {
  for (int i = 0; i < count; ++i) {
    clients_.push_back(std::make_unique<apps::IperfClient>(
        ops_.get(), &clock_, dst, port, total_bytes,
        app_buf_.window(0, 16 * 1024)));
  }
}

bool PeerHost::workload_finished() const {
  if (server_ && !server_->finished()) return false;
  for (const auto& c : clients_) {
    if (!c->finished()) return false;
  }
  return true;
}

bool PeerHost::step() {
  bool progress = inst_->run_once();
  if (server_) progress |= server_->step();
  for (auto& c : clients_) progress |= c->step();
  return progress;
}

}  // namespace cherinet::scen
