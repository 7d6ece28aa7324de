#include "scenarios/two_stacks.hpp"

namespace cherinet::scen {

TwoStacks::TwoStacks(sim::Testbed phys, fstack::TcpConfig tcp,
                     updk::EalConfig eal, bool inline_tcp_output)
    : as_(96u << 20),
      wire_(&clock_, nullptr, phys),
      card_a_(&as_.mem(), &clock_,
              {nic::MacAddr::local(10), nic::MacAddr::local(11)}),
      card_b_(&as_.mem(), &clock_,
              {nic::MacAddr::local(20), nic::MacAddr::local(21)}) {
  card_a_.connect(0, &wire_, 0);
  card_b_.connect(0, &wire_, 1);
  heap_a_ = std::make_unique<machine::CompartmentHeap>(
      &as_.mem(), as_.carve(24u << 20, cheri::PermSet::data_rw(), "A"));
  heap_b_ = std::make_unique<machine::CompartmentHeap>(
      &as_.mem(), as_.carve(24u << 20, cheri::PermSet::data_rw(), "B"));
  InstanceConfig ca;
  ca.netif.ip = ip_a();
  ca.tcp = tcp;
  ca.eal = eal;
  ca.inline_tcp_output = inline_tcp_output;
  InstanceConfig cb = ca;
  cb.netif.ip = ip_b();
  a_ = std::make_unique<FullStackInstance>(card_a_, 0, *heap_a_, clock_, ca);
  b_ = std::make_unique<FullStackInstance>(card_b_, 0, *heap_b_, clock_, cb);
}

bool TwoStacks::run_once() {
  bool progress = a_->run_once();
  progress |= b_->run_once();
  return progress;
}

std::optional<sim::Ns> TwoStacks::next_deadline() const {
  auto d = a_->next_deadline();
  const auto db = b_->next_deadline();
  if (db && (!d || *db < *d)) d = db;
  return d;
}

bool TwoStacks::pump_until(const std::function<bool()>& pred, int max_iters) {
  for (int i = 0; i < max_iters; ++i) {
    if (pred()) return true;
    if (run_once()) continue;
    const auto d = next_deadline();
    if (!d) return pred();  // nothing will ever happen again
    clock_.advance_to(*d);
  }
  return pred();
}

void TwoStacks::pump(int iters) {
  pump_until([] { return false; }, iters);
}

}  // namespace cherinet::scen
