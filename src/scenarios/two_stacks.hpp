// TwoStacks: two full stacks joined by one wire, stepped deterministically
// on a manually-advanced virtual clock — no threads, no compartments. The protocol-level workhorse of the tests and of the
// benches and examples that need a peer: every run with the same inputs
// replays identically.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "machine/address_space.hpp"
#include "nic/e82576.hpp"
#include "nic/wire.hpp"
#include "scenarios/stack_instance.hpp"
#include "sim/testbed.hpp"

namespace cherinet::scen {

class TwoStacks {
 public:
  /// Stack A (10.0.0.1) and stack B (10.0.0.2) share every setting: the
  /// wire's `phys`, the TCP and EAL configs and the output mode.
  explicit TwoStacks(sim::Testbed phys = sim::Testbed::unconstrained(),
                     fstack::TcpConfig tcp = fstack::TcpConfig{},
                     updk::EalConfig eal = updk::EalConfig{},
                     bool inline_tcp_output = true);

  [[nodiscard]] fstack::FfStack& a() { return a_->stack(); }
  [[nodiscard]] fstack::FfStack& b() { return b_->stack(); }
  [[nodiscard]] updk::Mempool& pool_a() { return a_->pool(); }
  [[nodiscard]] updk::Mempool& pool_b() { return b_->pool(); }
  [[nodiscard]] machine::CompartmentHeap& heap_a() { return *heap_a_; }
  [[nodiscard]] machine::CompartmentHeap& heap_b() { return *heap_b_; }
  [[nodiscard]] machine::AddressSpace& address_space() { return as_; }
  [[nodiscard]] sim::VirtualClock& clock() { return clock_; }
  [[nodiscard]] nic::Wire& wire() { return wire_; }
  /// The NIC device models (MAC-level stats: FCS rejects, filter drops).
  [[nodiscard]] nic::E82576Device& card_a() { return card_a_; }
  [[nodiscard]] nic::E82576Device& card_b() { return card_b_; }
  [[nodiscard]] fstack::Ipv4Addr ip_a() const {
    return fstack::Ipv4Addr::of(10, 0, 0, 1);
  }
  [[nodiscard]] fstack::Ipv4Addr ip_b() const {
    return fstack::Ipv4Addr::of(10, 0, 0, 2);
  }

  /// One main-loop iteration of A, then of B; true if either progressed.
  bool run_once();
  /// The earlier of the two stacks' next deadlines.
  [[nodiscard]] std::optional<sim::Ns> next_deadline() const;

  /// Step both stacks until `pred` holds (checked before every step); when
  /// neither progressed, advance virtual time to the earliest pending
  /// deadline. True if `pred` held.
  bool pump_until(const std::function<bool()>& pred, int max_iters = 200000);
  /// Step a fixed number of iterations (for negative tests).
  void pump(int iters);

 private:
  sim::VirtualClock clock_;
  machine::AddressSpace as_;
  nic::Wire wire_;
  nic::E82576Device card_a_;
  nic::E82576Device card_b_;
  std::unique_ptr<machine::CompartmentHeap> heap_a_;
  std::unique_ptr<machine::CompartmentHeap> heap_b_;
  std::unique_ptr<FullStackInstance> a_;
  std::unique_ptr<FullStackInstance> b_;
};

}  // namespace cherinet::scen
