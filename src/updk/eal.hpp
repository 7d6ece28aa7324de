// Environment Abstraction Layer: user-space takeover of the NIC.
//
// DPDK detaches the NIC from the kernel with a small kernel module and
// rebinds it to user space (paper §II-C); the paper's Morello port had to
// implement exactly this attach path with correctly-permissioned memory
// (§III-B "DPDK"). Our EAL performs the equivalent ceremony against the
// device model: carve the driver's memory from the compartment heap, grant
// the DMA engine a capability restricted to that memory (never the whole
// compartment), create the mempool, and bring the port up through the PMD.
#pragma once

#include <memory>
#include <string>

#include "machine/heap.hpp"
#include "nic/e82576.hpp"
#include "updk/pmd_e82576.hpp"

namespace cherinet::updk {

struct PortResources {
  std::unique_ptr<Mempool> pool;
  std::unique_ptr<EthDev> dev;
};

struct EalConfig {
  std::uint32_t n_mbufs = 2048;
  EthConf eth{};
};

class Eal {
 public:
  /// Detach `port` of `card` from the (conceptual) kernel and attach it to
  /// the compartment owning `heap`. The DMA grant covers the heap region —
  /// descriptor rings and the mbuf arena — with data RW permissions only.
  [[nodiscard]] static PortResources attach_port(
      nic::E82576Device& card, int port, machine::CompartmentHeap& heap,
      sim::VirtualClock& clock, const EalConfig& cfg = EalConfig{},
      const std::string& name = "eth");

  /// Multi-queue attach: bring up ONE queue pair of `port` for a stack
  /// shard. The first caller sizes the port to `queue_count` queues
  /// (resetting ring state — attach every shard before any traffic);
  /// later callers with the same count leave sibling queues alone. Each
  /// shard gets its own mempool; the DMA grant covers the shared heap.
  [[nodiscard]] static PortResources attach_port_queue(
      nic::E82576Device& card, int port, std::uint32_t queue,
      std::uint32_t queue_count, machine::CompartmentHeap& heap,
      sim::VirtualClock& clock, const EalConfig& cfg = EalConfig{},
      const std::string& name = "eth");
};

}  // namespace cherinet::updk
