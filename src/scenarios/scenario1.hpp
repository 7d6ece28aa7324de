// Scenario 1: replication of the entire stack into a cVM (paper Fig. 1).
//
// Each compartment contains one network application (iperf3), the F-Stack
// TCP/IP library and the DPDK user-space layer, owns one Ethernet port, and
// is linked against the trampoline-mode musl — the only host interaction is
// through the Intravisor proxy. A breach in one cVM cannot reach its
// sibling: all of its authority is its heap DDC and the port's DMA grant.
#pragma once

#include <memory>

#include "apps/ff_ops.hpp"
#include "intravisor/intravisor.hpp"
#include "scenarios/stack_instance.hpp"

namespace cherinet::scen {

class Scenario1Cvm {
 public:
  Scenario1Cvm(iv::Intravisor& iv, nic::E82576Device& card, int port,
               const InstanceConfig& cfg, const std::string& name);

  [[nodiscard]] iv::CVM& cvm() noexcept { return *cvm_; }
  [[nodiscard]] FullStackInstance& instance() noexcept { return *inst_; }
  [[nodiscard]] apps::FfOps& ops() noexcept { return *ops_; }
  [[nodiscard]] iv::MuslLibc& libc() noexcept { return cvm_->libc(); }
  [[nodiscard]] machine::CapView alloc(std::size_t n) {
    return cvm_->heap().alloc_view(n);
  }

 private:
  iv::CVM* cvm_;
  std::unique_ptr<FullStackInstance> inst_;
  std::unique_ptr<apps::DirectFfOps> ops_;
};

}  // namespace cherinet::scen
