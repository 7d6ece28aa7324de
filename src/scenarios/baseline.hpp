// Baseline endpoint: a non-CHERI process (paper §III-A "Baseline").
//
// The whole stack — iperf3 + F-Stack + DPDK — runs as an ordinary process
// on the host OS: no Intravisor in the syscall path (direct `svc`), no
// compartment DDC (the context carries the almighty root capability, so
// every check passes exactly as an MMU process would experience), and
// MMU-style isolation between processes is modeled by construction: each
// process owns a disjoint heap region.
#pragma once

#include <memory>

#include "apps/ff_ops.hpp"
#include "intravisor/intravisor.hpp"
#include "scenarios/stack_instance.hpp"

namespace cherinet::scen {

class BaselineProcess {
 public:
  BaselineProcess(iv::Intravisor& host_os, nic::E82576Device& card, int port,
                  const InstanceConfig& cfg, const std::string& name);

  [[nodiscard]] FullStackInstance& instance() noexcept { return *inst_; }
  [[nodiscard]] apps::FfOps& ops() noexcept { return *ops_; }
  [[nodiscard]] iv::MuslLibc& libc() noexcept { return *libc_; }
  [[nodiscard]] machine::CompartmentHeap& heap() noexcept { return *heap_; }
  [[nodiscard]] machine::CapView alloc(std::size_t n) {
    return heap_->alloc_view(n);
  }

 private:
  std::unique_ptr<machine::CompartmentHeap> heap_;
  std::unique_ptr<FullStackInstance> inst_;
  std::unique_ptr<apps::DirectFfOps> ops_;
  std::unique_ptr<iv::MuslLibc> libc_;
};

}  // namespace cherinet::scen
