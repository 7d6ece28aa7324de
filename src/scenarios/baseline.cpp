#include "scenarios/baseline.hpp"

namespace cherinet::scen {

namespace {
constexpr std::size_t kHeapBytes = 48u << 20;
}  // namespace

BaselineProcess::BaselineProcess(iv::Intravisor& host_os,
                                 nic::E82576Device& card, int port,
                                 const InstanceConfig& cfg,
                                 const std::string& name) {
  auto& as = host_os.address_space();
  heap_ = std::make_unique<machine::CompartmentHeap>(
      &as.mem(),
      as.carve(kHeapBytes, cheri::PermSet::data_rw(), name + "-heap"));
  inst_ = std::make_unique<FullStackInstance>(
      card, port, *heap_, *host_os.host().vclock(), cfg);
  ops_ = std::make_unique<apps::DirectFfOps>(&inst_->stack());
  // Direct-syscall musl (no trampoline): the Baseline difference.
  libc_ = std::make_unique<iv::MuslLibc>(&host_os.router(), &host_os.cost(),
                                         heap_->alloc_view(64));
}

}  // namespace cherinet::scen
