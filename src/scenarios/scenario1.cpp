#include "scenarios/scenario1.hpp"

namespace cherinet::scen {

namespace {
constexpr std::size_t kHeapBytes = 48u << 20;
}  // namespace

Scenario1Cvm::Scenario1Cvm(iv::Intravisor& iv, nic::E82576Device& card,
                           int port, const InstanceConfig& cfg,
                           const std::string& name) {
  cvm_ = &iv.create_cvm(name, kHeapBytes);
  inst_ = std::make_unique<FullStackInstance>(
      card, port, cvm_->heap(), *iv.host().vclock(), cfg);
  ops_ = std::make_unique<apps::DirectFfOps>(&inst_->stack());
}

}  // namespace cherinet::scen
