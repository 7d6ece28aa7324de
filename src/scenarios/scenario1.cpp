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
  // All of this cVM's host interaction trampolines through the Intravisor;
  // expose that crossing counter through the stack stats (Fig. 4 is the
  // per-ff_write share of exactly these crossings).
  inst_->stack().set_crossing_probe(
      [c = cvm_] { return c->trampoline().crossings(); });
}

}  // namespace cherinet::scen
