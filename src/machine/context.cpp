#include "machine/context.hpp"

namespace cherinet::machine {

namespace {
const CompartmentContext& host_context() {
  static const CompartmentContext ctx{};  // "host": no DDC restriction
  return ctx;
}
thread_local const CompartmentContext* tls_current = nullptr;
}  // namespace

const CompartmentContext& ExecutionContext::current() noexcept {
  return tls_current != nullptr ? *tls_current : host_context();
}

bool ExecutionContext::in_compartment() noexcept {
  return tls_current != nullptr && tls_current->cvm_id >= 0;
}

ExecutionContext::Scope::Scope(const CompartmentContext& ctx)
    : saved_(tls_current) {
  tls_current = &ctx;
}

ExecutionContext::Scope::~Scope() { tls_current = saved_; }

}  // namespace cherinet::machine
