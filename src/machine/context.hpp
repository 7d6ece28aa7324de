// Per-thread compartment execution context.
//
// On Morello the executing compartment is defined by two special registers:
// DDC (Default Data Capability — bounds every non-capability data access)
// and PCC (Program Counter Capability — bounds fetch). The Intravisor
// configures one context per cVM; trampolines and sealed-pair domain
// transitions swap the current context exactly where the hardware would
// reload DDC/PCC.
#pragma once

#include <cstdint>
#include <string>

#include "cheri/capability.hpp"

namespace cherinet::machine {

struct CompartmentContext {
  std::string name = "host";
  int cvm_id = -1;  // -1 = Intravisor / host world
  cheri::Capability ddc;
  cheri::Capability pcc;
};

/// Thread-local current-context manager. Scope is the only mutator, so
/// context save/restore is exception-safe by construction (a capability
/// fault unwinding through a domain transition restores the caller context,
/// like an exception return restoring DDC/PCC).
class ExecutionContext {
 public:
  /// Current context; a default host context if none was entered.
  [[nodiscard]] static const CompartmentContext& current() noexcept;
  [[nodiscard]] static bool in_compartment() noexcept;

  class Scope {
   public:
    explicit Scope(const CompartmentContext& ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const CompartmentContext* saved_;
  };
};

}  // namespace cherinet::machine
