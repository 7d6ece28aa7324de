// Sealed-pair cross-compartment transitions (Morello `blrs` emulation).
//
// The Intravisor installs an *entry* per exported function: a sentry-style
// sealed code capability whose cursor points at a descriptor in tagged
// memory, paired with the target compartment's sealed context capability.
// A caller holding the pair can transition into the callee — and only
// through this gate: the pair is sealed with a compartment-specific otype,
// so it cannot be dereferenced, modified, or re-targeted (CHERI "robust
// compartmentalization" via sealing, paper §II-A).
//
// invoke() performs exactly the architectural steps: validate both halves,
// match otypes, implicitly unseal, reload DDC/PCC (ExecutionContext::Scope),
// and branch; unwinding restores the caller context even on a capability
// fault in the callee.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cheri/capability.hpp"
#include "machine/address_space.hpp"
#include "machine/cap_view.hpp"
#include "machine/context.hpp"
#include "sim/cost_model.hpp"

namespace cherinet::machine {

/// Register-file image carried across a domain call: six integer arguments
/// plus up to two capability arguments (the hybrid-ABI argument classes the
/// paper's modified ff_* API uses).
struct CrossCallArgs {
  /// Vector-capability argument registers available to one crossing (the
  /// c2..c9 analogues of the hybrid ABI). The batched ff_* proxies move up
  /// to this many exactly-bounded iovec views per sealed-entry invocation;
  /// larger batches chunk into ceil(n / kMaxVecCaps) crossings.
  static constexpr std::size_t kMaxVecCaps = 8;

  std::uint64_t a[6] = {0, 0, 0, 0, 0, 0};
  std::optional<CapView> cap0;
  std::optional<CapView> cap1;
  std::array<std::optional<CapView>, kMaxVecCaps> caps;
};

using CrossFn = std::function<std::uint64_t(CrossCallArgs&)>;

/// The sealed code/data pair handed to callers.
struct SealedEntry {
  cheri::Capability code;  // sealed, executable, cursor = descriptor address
  cheri::Capability data;  // sealed callee context token
};

class EntryRegistry {
 public:
  /// `cost` may be null (no calibrated crossing cost).
  EntryRegistry(AddressSpace& as, const sim::CostModel* cost);

  /// Export `fn` as an entry into `target` (the callee's context, owned by
  /// its cVM and outliving the registry's use).
  [[nodiscard]] SealedEntry install(std::string name,
                                    const CompartmentContext* target,
                                    CrossFn fn);

  /// Branch to a sealed pair. Throws CapFault on any validation failure.
  std::uint64_t invoke(const SealedEntry& entry, CrossCallArgs& args);

  [[nodiscard]] std::uint64_t crossings() const noexcept { return crossings_; }

 private:
  struct Entry {
    std::string name;
    const CompartmentContext* target;
    CrossFn fn;
    std::uint32_t otype;
  };

  AddressSpace& as_;
  const sim::CostModel* cost_;
  cheri::Capability code_region_;   // executable region holding descriptors
  cheri::Capability table_author_;  // RW view for writing descriptors
  std::vector<Entry> entries_;
  std::uint64_t crossings_ = 0;
  std::uint32_t next_otype_ = cheri::kOtypeFirstUser;
};

}  // namespace cherinet::machine
