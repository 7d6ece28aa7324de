#include "machine/domain.hpp"

#include <stdexcept>

namespace cherinet::machine {

namespace {
constexpr std::size_t kMaxEntries = 256;
constexpr std::size_t kDescSize = cheri::TaggedMemory::kGranule;
}  // namespace

EntryRegistry::EntryRegistry(AddressSpace& as, const sim::CostModel* cost)
    : as_(as), cost_(cost) {
  // The descriptor table is the "code" the sentries point into.
  table_author_ = as_.carve(kMaxEntries * kDescSize,
                            cheri::PermSet::data_rw(), "entry-descriptors");
  code_region_ = as_.root()
                     .with_bounds(table_author_.base(),
                                  static_cast<std::uint64_t>(
                                      table_author_.length()))
                     .with_perms(cheri::PermSet::code());
}

SealedEntry EntryRegistry::install(std::string name,
                                   const CompartmentContext* target,
                                   CrossFn fn) {
  if (entries_.size() >= kMaxEntries) {
    throw std::runtime_error("EntryRegistry: descriptor table full");
  }
  const auto id = static_cast<std::uint32_t>(entries_.size());
  const std::uint32_t otype = next_otype_++;
  const std::uint64_t desc_addr = table_author_.base() + id * kDescSize;
  // The descriptor in memory records the entry id; the sentry's cursor is
  // the descriptor address, exactly like a function pointer into a stub.
  as_.mem().store_scalar<std::uint32_t>(table_author_, desc_addr, id);

  const cheri::Capability sealer =
      as_.sealing_root().with_address(otype);
  SealedEntry pair;
  pair.code = code_region_.with_address(desc_addr)
                  .with_perms(cheri::PermSet::code())
                  .seal_with(sealer);
  pair.data = target != nullptr && target->ddc.tag()
                  ? target->ddc.seal_with(sealer)
                  : as_.root().with_perms(cheri::PermSet::data_ro())
                        .seal_with(sealer);
  entries_.push_back(Entry{std::move(name), target, std::move(fn), otype});
  return pair;
}

std::uint64_t EntryRegistry::invoke(const SealedEntry& entry,
                                    CrossCallArgs& args) {
  using cheri::CapFault;
  using cheri::FaultKind;
  const cheri::Capability& code = entry.code;
  const cheri::Capability& data = entry.data;
  if (!code.tag() || !data.tag()) {
    throw CapFault(FaultKind::kTagViolation, code.address(), 0,
                   code.to_string(), "blrs: untagged sealed pair");
  }
  if (!code.is_sealed() || !data.is_sealed()) {
    throw CapFault(FaultKind::kSealViolation, code.address(), 0,
                   code.to_string(), "blrs: operands must be sealed");
  }
  if (code.otype() != data.otype()) {
    throw CapFault(FaultKind::kOtypeViolation, code.address(), 0,
                   code.to_string(), "blrs: otype mismatch between pair");
  }
  if (!code.perms().has(cheri::Perm::kExecute)) {
    throw CapFault(FaultKind::kPermitExecuteViolation, code.address(), 0,
                   code.to_string(), "blrs: code capability not executable");
  }
  if (!code.in_bounds(code.address(), sizeof(std::uint32_t))) {
    throw CapFault(FaultKind::kBoundsViolation, code.address(), 4,
                   code.to_string(), "blrs: descriptor out of bounds");
  }
  // Capability arguments must be valid, unsealed and global to cross. One
  // sweep covers the scalar pair and the vector registers — the whole
  // argument file is validated before the callee runs (atomic at the gate,
  // and allocation-free: this is the modeled ~200 ns hot path).
  const auto check_cap_arg = [](const std::optional<CapView>& cv) {
    if (!cv.has_value()) return;
    const cheri::Capability& c = cv->cap();
    if (!c.tag()) {
      throw CapFault(FaultKind::kTagViolation, c.address(), 0, c.to_string(),
                     "cross-call capability argument");
    }
    if (c.is_sealed()) {
      throw CapFault(FaultKind::kSealViolation, c.address(), 0, c.to_string(),
                     "cross-call capability argument");
    }
    if (!c.perms().has(cheri::Perm::kGlobal)) {
      throw CapFault(FaultKind::kPermitStoreCapViolation, c.address(), 0,
                     c.to_string(), "cross-call argument is compartment-local");
    }
  };
  check_cap_arg(args.cap0);
  check_cap_arg(args.cap1);
  for (const auto& cv : args.caps) check_cap_arg(cv);

  // Implicit unseal by the branch: read the descriptor through the unsealed
  // code view to find the target entry.
  const cheri::Capability sealer =
      as_.sealing_root().with_address(code.otype());
  const cheri::Capability code_unsealed = code.unseal_with(sealer);
  const auto id = as_.mem().load_scalar<std::uint32_t>(
      code_unsealed.with_perms(cheri::PermSet::code() |
                               cheri::PermSet{cheri::Perm::kLoad}),
      code_unsealed.address());

  if (id >= entries_.size() || entries_[id].otype != code.otype()) {
    throw CapFault(FaultKind::kOtypeViolation, code.address(), 0,
                   code.to_string(), "blrs: descriptor/otype mismatch");
  }
  const Entry* e = &entries_[id];
  ++crossings_;
  if (cost_ != nullptr) cost_->charge(cost_->domain_switch_extra);
  if (e->target != nullptr) {
    ExecutionContext::Scope scope(*e->target);
    return e->fn(args);
  }
  return e->fn(args);
}

}  // namespace cherinet::machine
