#include "machine/address_space.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cherinet::machine {

AddressSpace::AddressSpace(std::size_t bytes) : mem_(bytes) {
  root_ = cheri::CapabilityMinter::mint_root(0, mem_.size(),
                                             cheri::PermSet::all());
  // Sealing root spans the user otype space; its cursor selects the otype.
  seal_root_ = cheri::CapabilityMinter::mint_root(
      cheri::kOtypeFirstUser, cheri::kOtypeMax - cheri::kOtypeFirstUser,
      cheri::PermSet{cheri::Perm::kSeal} | cheri::Perm::kUnseal |
          cheri::Perm::kGlobal);
}

cheri::Capability AddressSpace::carve(std::size_t bytes,
                                      cheri::PermSet perms,
                                      std::string_view name) {
  // Pad to the compressed-bounds representable alignment so the region
  // capability is byte-exact and regions stay disjoint (see
  // cc::representable_alignment).
  const std::uint64_t align =
      std::max<std::uint64_t>(cheri::cc::representable_alignment(bytes),
                              cheri::TaggedMemory::kGranule);
  const std::size_t rounded = (bytes + align - 1) / align * align;
  const std::uint64_t base = (brk_ + align - 1) / align * align;
  if (base + rounded > mem_.size()) {
    throw std::runtime_error("AddressSpace: out of physical memory carving " +
                             std::string(name));
  }
  brk_ = base + rounded;
  return root_.with_bounds_exact(base, rounded).with_perms(perms);
}

}  // namespace cherinet::machine
