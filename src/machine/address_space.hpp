// The single physical address space of the emulated Morello node.
//
// All compartments (cVMs), the Intravisor, DMA engines and shared regions
// live in one TaggedMemory; isolation comes exclusively from the
// capabilities each party holds (the CHERI model: no MMU in the loop).
// AddressSpace mints the root capability at "reset" and hands out carved,
// bounded regions; nothing else can create authority (provenance).
#pragma once

#include <cstdint>
#include <string_view>

#include "cheri/capability.hpp"
#include "cheri/tagged_memory.hpp"

namespace cherinet::machine {

class AddressSpace {
 public:
  explicit AddressSpace(std::size_t bytes);

  [[nodiscard]] cheri::TaggedMemory& mem() noexcept { return mem_; }
  [[nodiscard]] const cheri::TaggedMemory& mem() const noexcept {
    return mem_;
  }

  /// The almighty root data capability (Intravisor boot authority only).
  [[nodiscard]] const cheri::Capability& root() const noexcept {
    return root_;
  }

  /// The root sealing capability: its address range is the otype space from
  /// which the Intravisor allocates compartment object types.
  [[nodiscard]] const cheri::Capability& sealing_root() const noexcept {
    return seal_root_;
  }

  /// Carve a fresh, 16-byte aligned region and return a capability exactly
  /// bounded to it with `perms`. Bump allocation: regions never
  /// overlap, which is what gives compartments disjoint footprints.
  [[nodiscard]] cheri::Capability carve(std::size_t bytes,
                                        cheri::PermSet perms,
                                        std::string_view name);

 private:
  cheri::TaggedMemory mem_;
  cheri::Capability root_;
  cheri::Capability seal_root_;
  std::uint64_t brk_ = cheri::TaggedMemory::kGranule;  // keep 0 unmapped
};

}  // namespace cherinet::machine
