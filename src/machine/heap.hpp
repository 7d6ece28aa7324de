// First-fit free-list allocator inside a compartment's memory region.
//
// Each cVM receives one bounded region capability from the Intravisor; its
// heap hands out sub-capabilities exactly bounded to each allocation, so a
// buffer overflow inside a compartment is caught at the *allocation*
// granularity, not just the compartment granularity (CHERI's fine-grained
// protection). Allocation metadata lives host-side: on real CHERI it would
// be in-band but unreachable through client capabilities; keeping it out of
// band models the same unreachability without biasing the data-plane
// measurements.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cheri/capability.hpp"
#include "machine/cap_view.hpp"

namespace cherinet::machine {

class CompartmentHeap {
 public:
  /// `region` must be an unsealed RW capability; the heap allocates within
  /// [region.base, region.top).
  CompartmentHeap(cheri::TaggedMemory* mem, cheri::Capability region);

  /// Allocate `bytes` (16-byte aligned) and return a capability bounded to
  /// exactly the rounded allocation. Throws std::bad_alloc when exhausted.
  [[nodiscard]] cheri::Capability alloc(std::size_t bytes);

  /// Allocate and wrap in a CapView.
  [[nodiscard]] CapView alloc_view(std::size_t bytes) {
    return CapView(mem_, alloc(bytes));
  }

  /// Return an allocation. The capability must be one returned by alloc().
  void free(const cheri::Capability& cap);

  [[nodiscard]] std::uint64_t bytes_free() const;
  [[nodiscard]] std::uint64_t bytes_allocated() const;
  [[nodiscard]] const cheri::Capability& region() const noexcept {
    return region_;
  }

 private:
  cheri::TaggedMemory* mem_;
  cheri::Capability region_;
  std::map<std::uint64_t, std::uint64_t> free_;       // base -> size
  std::map<std::uint64_t, std::uint64_t> allocated_;  // base -> size
};

}  // namespace cherinet::machine
