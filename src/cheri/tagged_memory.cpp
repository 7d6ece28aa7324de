#include "cheri/tagged_memory.hpp"

#include <atomic>
#include <stdexcept>

namespace cherinet::cheri {

TaggedMemory::TaggedMemory(std::size_t size_bytes) {
  const std::size_t rounded =
      (size_bytes + kGranule - 1) / kGranule * kGranule;
  mem_.resize(rounded);
  tags_.resize(rounded / kGranule, 0);
}

void TaggedMemory::bounds_or_die(std::uint64_t addr,
                                 std::uint64_t size) const {
  if (addr > mem_.size() || size > mem_.size() - addr) {
    // A capability authorized this access yet physical memory is smaller:
    // that is a testbed-configuration bug, not an emulated fault.
    throw std::out_of_range("TaggedMemory: access beyond physical memory");
  }
}

void TaggedMemory::clear_tags(std::uint64_t addr, std::uint64_t size) {
  if (size == 0) return;
  const std::uint64_t first = addr / kGranule;
  const std::uint64_t last = (addr + size - 1) / kGranule;
  bool any = false;
  for (std::uint64_t g = first; g <= last; ++g) {
    if (tags_[g] != 0) {
      tags_[g] = 0;
      any = true;
    }
  }
  if (any) {
    for (std::uint64_t g = first; g <= last; ++g) cap_table_.erase(g);
  }
}

void TaggedMemory::load(const Capability& auth, std::uint64_t addr,
                        std::span<std::byte> out) const {
  if (out.empty()) return;  // a 0-byte span may carry a null data pointer
  auth.check(Access::kLoad, addr, out.size());
  bounds_or_die(addr, out.size());
  std::memcpy(out.data(), mem_.data() + addr, out.size());
}

void TaggedMemory::store(const Capability& auth, std::uint64_t addr,
                         std::span<const std::byte> in) {
  if (in.empty()) return;  // a 0-byte span may carry a null data pointer
  auth.check(Access::kStore, addr, in.size());
  bounds_or_die(addr, in.size());
  clear_tags(addr, in.size());
  std::memcpy(mem_.data() + addr, in.data(), in.size());
}

Capability TaggedMemory::load_cap(const Capability& auth,
                                  std::uint64_t addr) const {
  if (addr % kGranule != 0) {
    throw CapFault(FaultKind::kUnalignedAccess, addr, kGranule,
                   auth.to_string(), "capability load");
  }
  auth.check(Access::kLoadCap, addr, kGranule);
  bounds_or_die(addr, kGranule);
  const std::uint64_t g = addr / kGranule;
  if (tags_[g] == 0) {
    // Untagged granule: reconstruct the raw bytes as an invalid capability
    // whose cursor is whatever the memory holds (architecturally exact:
    // the load succeeds, the tag is simply clear).
    std::uint64_t cursor = 0;
    std::memcpy(&cursor, mem_.data() + addr, sizeof(cursor));
    Capability c;
    return c.with_address(cursor).cleared();
  }
  const auto it = cap_table_.find(g);
  return it != cap_table_.end() ? it->second : Capability{};
}

void TaggedMemory::store_cap(const Capability& auth, std::uint64_t addr,
                             const Capability& value) {
  if (addr % kGranule != 0) {
    throw CapFault(FaultKind::kUnalignedAccess, addr, kGranule,
                   auth.to_string(), "capability store");
  }
  auth.check(Access::kStoreCap, addr, kGranule);
  if (value.tag() && !value.perms().has(Perm::kGlobal) &&
      !auth.perms().has(Perm::kStoreLocalCap)) {
    throw CapFault(FaultKind::kPermitStoreCapViolation, addr, kGranule,
                   auth.to_string(), "storing local capability");
  }
  bounds_or_die(addr, kGranule);
  // The in-memory representation keeps the cursor in the first 8 bytes so
  // data loads of a capability read a plausible pointer value.
  const std::uint64_t cursor = value.address();
  std::memcpy(mem_.data() + addr, &cursor, sizeof(cursor));
  const std::uint64_t g = addr / kGranule;
  tags_[g] = value.tag() ? 1 : 0;
  if (value.tag()) {
    cap_table_[g] = value;
  } else {
    cap_table_.erase(g);
  }
}

namespace {
std::uint32_t* aligned_word(std::byte* base, std::uint64_t addr) {
  if (addr % sizeof(std::uint32_t) != 0) {
    throw CapFault(FaultKind::kUnalignedAccess, addr, sizeof(std::uint32_t),
                   "atomic access", "word not 4-byte aligned");
  }
  return reinterpret_cast<std::uint32_t*>(base + addr);
}
}  // namespace

std::uint32_t TaggedMemory::atomic_cas_u32(const Capability& auth,
                                           std::uint64_t addr,
                                           std::uint32_t expected,
                                           std::uint32_t desired) {
  auth.check(Access::kLoad, addr, sizeof(std::uint32_t));
  auth.check(Access::kStore, addr, sizeof(std::uint32_t));
  bounds_or_die(addr, sizeof(std::uint32_t));
  clear_tags(addr, sizeof(std::uint32_t));
  std::atomic_ref<std::uint32_t> word(*aligned_word(mem_.data(), addr));
  std::uint32_t exp = expected;
  word.compare_exchange_strong(exp, desired, std::memory_order_acq_rel,
                               std::memory_order_acquire);
  return exp;  // previous value (== expected on success)
}

std::uint32_t TaggedMemory::atomic_exchange_u32(const Capability& auth,
                                                std::uint64_t addr,
                                                std::uint32_t value) {
  auth.check(Access::kLoad, addr, sizeof(std::uint32_t));
  auth.check(Access::kStore, addr, sizeof(std::uint32_t));
  bounds_or_die(addr, sizeof(std::uint32_t));
  clear_tags(addr, sizeof(std::uint32_t));
  std::atomic_ref<std::uint32_t> word(*aligned_word(mem_.data(), addr));
  return word.exchange(value, std::memory_order_acq_rel);
}

std::uint32_t TaggedMemory::atomic_load_u32(const Capability& auth,
                                            std::uint64_t addr) const {
  auth.check(Access::kLoad, addr, sizeof(std::uint32_t));
  bounds_or_die(addr, sizeof(std::uint32_t));
  std::atomic_ref<const std::uint32_t> word(*aligned_word(
      const_cast<std::byte*>(mem_.data()), addr));
  return word.load(std::memory_order_acquire);
}

void TaggedMemory::atomic_store_u32(const Capability& auth,
                                    std::uint64_t addr, std::uint32_t value) {
  auth.check(Access::kStore, addr, sizeof(std::uint32_t));
  bounds_or_die(addr, sizeof(std::uint32_t));
  clear_tags(addr, sizeof(std::uint32_t));
  std::atomic_ref<std::uint32_t> word(*aligned_word(mem_.data(), addr));
  word.store(value, std::memory_order_release);
}

bool TaggedMemory::tag_at(std::uint64_t addr) const {
  if (addr >= mem_.size()) return false;
  return tags_[addr / kGranule] != 0;
}

}  // namespace cherinet::cheri
