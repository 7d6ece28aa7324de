// Tagged physical memory.
//
// CHERI memory carries one validity tag per capability-sized granule
// (16 bytes for 128-bit capabilities). Capabilities can only be loaded and
// stored with their tag through capability-width accesses authorized by
// kLoadCap/kStoreCap; any data store overlapping a granule clears its tag —
// this is what makes capabilities unforgeable through memory.
//
// Every access is authorized by a Capability and goes through the full
// hardware check (tag, seal, permission, bounds); violations throw CapFault.
// The raw() view exists only for test fixtures and the console: all system
// components, including the NIC DMA engine, hold capabilities.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cheri/capability.hpp"

namespace cherinet::cheri {

class TaggedMemory {
 public:
  static constexpr std::size_t kGranule = 16;  // bytes per capability tag

  explicit TaggedMemory(std::size_t size_bytes);
  TaggedMemory(const TaggedMemory&) = delete;
  TaggedMemory& operator=(const TaggedMemory&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return mem_.size(); }

  // ---- checked data access ----

  /// Load `out.size()` bytes from `addr`, authorized by `auth`.
  void load(const Capability& auth, std::uint64_t addr,
            std::span<std::byte> out) const;

  /// Store `in.size()` bytes at `addr`; clears tags of touched granules.
  void store(const Capability& auth, std::uint64_t addr,
             std::span<const std::byte> in);

  /// Scalar convenience wrappers (trivially-copyable types only).
  template <typename T>
  [[nodiscard]] T load_scalar(const Capability& auth,
                              std::uint64_t addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    load(auth, addr, std::as_writable_bytes(std::span{&v, 1}));
    return v;
  }
  template <typename T>
  void store_scalar(const Capability& auth, std::uint64_t addr, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    store(auth, addr, std::as_bytes(std::span{&v, 1}));
  }

  // ---- checked capability access ----

  /// Capability load: 16-byte aligned; needs kLoadCap. Returns the stored
  /// capability, or an untagged one if the granule's tag was cleared.
  [[nodiscard]] Capability load_cap(const Capability& auth,
                                    std::uint64_t addr) const;

  /// Capability store: 16-byte aligned; needs kStoreCap (and kStoreLocalCap
  /// for non-global capabilities).
  void store_cap(const Capability& auth, std::uint64_t addr,
                 const Capability& value);

  // ---- checked atomic data access (LDXR/STXR-style word operations) ----
  // Used by compartment mutexes: the futex/umtx word lives in shared tagged
  // memory and is updated with real atomic RMW (4-byte aligned).

  /// Compare-and-swap; returns the previous value.
  std::uint32_t atomic_cas_u32(const Capability& auth, std::uint64_t addr,
                               std::uint32_t expected, std::uint32_t desired);
  /// Atomic exchange; returns the previous value.
  std::uint32_t atomic_exchange_u32(const Capability& auth,
                                    std::uint64_t addr, std::uint32_t value);
  [[nodiscard]] std::uint32_t atomic_load_u32(const Capability& auth,
                                              std::uint64_t addr) const;
  /// Atomic store with release ordering — publishes an event-ring index
  /// after its payload bytes (the STLR of an SPSC ring producer).
  void atomic_store_u32(const Capability& auth, std::uint64_t addr,
                        std::uint32_t value);

  /// Tag of the granule containing `addr` (diagnostics / tests).
  [[nodiscard]] bool tag_at(std::uint64_t addr) const;

  /// Unchecked raw view (test fixtures only; see file comment).
  [[nodiscard]] std::span<std::byte> raw() noexcept { return mem_; }
  [[nodiscard]] std::span<const std::byte> raw() const noexcept {
    return mem_;
  }

 private:
  void bounds_or_die(std::uint64_t addr, std::uint64_t size) const;
  void clear_tags(std::uint64_t addr, std::uint64_t size);

  std::vector<std::byte> mem_;
  // One byte per granule (distinct memory locations => data-race-free when
  // compartments touch disjoint regions, unlike vector<bool>).
  std::vector<std::uint8_t> tags_;
  // Shadow table holding the full capability value for tagged granules.
  std::unordered_map<std::uint64_t, Capability> cap_table_;
};

}  // namespace cherinet::cheri
