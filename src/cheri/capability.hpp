// The CHERI capability value type.
//
// A capability is an unforgeable, bounded, permission-carrying pointer:
// 64-bit cursor (address) + compressed bounds + permission mask + object
// type + the out-of-band validity tag. All mutators are *derivations* that
// obey the two architectural laws the paper relies on (§II-A):
//
//   provenance   — a valid capability can only be produced from another
//                  valid capability (only AddressSpace mints roots);
//   monotonicity — a derivation never gains bounds or permissions; widening
//                  attempts throw CapFault (the emulated trap).
//
// Sealing locks a capability to an object type so it can cross compartments
// without being dereferenced; the Intravisor uses sealed code/data pairs as
// cross-cVM entry tokens (Morello's `blrs` pattern).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cheri/concentrate.hpp"
#include "cheri/fault.hpp"
#include "cheri/permissions.hpp"

namespace cherinet::cheri {

/// Object types. 0 = unsealed, 1 = sentry (sealed entry, unsealed by
/// branch), >= kOtypeFirstUser = Intravisor-allocated compartment types.
inline constexpr std::uint32_t kOtypeUnsealed = 0;
inline constexpr std::uint32_t kOtypeSentry = 1;
inline constexpr std::uint32_t kOtypeFirstUser = 4;
inline constexpr std::uint32_t kOtypeMax = (1u << 18) - 1;

/// Access kinds used by checked loads/stores (TaggedMemory, DMA, trampoline
/// argument validation).
enum class Access : std::uint8_t {
  kLoad,
  kStore,
  kLoadCap,
  kStoreCap,
  kExecute,
};

class Capability {
 public:
  /// Null capability: untagged, zero everything. Dereference faults.
  Capability() = default;

  // ------------------------------------------------------------------
  // Observers
  // ------------------------------------------------------------------
  [[nodiscard]] bool tag() const noexcept { return tag_; }
  [[nodiscard]] std::uint64_t address() const noexcept { return addr_; }
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  /// Exclusive upper bound; may be exactly 2^64 (root capability).
  [[nodiscard]] cc::U128 top() const noexcept { return top_; }
  [[nodiscard]] cc::U128 length() const noexcept { return top_ - base_; }
  /// Offset of the cursor from base (CGetOffset).
  [[nodiscard]] std::uint64_t offset() const noexcept { return addr_ - base_; }
  [[nodiscard]] PermSet perms() const noexcept { return perms_; }
  [[nodiscard]] std::uint32_t otype() const noexcept { return otype_; }
  [[nodiscard]] bool is_sealed() const noexcept {
    return otype_ != kOtypeUnsealed;
  }
  [[nodiscard]] bool is_sentry() const noexcept {
    return otype_ == kOtypeSentry;
  }
  [[nodiscard]] const cc::Encoding& encoding() const noexcept { return enc_; }

  /// True iff a `size`-byte access at `addr` lies inside [base, top).
  [[nodiscard]] bool in_bounds(std::uint64_t addr,
                               std::uint64_t size) const noexcept {
    return addr >= base_ && cc::U128{addr} + size <= top_;
  }

  // ------------------------------------------------------------------
  // Derivations (monotonic; throw CapFault on violation)
  // ------------------------------------------------------------------

  /// CSetAddr: move the cursor. Out-of-bounds cursors are legal; if the new
  /// cursor is not *representable* under the compressed encoding the tag is
  /// cleared (exactly the architectural behaviour).
  [[nodiscard]] Capability with_address(std::uint64_t a) const;

  /// Pointer arithmetic (CIncOffset).
  [[nodiscard]] Capability add(std::int64_t delta) const {
    return with_address(addr_ + static_cast<std::uint64_t>(delta));
  }

  /// CSetBounds: narrow to [new_base, new_base+len). Faults with
  /// kMonotonicityViolation if the request exceeds current bounds; the
  /// result may be slightly wider than requested due to compression (but
  /// never wider than *this* allows... compression rounding is checked).
  [[nodiscard]] Capability with_bounds(std::uint64_t new_base,
                                       std::uint64_t len) const;

  /// CSetBoundsExact: like with_bounds but faults with
  /// kRepresentabilityViolation if compression would round.
  [[nodiscard]] Capability with_bounds_exact(std::uint64_t new_base,
                                             std::uint64_t len) const;

  /// CAndPerm: intersect permissions.
  [[nodiscard]] Capability with_perms(PermSet keep) const;

  /// CSeal: seal with `sealer` (needs kSeal; sealer.address() is the otype).
  [[nodiscard]] Capability seal_with(const Capability& sealer) const;

  /// CUnseal: unseal with `unsealer` (needs kUnseal, address == otype).
  [[nodiscard]] Capability unseal_with(const Capability& unsealer) const;

  /// CSealEntry: make a sentry (sealed entry capability).
  [[nodiscard]] Capability make_sentry() const;

  /// Copy with the tag cleared (what a data overwrite does to a cap in
  /// memory, or a forged pointer cast to a capability).
  [[nodiscard]] Capability cleared() const noexcept {
    Capability c = *this;
    c.tag_ = false;
    return c;
  }

  // ------------------------------------------------------------------
  // Checks
  // ------------------------------------------------------------------

  /// The per-access hardware check: tag, seal, permission, bounds, in that
  /// order. fault() names the first violation (nullopt: the access is
  /// allowed); check() throws it as a CapFault.
  [[nodiscard]] std::optional<FaultKind> fault(Access kind,
                                               std::uint64_t addr,
                                               std::uint64_t size) const
      noexcept;
  void check(Access kind, std::uint64_t addr, std::uint64_t size) const;

  /// Check an access at the cursor.
  void check_cursor(Access kind, std::uint64_t size) const {
    check(kind, addr_, size);
  }

  [[nodiscard]] std::string to_string() const;

  bool operator==(const Capability&) const = default;

 private:
  friend class CapabilityMinter;

  std::uint64_t addr_ = 0;
  std::uint64_t base_ = 0;
  cc::U128 top_ = 0;
  cc::Encoding enc_{};
  PermSet perms_{};
  std::uint32_t otype_ = kOtypeUnsealed;
  bool tag_ = false;

  void require_unsealed_tagged(const char* op) const;
};

/// The only way to mint a root capability. AddressSpace owns one minter;
/// everything else must derive (provenance).
class CapabilityMinter {
 public:
  [[nodiscard]] static Capability mint_root(std::uint64_t base,
                                            cc::U128 length, PermSet perms);
};

}  // namespace cherinet::cheri
