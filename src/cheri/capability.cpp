#include "cheri/capability.hpp"

#include <sstream>

namespace cherinet::cheri {

namespace {
std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}
std::string hex128(cc::U128 v) {
  // Tops are at most 2^64, so print the low 64 bits plus an overflow marker.
  if (v == (cc::U128{1} << 64)) return "0x10000000000000000";
  return hex(static_cast<std::uint64_t>(v));
}
}  // namespace

void Capability::require_unsealed_tagged(const char* op) const {
  if (!tag_) {
    throw CapFault(FaultKind::kTagViolation, addr_, 0, to_string(), op);
  }
  if (is_sealed()) {
    throw CapFault(FaultKind::kSealViolation, addr_, 0, to_string(), op);
  }
}

Capability Capability::with_address(std::uint64_t a) const {
  Capability c = *this;
  c.addr_ = a;
  if (tag_ && is_sealed()) {
    // Mutating a sealed capability's cursor invalidates it (CSetAddr on a
    // sealed cap clears the tag rather than trapping).
    c.tag_ = false;
    return c;
  }
  if (tag_ && !cc::is_representable(enc_, addr_, a)) {
    c.tag_ = false;  // architectural behaviour: unrepresentable => untag
  }
  return c;
}

Capability Capability::with_bounds(std::uint64_t new_base,
                                   std::uint64_t len) const {
  require_unsealed_tagged("CSetBounds");
  const cc::U128 new_top = cc::U128{new_base} + len;
  if (new_base < base_ || new_top > top_) {
    throw CapFault(FaultKind::kMonotonicityViolation, new_base, len,
                   to_string(), "CSetBounds requested wider bounds");
  }
  const auto encoded = cc::encode(new_base, new_top);
  if (!encoded) {
    throw CapFault(FaultKind::kRepresentabilityViolation, new_base, len,
                   to_string(), "CSetBounds: bounds not encodable");
  }
  // Compression may round outwards, but never beyond the authorizing
  // capability: re-narrow is impossible in hardware, so fault instead.
  if (encoded->bounds.base < base_ || encoded->bounds.top > top_) {
    throw CapFault(FaultKind::kMonotonicityViolation, new_base, len,
                   to_string(),
                   "CSetBounds: rounded bounds exceed authorizing capability");
  }
  Capability c = *this;
  c.addr_ = new_base;
  c.base_ = encoded->bounds.base;
  c.top_ = encoded->bounds.top;
  c.enc_ = encoded->enc;
  return c;
}

Capability Capability::with_bounds_exact(std::uint64_t new_base,
                                         std::uint64_t len) const {
  require_unsealed_tagged("CSetBoundsExact");
  const cc::U128 new_top = cc::U128{new_base} + len;
  if (new_base < base_ || new_top > top_) {
    throw CapFault(FaultKind::kMonotonicityViolation, new_base, len,
                   to_string(), "CSetBoundsExact requested wider bounds");
  }
  const auto encoded = cc::encode(new_base, new_top);
  if (!encoded || !encoded->exact) {
    throw CapFault(FaultKind::kRepresentabilityViolation, new_base, len,
                   to_string(), "CSetBoundsExact: bounds require rounding");
  }
  Capability c = *this;
  c.addr_ = new_base;
  c.base_ = encoded->bounds.base;
  c.top_ = encoded->bounds.top;
  c.enc_ = encoded->enc;
  return c;
}

Capability Capability::with_perms(PermSet keep) const {
  require_unsealed_tagged("CAndPerm");
  Capability c = *this;
  c.perms_ = perms_ & keep;  // intersection: monotone by construction
  return c;
}

Capability Capability::seal_with(const Capability& sealer) const {
  require_unsealed_tagged("CSeal (target)");
  if (!sealer.tag()) {
    throw CapFault(FaultKind::kTagViolation, sealer.address(), 0,
                   sealer.to_string(), "CSeal: untagged sealer");
  }
  if (sealer.is_sealed()) {
    throw CapFault(FaultKind::kSealViolation, sealer.address(), 0,
                   sealer.to_string(), "CSeal: sealer is sealed");
  }
  if (!sealer.perms().has(Perm::kSeal)) {
    throw CapFault(FaultKind::kPermitSealViolation, sealer.address(), 0,
                   sealer.to_string(), "CSeal: sealer lacks kSeal");
  }
  const std::uint64_t ot = sealer.address();
  if (ot < kOtypeFirstUser || ot > kOtypeMax ||
      !sealer.in_bounds(sealer.address(), 1)) {
    throw CapFault(FaultKind::kOtypeViolation, sealer.address(), 0,
                   sealer.to_string(), "CSeal: otype out of sealer bounds");
  }
  Capability c = *this;
  c.otype_ = static_cast<std::uint32_t>(ot);
  return c;
}

Capability Capability::unseal_with(const Capability& unsealer) const {
  if (!tag_) {
    throw CapFault(FaultKind::kTagViolation, addr_, 0, to_string(),
                   "CUnseal: untagged target");
  }
  if (!is_sealed() || otype_ == kOtypeSentry) {
    throw CapFault(FaultKind::kSealViolation, addr_, 0, to_string(),
                   "CUnseal: target not unsealable");
  }
  if (!unsealer.tag()) {
    throw CapFault(FaultKind::kTagViolation, unsealer.address(), 0,
                   unsealer.to_string(), "CUnseal: untagged unsealer");
  }
  if (unsealer.is_sealed()) {
    throw CapFault(FaultKind::kSealViolation, unsealer.address(), 0,
                   unsealer.to_string(), "CUnseal: unsealer is sealed");
  }
  if (!unsealer.perms().has(Perm::kUnseal)) {
    throw CapFault(FaultKind::kPermitSealViolation, unsealer.address(), 0,
                   unsealer.to_string(), "CUnseal: unsealer lacks kUnseal");
  }
  if (unsealer.address() != otype_ ||
      !unsealer.in_bounds(unsealer.address(), 1)) {
    throw CapFault(FaultKind::kOtypeViolation, unsealer.address(), 0,
                   unsealer.to_string(), "CUnseal: otype mismatch");
  }
  Capability c = *this;
  c.otype_ = kOtypeUnsealed;
  return c;
}

Capability Capability::make_sentry() const {
  require_unsealed_tagged("CSealEntry");
  if (!perms_.has(Perm::kExecute)) {
    throw CapFault(FaultKind::kPermitExecuteViolation, addr_, 0, to_string(),
                   "CSealEntry: target not executable");
  }
  Capability c = *this;
  c.otype_ = kOtypeSentry;
  return c;
}

std::optional<FaultKind> Capability::fault(Access kind, std::uint64_t addr,
                                           std::uint64_t size) const noexcept {
  // Indexed by Access: the permission each access kind needs, and the fault
  // its absence raises.
  static constexpr struct {
    Perm perm;
    FaultKind fault;
  } kNeed[] = {
      {Perm::kLoad, FaultKind::kPermitLoadViolation},
      {Perm::kStore, FaultKind::kPermitStoreViolation},
      {Perm::kLoadCap, FaultKind::kPermitLoadCapViolation},
      {Perm::kStoreCap, FaultKind::kPermitStoreCapViolation},
      {Perm::kExecute, FaultKind::kPermitExecuteViolation},
  };
  if (!tag_) return FaultKind::kTagViolation;
  if (is_sealed()) return FaultKind::kSealViolation;
  const auto& need = kNeed[static_cast<std::size_t>(kind)];
  if (!perms_.has(need.perm)) return need.fault;
  if (!in_bounds(addr, size)) return FaultKind::kBoundsViolation;
  return std::nullopt;
}

void Capability::check(Access kind, std::uint64_t addr,
                       std::uint64_t size) const {
  if (const auto k = fault(kind, addr, size)) {
    throw CapFault(*k, addr, size, to_string());
  }
}

std::string Capability::to_string() const {
  std::ostringstream os;
  os << "cap{" << (tag_ ? "tagged" : "UNTAGGED") << " addr=" << hex(addr_)
     << " bounds=[" << hex(base_) << "," << hex128(top_) << ")"
     << " perms=" << perms_.to_string();
  if (is_sealed()) {
    os << " sealed:otype=" << otype_;
  }
  os << "}";
  return os.str();
}

std::string PermSet::to_string() const {
  std::string s;
  const auto add = [&](Perm p, char c) {
    if (has(p)) s.push_back(c);
  };
  add(Perm::kGlobal, 'G');
  add(Perm::kExecute, 'X');
  add(Perm::kLoad, 'R');
  add(Perm::kStore, 'W');
  add(Perm::kLoadCap, 'r');
  add(Perm::kStoreCap, 'w');
  add(Perm::kStoreLocalCap, 'l');
  add(Perm::kSeal, 'S');
  add(Perm::kUnseal, 'U');
  add(Perm::kInvoke, 'I');
  add(Perm::kSystem, '$');
  return s.empty() ? "-" : s;
}

Capability CapabilityMinter::mint_root(std::uint64_t base, cc::U128 length,
                                       PermSet perms) {
  const auto encoded = cc::encode(base, cc::U128{base} + length);
  if (!encoded) {
    throw CapFault(FaultKind::kRepresentabilityViolation, base,
                   static_cast<std::uint64_t>(length), "mint_root",
                   "root bounds not encodable");
  }
  Capability c;
  c.addr_ = base;
  c.base_ = encoded->bounds.base;
  c.top_ = encoded->bounds.top;
  c.enc_ = encoded->enc;
  c.perms_ = perms;
  c.otype_ = kOtypeUnsealed;
  c.tag_ = true;
  return c;
}

}  // namespace cherinet::cheri
