#include "machine/heap.hpp"
#include <algorithm>

#include <new>
#include <stdexcept>

namespace cherinet::machine {

namespace {
constexpr std::uint64_t kAlign = cheri::TaggedMemory::kGranule;
}

CompartmentHeap::CompartmentHeap(cheri::TaggedMemory* mem,
                                 cheri::Capability region)
    : mem_(mem), region_(region) {
  if (!region_.tag() || region_.is_sealed()) {
    throw std::invalid_argument("CompartmentHeap: invalid region capability");
  }
  const auto base = region_.base();
  const auto size = static_cast<std::uint64_t>(region_.length());
  free_.emplace(base, size);
}

cheri::Capability CompartmentHeap::alloc(std::size_t bytes) {
  // Pad to the representable alignment so every allocation's capability is
  // byte-exact: an overflow faults at the allocation edge instead of
  // spilling into a rounded-over neighbour.
  const std::uint64_t align = std::max<std::uint64_t>(
      cheri::cc::representable_alignment(bytes), kAlign);
  const std::uint64_t need = (bytes + align - 1) / align * align;
  if (need == 0) throw std::bad_alloc();
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const std::uint64_t base = (it->first + align - 1) / align * align;
    const std::uint64_t pad = base - it->first;
    if (it->second < pad + need) continue;
    const std::uint64_t block_base = it->first;
    const std::uint64_t remaining = it->second - pad - need;
    free_.erase(it);
    if (pad > 0) free_.emplace(block_base, pad);
    if (remaining > 0) free_.emplace(base + need, remaining);
    allocated_.emplace(base, need);
    return region_.with_bounds_exact(base, need);
  }
  throw std::bad_alloc();
}

void CompartmentHeap::free(const cheri::Capability& cap) {
  const auto it = allocated_.find(cap.base());
  if (it == allocated_.end()) {
    throw std::invalid_argument("CompartmentHeap::free: unknown allocation");
  }
  std::uint64_t base = it->first;
  std::uint64_t size = it->second;
  allocated_.erase(it);
  // Coalesce with the next free block...
  auto next = free_.lower_bound(base);
  if (next != free_.end() && base + size == next->first) {
    size += next->second;
    next = free_.erase(next);
  }
  // ...and with the previous one.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == base) {
      base = prev->first;
      size += prev->second;
      free_.erase(prev);
    }
  }
  free_.emplace(base, size);
}

std::uint64_t CompartmentHeap::bytes_free() const {
  std::uint64_t total = 0;
  for (const auto& [b, s] : free_) total += s;
  return total;
}

std::uint64_t CompartmentHeap::bytes_allocated() const {
  std::uint64_t total = 0;
  for (const auto& [b, s] : allocated_) total += s;
  return total;
}

}  // namespace cherinet::machine
