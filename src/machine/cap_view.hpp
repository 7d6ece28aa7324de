// CapView / CapBuf: the capability-qualified buffer handles used across the
// data plane (the `void* __capability` of the paper's modified F-Stack API).
//
// A CapView pairs a Capability with the TaggedMemory it authorizes; reads
// and writes perform the full hardware check over the accessed range once
// per operation (semantically identical to per-byte checks for contiguous
// copies, and what Morello's bulk-copy sequences achieve). window() derives
// a narrower sub-capability — passing the *smallest sufficient* view across
// a compartment boundary is the core CHERI idiom the paper advocates.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cheri/capability.hpp"
#include "cheri/tagged_memory.hpp"

namespace cherinet::machine {

class CapView {
 public:
  CapView() = default;
  CapView(cheri::TaggedMemory* mem, cheri::Capability cap)
      : mem_(mem), cap_(cap) {}

  [[nodiscard]] bool valid() const noexcept {
    return mem_ != nullptr && cap_.tag();
  }
  [[nodiscard]] const cheri::Capability& cap() const noexcept { return cap_; }
  [[nodiscard]] cheri::TaggedMemory& mem() const noexcept { return *mem_; }
  /// Cursor address of the view.
  [[nodiscard]] std::uint64_t address() const noexcept {
    return cap_.address();
  }
  /// Bytes from cursor to top (usable length of the view).
  [[nodiscard]] std::uint64_t size() const noexcept {
    if (!cap_.tag()) return 0;
    const auto a = cap_.address();
    if (cheri::cc::U128{a} >= cap_.top()) return 0;
    return static_cast<std::uint64_t>(cap_.top() - a);
  }

  /// Checked bulk read/write at byte offset `off` from the cursor.
  void read(std::uint64_t off, std::span<std::byte> out) const {
    mem_->load(cap_, cap_.address() + off, out);
  }
  void write(std::uint64_t off, std::span<const std::byte> in) const {
    mem_->store(cap_, cap_.address() + off, in);
  }

  template <typename T>
  [[nodiscard]] T load(std::uint64_t off) const {
    return mem_->load_scalar<T>(cap_, cap_.address() + off);
  }
  template <typename T>
  void store(std::uint64_t off, T v) const {
    mem_->store_scalar<T>(cap_, cap_.address() + off, v);
  }

  /// Atomic u32 access at byte offset `off` (4-byte aligned). The ff_uring
  /// SQ/CQ rings publish their head/tail indices through these: acquire
  /// loads pair with release stores across compartments.
  [[nodiscard]] std::uint32_t atomic_load_u32(std::uint64_t off) const {
    return mem_->atomic_load_u32(cap_, cap_.address() + off);
  }
  void atomic_store_u32(std::uint64_t off, std::uint32_t v) const {
    mem_->atomic_store_u32(cap_, cap_.address() + off, v);
  }

  /// Checked capability load/store at byte offset `off` (16-byte aligned
  /// granule). The ff_uring SQ/CQ rings carry their payload capabilities —
  /// iovec grants travelling app->stack, loan grants travelling
  /// stack->app — through these: a real tagged store into ring memory, so
  /// a data overwrite (or a forged entry) clears the tag and the drain
  /// sweep sees an invalid capability instead of smuggled authority.
  [[nodiscard]] CapView load_cap(std::uint64_t off) const {
    return CapView(mem_, mem_->load_cap(cap_, cap_.address() + off));
  }
  void store_cap(std::uint64_t off, const CapView& v) const {
    mem_->store_cap(cap_, cap_.address() + off, v.cap());
  }

  /// Derive a sub-view [off, off+len) with monotonically narrowed bounds.
  [[nodiscard]] CapView window(std::uint64_t off, std::uint64_t len) const {
    return CapView(mem_, cap_.with_bounds(cap_.address() + off, len));
  }

  /// Derive a read-only variant (drops store permissions).
  [[nodiscard]] CapView readonly() const {
    return CapView(mem_, cap_.with_perms(cheri::PermSet::data_ro()));
  }

  /// Move the cursor without changing bounds.
  [[nodiscard]] CapView at(std::uint64_t off) const {
    return CapView(mem_, cap_.add(static_cast<std::int64_t>(off)));
  }

  [[nodiscard]] std::string to_string() const { return cap_.to_string(); }

 private:
  cheri::TaggedMemory* mem_ = nullptr;
  cheri::Capability cap_;
};

/// Checked copy between two views (both range checks performed).
inline void cap_copy(const CapView& dst, std::uint64_t dst_off,
                     const CapView& src, std::uint64_t src_off,
                     std::size_t n, std::span<std::byte> scratch) {
  // Copy through a bounce buffer so both capabilities are exercised; the
  // scratch span lets hot paths reuse a preallocated buffer.
  std::size_t done = 0;
  while (done < n) {
    const std::size_t chunk = std::min(n - done, scratch.size());
    src.read(src_off + done, scratch.subspan(0, chunk));
    dst.write(dst_off + done, scratch.subspan(0, chunk));
    done += chunk;
  }
}

}  // namespace cherinet::machine
