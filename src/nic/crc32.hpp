// IEEE 802.3 frame check sequence (CRC-32, reflected, poly 0xEDB88320).
//
// Two paths, one result. On x86-64 hosts with PCLMULQDQ and SSE4.1 (probed
// once at startup with __builtin_cpu_supports), a buffer of 64 B or more
// has its whole 16-byte blocks folded by carry-less multiplication: four
// 64-byte lanes, then 16-byte folds, then a Barrett reduction to 32 bits
// (Gopal et al., Intel 2009). The rest — the sub-16-byte tail, buffers
// under 64 B, and every byte on hosts without PCLMUL — goes through
// slicing-by-8: eight compile-time 256-entry tables fold eight bytes per
// step from two 32-bit loads, then a byte-wise tail. The word loads
// assume a little-endian host (static_assert'ed in crc32.cpp), the same
// byte order the MAC uses when it copies the FCS into the frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace cherinet::nic {

/// CRC-32 as appended to Ethernet frames (init 0xFFFFFFFF, final XOR).
[[nodiscard]] std::uint32_t crc32_ieee(std::span<const std::byte> data) noexcept;

}  // namespace cherinet::nic
