// IEEE 802.3 frame check sequence (CRC-32, reflected, poly 0xEDB88320).
//
// Computed slicing-by-8: eight compile-time 256-entry tables fold eight
// bytes per step from two 32-bit loads, then a byte-wise tail. The word
// loads assume a little-endian host (static_assert'ed in crc32.cpp), the
// same byte order the MAC uses when it copies the FCS into the frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace cherinet::nic {

/// CRC-32 as appended to Ethernet frames (init 0xFFFFFFFF, final XOR).
[[nodiscard]] std::uint32_t crc32_ieee(std::span<const std::byte> data) noexcept;

}  // namespace cherinet::nic
