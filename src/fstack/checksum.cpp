#include "fstack/checksum.hpp"

namespace cherinet::fstack {

std::uint32_t checksum_partial(std::span<const std::byte> data,
                               std::uint32_t sum) noexcept {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) |
           static_cast<std::uint32_t>(data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i]) << 8;  // odd trailing byte
  }
  return sum;
}

std::uint32_t checksum_pseudo(Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
                              std::uint16_t l4_len,
                              std::uint32_t sum) noexcept {
  sum += (src.value >> 16) + (src.value & 0xFFFF);
  sum += (dst.value >> 16) + (dst.value & 0xFFFF);
  sum += proto;
  sum += l4_len;
  return sum;
}

std::uint16_t checksum_finish(std::uint32_t sum) noexcept {
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::uint32_t checksum_cap_partial(const machine::CapView& v,
                                   std::uint64_t off, std::size_t len,
                                   std::uint32_t sum) {
  // 8 bytes per capability-checked load: each little-endian 16-bit half
  // holds (even byte, odd byte) of a big-endian word — byte-swap and add.
  std::size_t i = 0;
  std::uint64_t acc = 0;
  for (; i + 8 <= len; i += 8) {
    const std::uint64_t w = v.load<std::uint64_t>(off + i);
    // Byte-swap each 16-bit half into big-endian word order, then fold the
    // swapped word at its 32-bit boundary before accumulating: 2^16 == 1
    // (mod 65535), so any 16-bit-aligned fold preserves the one's-
    // complement value while keeping the accumulator overflow-free.
    const std::uint64_t sw = ((w & 0x00FF00FF00FF00FFull) << 8) |
                             ((w >> 8) & 0x00FF00FF00FF00FFull);
    acc += (sw & 0xFFFFFFFFull) + (sw >> 32);
  }
  acc = (acc & 0xFFFFFFFFull) + (acc >> 32);
  sum += static_cast<std::uint32_t>((acc & 0xFFFFull) +
                                    ((acc >> 16) & 0xFFFFull) + (acc >> 32));
  for (; i + 1 < len; i += 2) {
    sum += (static_cast<std::uint32_t>(v.load<std::uint8_t>(off + i)) << 8) |
           static_cast<std::uint32_t>(v.load<std::uint8_t>(off + i + 1));
  }
  if (i < len) {
    sum += static_cast<std::uint32_t>(v.load<std::uint8_t>(off + i)) << 8;
  }
  return sum;
}

}  // namespace cherinet::fstack
