// Address types and byte-order helpers for the wire formats.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>

namespace cherinet::fstack {

// Big-endian (network order) accessors over raw bytes.
inline std::uint16_t get_be16(const std::byte* p) noexcept {
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(p[0]) << 8) |
      static_cast<std::uint16_t>(p[1]));
}
inline std::uint32_t get_be32(const std::byte* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}
inline void put_be16(std::byte* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::byte>(v >> 8);
  p[1] = static_cast<std::byte>(v & 0xFF);
}
inline void put_be32(std::byte* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::byte>(v >> 24);
  p[1] = static_cast<std::byte>((v >> 16) & 0xFF);
  p[2] = static_cast<std::byte>((v >> 8) & 0xFF);
  p[3] = static_cast<std::byte>(v & 0xFF);
}

/// IPv4 address, kept in host byte order internally.
struct Ipv4Addr {
  std::uint32_t value = 0;

  constexpr bool operator==(const Ipv4Addr&) const = default;
  constexpr auto operator<=>(const Ipv4Addr&) const = default;

  [[nodiscard]] static constexpr Ipv4Addr of(std::uint8_t a, std::uint8_t b,
                                             std::uint8_t c,
                                             std::uint8_t d) noexcept {
    return Ipv4Addr{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                    (std::uint32_t{c} << 8) | d};
  }
  [[nodiscard]] constexpr bool is_broadcast() const noexcept {
    return value == 0xFFFFFFFFu;
  }
  [[nodiscard]] constexpr bool same_subnet(Ipv4Addr other,
                                           Ipv4Addr mask) const noexcept {
    return (value & mask.value) == (other.value & mask.value);
  }
};

/// Connection 4-tuple (demux key).
struct FourTuple {
  Ipv4Addr local_ip;
  std::uint16_t local_port = 0;
  Ipv4Addr remote_ip;
  std::uint16_t remote_port = 0;

  constexpr bool operator==(const FourTuple&) const = default;
};

struct FourTupleHash {
  std::size_t operator()(const FourTuple& t) const noexcept {
    std::uint64_t k = (std::uint64_t{t.local_ip.value} << 32) |
                      t.remote_ip.value;
    k ^= (std::uint64_t{t.local_port} << 16) ^ t.remote_port;
    return std::hash<std::uint64_t>{}(k * 0x9E3779B97F4A7C15ull);
  }
};

}  // namespace cherinet::fstack
