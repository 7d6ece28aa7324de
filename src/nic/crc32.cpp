#include "nic/crc32.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <string>

#include "nic/mac.hpp"

namespace cherinet::nic {

namespace {
// The word loads below read bytes in little-endian order, as does the MAC's
// memcpy of the FCS into and out of the frame.
static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 word loads assume a little-endian host");

using Table = std::array<std::uint32_t, 256>;

// kTables[0] is the classic byte table; kTables[s][i] is the CRC of byte i
// followed by s zero bytes, so eight lookups fold eight bytes at once.
constexpr std::array<Table, 8> make_tables() noexcept {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}
constexpr auto kTables = make_tables();
}  // namespace

std::uint32_t crc32_ieee(std::span<const std::byte> data) noexcept {
  const auto& t = kTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string MacAddr::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0],
                bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]);
  return buf;
}

}  // namespace cherinet::nic
