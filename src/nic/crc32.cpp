#include "nic/crc32.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Slicing-by-8 over [p, p+n) from running register `c` (not inverted).
std::uint32_t crc32_tables(std::uint32_t c, const std::byte* p,
                           std::size_t n) noexcept {
  const auto& t = kTables;
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
  return c;
}

#if defined(__x86_64__)
// Buffers shorter than this stay on the tables: the fold needs four
// 16-byte lanes to start, and below that the setup outweighs the saving.
constexpr std::size_t kFoldMin = 64;

const bool kHasPclmul = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), in the bit-reflected
// domain of the Ethernet polynomial. Consumes n & ~15 bytes (n >= 64) from
// running register `c` and returns the register after them: four lanes
// fold 64 bytes per step (k1k2 = x^(4*128+32), x^(4*128-32) mod P), the
// lanes collapse into one and fold 16 bytes per step (k3k4, 128-bit
// distance), then 128 -> 64 -> 32 bits (k5) and a Barrett reduction by
// P' = 0x1DB710641 with mu = 0x1F7011641.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t c, const std::byte* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto* q = reinterpret_cast<const __m128i*>(p);

  // Four lanes, 64 bytes apart: each step multiplies a lane's halves by
  // k1 and k2 (carry-less), xors the products and the next 16 bytes.
  __m128i x0 = _mm_xor_si128(_mm_loadu_si128(q),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = _mm_loadu_si128(q + 1);
  __m128i x2 = _mm_loadu_si128(q + 2);
  __m128i x3 = _mm_loadu_si128(q + 3);
  for (q += 4, n -= 64; n >= 64; q += 4, n -= 64) {
    const __m128i l0 = _mm_clmulepi64_si128(x0, k1k2, 0x00);
    const __m128i l1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i l2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i l3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k1k2, 0x11),
                       _mm_xor_si128(l0, _mm_loadu_si128(q)));
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k1k2, 0x11),
                       _mm_xor_si128(l1, _mm_loadu_si128(q + 1)));
    x2 = _mm_xor_si128(_mm_clmulepi64_si128(x2, k1k2, 0x11),
                       _mm_xor_si128(l2, _mm_loadu_si128(q + 2)));
    x3 = _mm_xor_si128(_mm_clmulepi64_si128(x3, k1k2, 0x11),
                       _mm_xor_si128(l3, _mm_loadu_si128(q + 3)));
  }
  // The lanes fold into one at 128-bit distance (k3k4), then the
  // remaining whole blocks fold in the same way.
  __m128i acc = x0;
  for (const __m128i next : {x1, x2, x3}) {
    acc = _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x00),
                      _mm_clmulepi64_si128(acc, k3k4, 0x11)),
        next);
  }
  for (; n >= 16; ++q, n -= 16) {
    acc = _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x00),
                      _mm_clmulepi64_si128(acc, k3k4, 0x11)),
        _mm_loadu_si128(q));
  }
  // 128 -> 64 bits (k4), 64 -> 32 (k5), then Barrett.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k3k4, 0x10));
  acc = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), k5, 0x00),
      _mm_srli_si128(acc, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(acc, t), 1));
}
#endif
}  // namespace

std::uint32_t crc32_ieee(std::span<const std::byte> data) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= kFoldMin && kHasPclmul) {
    const std::size_t whole = n & ~std::size_t{15};
    c = crc32_fold(c, p, whole);
    p += whole;
    n -= whole;
  }
#endif
  return crc32_tables(c, p, n) ^ 0xFFFFFFFFu;
}

std::string MacAddr::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0],
                bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]);
  return buf;
}

}  // namespace cherinet::nic
