#include "fstack/headers.hpp"

#include <algorithm>
#include <cstring>

#include "fstack/checksum.hpp"

namespace cherinet::fstack {

// ----------------------------------------------------------------- Ethernet
std::optional<EtherHeader> EtherHeader::parse(
    std::span<const std::byte> b) noexcept {
  if (b.size() < kSize) return std::nullopt;
  EtherHeader h;
  std::memcpy(h.dst.bytes.data(), b.data(), 6);
  std::memcpy(h.src.bytes.data(), b.data() + 6, 6);
  h.ethertype = get_be16(b.data() + 12);
  return h;
}

void EtherHeader::serialize(std::span<std::byte> b) const noexcept {
  std::memcpy(b.data(), dst.bytes.data(), 6);
  std::memcpy(b.data() + 6, src.bytes.data(), 6);
  put_be16(b.data() + 12, ethertype);
}

// ---------------------------------------------------------------------- ARP
std::optional<ArpHeader> ArpHeader::parse(
    std::span<const std::byte> b) noexcept {
  if (b.size() < kSize) return std::nullopt;
  if (get_be16(b.data()) != 1 /*Ethernet*/ ||
      get_be16(b.data() + 2) != kEtherTypeIpv4 ||
      static_cast<std::uint8_t>(b[4]) != 6 ||
      static_cast<std::uint8_t>(b[5]) != 4) {
    return std::nullopt;
  }
  ArpHeader h;
  h.oper = get_be16(b.data() + 6);
  std::memcpy(h.sha.bytes.data(), b.data() + 8, 6);
  h.spa.value = get_be32(b.data() + 14);
  std::memcpy(h.tha.bytes.data(), b.data() + 18, 6);
  h.tpa.value = get_be32(b.data() + 24);
  return h;
}

void ArpHeader::serialize(std::span<std::byte> b) const noexcept {
  put_be16(b.data(), 1);
  put_be16(b.data() + 2, kEtherTypeIpv4);
  b[4] = std::byte{6};
  b[5] = std::byte{4};
  put_be16(b.data() + 6, oper);
  std::memcpy(b.data() + 8, sha.bytes.data(), 6);
  put_be32(b.data() + 14, spa.value);
  std::memcpy(b.data() + 18, tha.bytes.data(), 6);
  put_be32(b.data() + 24, tpa.value);
}

// --------------------------------------------------------------------- IPv4
std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::byte> b, bool verify_checksum) noexcept {
  if (b.size() < kSize) return std::nullopt;
  const auto vihl = static_cast<std::uint8_t>(b[0]);
  if ((vihl >> 4) != 4) return std::nullopt;
  Ipv4Header h;
  h.ihl = vihl & 0x0F;
  if (h.ihl < 5 || b.size() < h.header_len()) return std::nullopt;
  h.tos = static_cast<std::uint8_t>(b[1]);
  h.total_len = get_be16(b.data() + 2);
  h.id = get_be16(b.data() + 4);
  h.flags_frag = get_be16(b.data() + 6);
  h.ttl = static_cast<std::uint8_t>(b[8]);
  h.proto = static_cast<std::uint8_t>(b[9]);
  h.checksum = get_be16(b.data() + 10);
  h.src.value = get_be32(b.data() + 12);
  h.dst.value = get_be32(b.data() + 16);
  // Qualified call: the member field `checksum` shadows the free function.
  if (verify_checksum &&
      cherinet::fstack::checksum(b.subspan(0, h.header_len())) != 0) {
    return std::nullopt;
  }
  return h;
}

void Ipv4Header::serialize(std::span<std::byte> b) const noexcept {
  b[0] = static_cast<std::byte>((4u << 4) | ihl);
  b[1] = std::byte{tos};
  put_be16(b.data() + 2, total_len);
  put_be16(b.data() + 4, id);
  put_be16(b.data() + 6, flags_frag);
  b[8] = std::byte{ttl};
  b[9] = std::byte{proto};
  put_be16(b.data() + 10, 0);
  put_be32(b.data() + 12, src.value);
  put_be32(b.data() + 16, dst.value);
  const std::uint16_t ck = cherinet::fstack::checksum(
      std::span<const std::byte>{b.data(), std::size_t{ihl} * 4});
  put_be16(b.data() + 10, ck);
}

// --------------------------------------------------------------------- ICMP
std::optional<IcmpHeader> IcmpHeader::parse(
    std::span<const std::byte> b) noexcept {
  if (b.size() < kSize) return std::nullopt;
  IcmpHeader h;
  h.type = static_cast<std::uint8_t>(b[0]);
  h.code = static_cast<std::uint8_t>(b[1]);
  h.checksum = get_be16(b.data() + 2);
  h.id = get_be16(b.data() + 4);
  h.seq = get_be16(b.data() + 6);
  return h;
}

void IcmpHeader::serialize(std::span<std::byte> b) const noexcept {
  b[0] = std::byte{type};
  b[1] = std::byte{code};
  put_be16(b.data() + 2, checksum);
  put_be16(b.data() + 4, id);
  put_be16(b.data() + 6, seq);
}

// ---------------------------------------------------------------------- UDP
std::optional<UdpHeader> UdpHeader::parse(
    std::span<const std::byte> b) noexcept {
  if (b.size() < kSize) return std::nullopt;
  UdpHeader h;
  h.src_port = get_be16(b.data());
  h.dst_port = get_be16(b.data() + 2);
  h.length = get_be16(b.data() + 4);
  h.checksum = get_be16(b.data() + 6);
  return h;
}

void UdpHeader::serialize(std::span<std::byte> b) const noexcept {
  put_be16(b.data(), src_port);
  put_be16(b.data() + 2, dst_port);
  put_be16(b.data() + 4, length);
  put_be16(b.data() + 6, checksum);
}

// -------------------------------------------------------------- TCP options
namespace {
constexpr std::uint8_t kOptEnd = 0;
constexpr std::uint8_t kOptNop = 1;
constexpr std::uint8_t kOptMss = 2;
constexpr std::uint8_t kOptWscale = 3;
constexpr std::uint8_t kOptSackPermitted = 4;
constexpr std::uint8_t kOptSack = 5;
constexpr std::uint8_t kOptTimestamps = 8;
constexpr std::size_t kSackBlockLen = 8;
}  // namespace

std::size_t TcpOptions::encoded_size() const noexcept {
  std::size_t n = 0;
  if (mss) n += 4;
  if (wscale) n += 3;
  if (sack_permitted) n += 2;
  if (timestamps) n += 10;
  if (sack_count > 0) {
    n += 2 + kSackBlockLen * std::min<std::size_t>(sack_count,
                                                   kMaxSackBlocksOut);
  }
  return (n + 3) / 4 * 4;
}

std::size_t TcpOptions::serialize(std::span<std::byte> b) const noexcept {
  std::size_t i = 0;
  if (mss) {
    b[i] = std::byte{kOptMss};
    b[i + 1] = std::byte{4};
    put_be16(b.data() + i + 2, *mss);
    i += 4;
  }
  if (wscale) {
    b[i] = std::byte{kOptWscale};
    b[i + 1] = std::byte{3};
    b[i + 2] = std::byte{*wscale};
    i += 3;
  }
  // SACK-permitted takes two of the SYN's pad bytes: MSS + wscale +
  // timestamps (17 bytes) pad to 20 with or without it.
  if (sack_permitted) {
    b[i] = std::byte{kOptSackPermitted};
    b[i + 1] = std::byte{2};
    i += 2;
  }
  if (timestamps) {
    b[i] = std::byte{kOptTimestamps};
    b[i + 1] = std::byte{10};
    put_be32(b.data() + i + 2, timestamps->first);
    put_be32(b.data() + i + 6, timestamps->second);
    i += 10;
  }
  if (sack_count > 0) {
    const std::size_t n =
        std::min<std::size_t>(sack_count, kMaxSackBlocksOut);
    b[i] = std::byte{kOptSack};
    b[i + 1] = static_cast<std::byte>(2 + kSackBlockLen * n);
    i += 2;
    for (std::size_t k = 0; k < n; ++k) {
      put_be32(b.data() + i, sack[k].left);
      put_be32(b.data() + i + 4, sack[k].right);
      i += kSackBlockLen;
    }
  }
  while (i % 4 != 0) b[i++] = std::byte{kOptNop};  // NOP pad
  return i;
}

TcpOptions TcpOptions::parse(std::span<const std::byte> b) noexcept {
  TcpOptions o;
  std::size_t i = 0;
  while (i < b.size()) {
    const auto kind = static_cast<std::uint8_t>(b[i]);
    if (kind == kOptEnd) break;
    if (kind == kOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= b.size()) break;
    const auto len = static_cast<std::uint8_t>(b[i + 1]);
    if (len < 2 || i + len > b.size()) break;
    switch (kind) {
      case kOptMss:
        if (len == 4) o.mss = get_be16(b.data() + i + 2);
        break;
      case kOptWscale:
        if (len == 3) o.wscale = static_cast<std::uint8_t>(b[i + 2]);
        break;
      case kOptSackPermitted:
        if (len == 2) o.sack_permitted = true;
        break;
      case kOptSack: {
        // 2 + 8n bytes, 1 <= n <= 4; anything else is ignored whole.
        const std::size_t n = (len - 2u) / kSackBlockLen;
        if ((len - 2u) % kSackBlockLen != 0 || n == 0 ||
            n > kMaxSackBlocksIn) {
          break;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const std::byte* p = b.data() + i + 2 + k * kSackBlockLen;
          o.sack[k] = SackBlock{get_be32(p), get_be32(p + 4)};
        }
        o.sack_count = static_cast<std::uint8_t>(n);
        break;
      }
      case kOptTimestamps:
        if (len == 10) {
          o.timestamps = {get_be32(b.data() + i + 2),
                          get_be32(b.data() + i + 6)};
        }
        break;
      default:
        break;  // unknown option: skip
    }
    i += len;
  }
  return o;
}

// ---------------------------------------------------------------------- TCP
std::optional<TcpHeader> TcpHeader::parse(
    std::span<const std::byte> b) noexcept {
  if (b.size() < kSize) return std::nullopt;
  TcpHeader h;
  h.src_port = get_be16(b.data());
  h.dst_port = get_be16(b.data() + 2);
  h.seq = get_be32(b.data() + 4);
  h.ack = get_be32(b.data() + 8);
  h.data_off = static_cast<std::uint8_t>(b[12]) >> 4;
  h.flags = static_cast<std::uint8_t>(b[13]);
  h.window = get_be16(b.data() + 14);
  h.checksum = get_be16(b.data() + 16);
  h.urgent = get_be16(b.data() + 18);
  if (h.data_off < 5 || b.size() < h.header_len()) return std::nullopt;
  return h;
}

void TcpHeader::serialize(std::span<std::byte> b) const noexcept {
  put_be16(b.data(), src_port);
  put_be16(b.data() + 2, dst_port);
  put_be32(b.data() + 4, seq);
  put_be32(b.data() + 8, ack);
  b[12] = static_cast<std::byte>(data_off << 4);
  b[13] = std::byte{flags};
  put_be16(b.data() + 14, window);
  put_be16(b.data() + 16, 0);
  put_be16(b.data() + 18, urgent);
}

}  // namespace cherinet::fstack
