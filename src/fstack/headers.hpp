// Wire-format protocol headers: parse/serialize against host scratch bytes.
//
// The stack copies header regions out of capability-checked mbuf views into
// small stack scratch buffers, parses them here, and serializes responses
// the same way — so every byte that came off the wire crossed a capability
// check before interpretation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "fstack/inet.hpp"
#include "nic/mac.hpp"

namespace cherinet::fstack {

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;

inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

// --------------------------------------------------------------------------
struct EtherHeader {
  static constexpr std::size_t kSize = 14;
  nic::MacAddr dst;
  nic::MacAddr src;
  std::uint16_t ethertype = 0;

  [[nodiscard]] static std::optional<EtherHeader> parse(
      std::span<const std::byte> b) noexcept;
  void serialize(std::span<std::byte> b) const noexcept;
};

// --------------------------------------------------------------------------
struct ArpHeader {
  static constexpr std::size_t kSize = 28;
  static constexpr std::uint16_t kOpRequest = 1;
  static constexpr std::uint16_t kOpReply = 2;

  std::uint16_t oper = 0;
  nic::MacAddr sha;
  Ipv4Addr spa;
  nic::MacAddr tha;
  Ipv4Addr tpa;

  [[nodiscard]] static std::optional<ArpHeader> parse(
      std::span<const std::byte> b) noexcept;
  void serialize(std::span<std::byte> b) const noexcept;
};

// --------------------------------------------------------------------------
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // without options
  static constexpr std::uint16_t kFlagDF = 0x4000;
  static constexpr std::uint16_t kFlagMF = 0x2000;

  std::uint8_t ihl = 5;  // 32-bit words
  std::uint8_t tos = 0;
  std::uint16_t total_len = 0;
  std::uint16_t id = 0;
  std::uint16_t flags_frag = 0;  // flags in top 3 bits, offset in low 13
  std::uint8_t ttl = 64;
  std::uint8_t proto = 0;
  std::uint16_t checksum = 0;
  Ipv4Addr src;
  Ipv4Addr dst;

  [[nodiscard]] std::uint16_t frag_offset_bytes() const noexcept {
    return static_cast<std::uint16_t>((flags_frag & 0x1FFF) * 8);
  }
  [[nodiscard]] bool more_fragments() const noexcept {
    return (flags_frag & kFlagMF) != 0;
  }
  [[nodiscard]] std::size_t header_len() const noexcept {
    return std::size_t{ihl} * 4;
  }

  /// Parses the header; `verify_checksum` = false skips the software sum
  /// (the RX path passes false when the device's descriptor write-back
  /// already carries an IP checksum verdict — see the offload ABI in
  /// updk/mbuf.hpp).
  [[nodiscard]] static std::optional<Ipv4Header> parse(
      std::span<const std::byte> b, bool verify_checksum = true) noexcept;
  /// Serializes with a freshly computed checksum.
  void serialize(std::span<std::byte> b) const noexcept;
};

// --------------------------------------------------------------------------
struct IcmpHeader {
  static constexpr std::size_t kSize = 8;
  static constexpr std::uint8_t kEchoReply = 0;
  static constexpr std::uint8_t kEchoRequest = 8;

  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;
  std::uint16_t id = 0;
  std::uint16_t seq = 0;

  [[nodiscard]] static std::optional<IcmpHeader> parse(
      std::span<const std::byte> b) noexcept;
  void serialize(std::span<std::byte> b) const noexcept;
};

// --------------------------------------------------------------------------
struct UdpHeader {
  static constexpr std::size_t kSize = 8;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;
  std::uint16_t checksum = 0;

  [[nodiscard]] static std::optional<UdpHeader> parse(
      std::span<const std::byte> b) noexcept;
  void serialize(std::span<std::byte> b) const noexcept;
};

// --------------------------------------------------------------------------
namespace tcpflag {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
}  // namespace tcpflag

/// One SACK block (RFC 2018): the receiver holds [left, right).
struct SackBlock {
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  bool operator==(const SackBlock&) const = default;
};

/// Parsed TCP options the stack understands (MSS, window scale, SACK,
/// timestamps).
struct TcpOptions {
  /// A SACK option holds at most four blocks (2 + 8n bytes of the 40-byte
  /// option space); a longer or misaligned one is ignored whole.
  static constexpr std::size_t kMaxSackBlocksIn = 4;
  /// Beside the 10-byte timestamp option only three blocks fit.
  static constexpr std::size_t kMaxSackBlocksOut = 3;

  std::optional<std::uint16_t> mss;
  std::optional<std::uint8_t> wscale;
  bool sack_permitted = false;
  std::optional<std::pair<std::uint32_t, std::uint32_t>> timestamps;  // val,ecr
  std::uint8_t sack_count = 0;  // valid entries of `sack`
  std::array<SackBlock, kMaxSackBlocksIn> sack{};

  /// Encoded size (multiple of 4) for a SYN / non-SYN segment.
  [[nodiscard]] std::size_t encoded_size() const noexcept;
  /// Append to `b`; returns bytes written (padded with NOPs/END).
  std::size_t serialize(std::span<std::byte> b) const noexcept;
  [[nodiscard]] static TcpOptions parse(std::span<const std::byte> b) noexcept;
};

struct TcpHeader {
  static constexpr std::size_t kSize = 20;  // without options

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_off = 5;  // 32-bit words incl. options
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  std::uint16_t checksum = 0;
  std::uint16_t urgent = 0;

  [[nodiscard]] std::size_t header_len() const noexcept {
    return std::size_t{data_off} * 4;
  }
  [[nodiscard]] bool has(std::uint8_t f) const noexcept {
    return (flags & f) != 0;
  }

  [[nodiscard]] static std::optional<TcpHeader> parse(
      std::span<const std::byte> b) noexcept;
  void serialize(std::span<std::byte> b) const noexcept;  // checksum = 0
};

}  // namespace cherinet::fstack
