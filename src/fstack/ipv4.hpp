// IPv4 fragmentation and reassembly (RFC 791).
//
// TCP always sends DF-marked, MSS-sized segments, but UDP datagrams larger
// than the MTU must be fragmented; the reassembler is bounded and expires
// stale partial datagrams.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "fstack/headers.hpp"
#include "sim/virtual_clock.hpp"

namespace cherinet::fstack {

/// One fragment plan entry produced by plan_fragments().
struct FragmentPlan {
  std::uint16_t payload_off = 0;  // offset into the original L4 payload
  std::uint16_t payload_len = 0;
  bool more_fragments = false;
};

/// Split an L4 payload of `total_len` into MTU-sized fragments (offsets are
/// multiples of 8 as the wire format requires).
[[nodiscard]] std::vector<FragmentPlan> plan_fragments(std::size_t total_len,
                                                       std::size_t mtu,
                                                       std::size_t ip_hlen);

class FragReassembler {
 public:
  /// A partial datagram dies this long after its latest fragment.
  static constexpr sim::Ns kTimeout{1'000'000'000};  // 1 s
  static constexpr std::size_t kMaxDatagrams = 64;
  static constexpr std::size_t kMaxDatagramBytes = 65535;

  /// Feed one fragment; returns the reassembled L4 payload when complete.
  [[nodiscard]] std::optional<std::vector<std::byte>> input(
      const Ipv4Header& h, std::span<const std::byte> payload, sim::Ns now);

  void expire(sim::Ns now);
  [[nodiscard]] std::size_t pending() const noexcept { return parts_.size(); }

  struct Stats {
    std::uint64_t reassembled = 0;
    std::uint64_t expired = 0;
    std::uint64_t dropped = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Key {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint16_t id;
    std::uint8_t proto;
    auto operator<=>(const Key&) const = default;
  };
  struct Partial {
    std::map<std::uint16_t, std::vector<std::byte>> frags;  // off -> bytes
    std::optional<std::size_t> total_len;  // known once the last frag lands
    sim::Ns deadline;
  };

  std::map<Key, Partial> parts_;
  Stats stats_;
};

}  // namespace cherinet::fstack
