#include "fstack/ipv4.hpp"

#include <algorithm>

namespace cherinet::fstack {

std::vector<FragmentPlan> plan_fragments(std::size_t total_len,
                                         std::size_t mtu,
                                         std::size_t ip_hlen) {
  std::vector<FragmentPlan> plan;
  const std::size_t max_payload = (mtu - ip_hlen) / 8 * 8;  // 8-byte units
  if (total_len <= mtu - ip_hlen) {
    plan.push_back(FragmentPlan{0, static_cast<std::uint16_t>(total_len),
                                false});
    return plan;
  }
  std::size_t off = 0;
  while (off < total_len) {
    const std::size_t n = std::min(max_payload, total_len - off);
    const bool more = off + n < total_len;
    plan.push_back(FragmentPlan{static_cast<std::uint16_t>(off),
                                static_cast<std::uint16_t>(n), more});
    off += n;
  }
  return plan;
}

std::optional<std::vector<std::byte>> FragReassembler::input(
    const Ipv4Header& h, std::span<const std::byte> payload, sim::Ns now) {
  expire(now);
  const Key key{h.src.value, h.dst.value, h.id, h.proto};
  Partial& p = parts_[key];
  if (parts_.size() > kMaxDatagrams) {
    parts_.erase(key);
    ++stats_.dropped;
    return std::nullopt;
  }
  p.deadline = now + kTimeout;

  const std::uint16_t off = h.frag_offset_bytes();
  if (static_cast<std::size_t>(off) + payload.size() > kMaxDatagramBytes) {
    parts_.erase(key);
    ++stats_.dropped;
    return std::nullopt;
  }
  p.frags.emplace(off,
                  std::vector<std::byte>(payload.begin(), payload.end()));
  if (!h.more_fragments()) {
    p.total_len = static_cast<std::size_t>(off) + payload.size();
  }

  if (!p.total_len) return std::nullopt;
  // Check contiguity from 0 to total_len.
  std::size_t cursor = 0;
  for (const auto& [foff, bytes] : p.frags) {
    if (foff > cursor) return std::nullopt;  // hole
    cursor = std::max(cursor, static_cast<std::size_t>(foff) + bytes.size());
  }
  if (cursor < *p.total_len) return std::nullopt;

  std::vector<std::byte> out(*p.total_len);
  for (const auto& [foff, bytes] : p.frags) {
    const std::size_t n =
        std::min(bytes.size(), out.size() - std::min<std::size_t>(foff, out.size()));
    std::copy_n(bytes.begin(), n, out.begin() + foff);
  }
  parts_.erase(key);
  ++stats_.reassembled;
  return out;
}

void FragReassembler::expire(sim::Ns now) {
  for (auto it = parts_.begin(); it != parts_.end();) {
    if (now >= it->second.deadline) {
      it = parts_.erase(it);
      ++stats_.expired;
    } else {
      ++it;
    }
  }
}

}  // namespace cherinet::fstack
