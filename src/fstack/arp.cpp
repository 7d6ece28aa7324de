#include "fstack/arp.hpp"

namespace cherinet::fstack {

std::optional<nic::MacAddr> ArpCache::lookup(Ipv4Addr ip, sim::Ns now) const {
  const auto it = cache_.find(ip);
  if (it == cache_.end() || now >= it->second.expires) return std::nullopt;
  return it->second.mac;
}

void ArpCache::insert(Ipv4Addr ip, nic::MacAddr mac, sim::Ns now) {
  cache_[ip] = Entry{mac, now + cfg_.entry_ttl};
}

bool ArpCache::park(Ipv4Addr next_hop, updk::Mbuf* frame, sim::Ns now) {
  if (frame == nullptr) return false;
  Hop& hop = pending_[next_hop];
  const std::size_t bytes = frame->pkt_len();
  if (hop.frames.size() >= cfg_.max_pending_per_hop ||
      hop.bytes + bytes > cfg_.max_pending_bytes_per_hop) {
    stats_.drops++;
    stats_.dropped_bytes += bytes;
    return false;
  }
  if (hop.frames.empty()) hop.oldest = now;
  hop.frames.push_back(frame);
  hop.bytes += bytes;
  stats_.parked++;
  return true;
}

std::vector<updk::Mbuf*> ArpCache::take_expired(sim::Ns now) {
  std::vector<updk::Mbuf*> out;
  for (auto it = pending_.begin(); it != pending_.end();) {
    Hop& hop = it->second;
    if (!hop.frames.empty() && now - hop.oldest >= kPendingTtl) {
      stats_.expired += hop.frames.size();
      out.insert(out.end(), hop.frames.begin(), hop.frames.end());
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::optional<sim::Ns> ArpCache::next_expiry() const {
  std::optional<sim::Ns> d;
  for (const auto& [ip, hop] : pending_) {
    if (hop.frames.empty()) continue;
    const sim::Ns e = hop.oldest + kPendingTtl;
    if (!d || e < *d) d = e;
  }
  return d;
}

std::vector<updk::Mbuf*> ArpCache::take_parked(Ipv4Addr ip) {
  const auto it = pending_.find(ip);
  if (it == pending_.end()) return {};
  auto out = std::move(it->second.frames);
  pending_.erase(it);
  return out;
}

std::vector<updk::Mbuf*> ArpCache::take_all_parked() {
  std::vector<updk::Mbuf*> out;
  for (auto& [ip, hop] : pending_) {
    out.insert(out.end(), hop.frames.begin(), hop.frames.end());
  }
  pending_.clear();
  return out;
}

bool ArpCache::should_request(Ipv4Addr ip, sim::Ns now) {
  const auto it = last_request_.find(ip);
  if (it != last_request_.end() && now - it->second < kRequestInterval) {
    return false;
  }
  last_request_[ip] = now;
  return true;
}

std::size_t ArpCache::pending_packets() const noexcept {
  std::size_t n = 0;
  for (const auto& [ip, hop] : pending_) n += hop.frames.size();
  return n;
}

std::size_t ArpCache::pending_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& [ip, hop] : pending_) n += hop.bytes;
  return n;
}

}  // namespace cherinet::fstack
