// ARP cache with pending-frame parking.
//
// The stack parks outbound frames per unresolved next-hop and flushes them
// when the reply arrives; requests are rate-limited per address. Parked
// frames are MBUFS (the IP packet at data start, headroom left for the
// Ethernet header that can only be written once the MAC resolves) — not
// byte-vector copies: parking costs a pool buffer, not an unbounded heap
// allocation, and the queue is capped both in frames and in BYTES per hop
// so an unresolvable flood cannot pin the pool (drops are counted).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fstack/inet.hpp"
#include "nic/mac.hpp"
#include "sim/virtual_clock.hpp"
#include "updk/mbuf.hpp"

namespace cherinet::fstack {

class ArpCache {
 public:
  struct Config {
    sim::Ns entry_ttl{60'000'000'000};  // 60 s
    std::size_t max_pending_per_hop = 16;
    std::size_t max_pending_bytes_per_hop = 32 * 1024;
  };
  /// Re-request one address at most this often.
  static constexpr sim::Ns kRequestInterval{100'000'000};  // 100 ms
  /// How long a hop's parked frames may wait for resolution before they
  /// are dropped (Linux neighbour-queue style): parked mbufs pin pool
  /// buffers, so an unresolvable hop must not hold them forever.
  static constexpr sim::Ns kPendingTtl{1'000'000'000};  // 1 s

  ArpCache() : ArpCache(Config{}) {}
  explicit ArpCache(Config cfg) : cfg_(cfg) {}

  [[nodiscard]] std::optional<nic::MacAddr> lookup(Ipv4Addr ip,
                                                   sim::Ns now) const;
  void insert(Ipv4Addr ip, nic::MacAddr mac, sim::Ns now);

  /// Park one frame mbuf until `next_hop` resolves. Ownership transfers on
  /// true; false (per-hop frame or byte cap exceeded — counted in stats)
  /// leaves the mbuf with the caller to free.
  bool park(Ipv4Addr next_hop, updk::Mbuf* frame, sim::Ns now);

  /// Frames whose hop has been unresolved past kPendingTtl: ownership
  /// moves to the caller (the stack frees them to its pool). Counted as
  /// expirations in stats.
  [[nodiscard]] std::vector<updk::Mbuf*> take_expired(sim::Ns now);

  /// Earliest moment a parked frame outwaits kPendingTtl (nullopt when no
  /// frames are parked) — what FfStack registers into its timer wheel so
  /// expiry is deadline-driven, not polled per loop turn.
  [[nodiscard]] std::optional<sim::Ns> next_expiry() const;

  /// Take all frames waiting on `ip` (called on ARP reply). The caller
  /// owns the returned mbufs.
  [[nodiscard]] std::vector<updk::Mbuf*> take_parked(Ipv4Addr ip);

  /// Drain every parked frame (stack teardown frees them to the pool).
  [[nodiscard]] std::vector<updk::Mbuf*> take_all_parked();

  /// Take every parked frame for which `pred(mbuf)` holds, across all hops
  /// (tenant eviction: reclaim ONE tenant's parked frames while its
  /// neighbours' keep waiting for resolution). The caller owns the
  /// returned mbufs; per-hop byte accounting is adjusted.
  template <typename Pred>
  [[nodiscard]] std::vector<updk::Mbuf*> take_parked_if(Pred&& pred) {
    std::vector<updk::Mbuf*> out;
    for (auto it = pending_.begin(); it != pending_.end();) {
      Hop& hop = it->second;
      std::size_t keep = 0;
      for (updk::Mbuf* f : hop.frames) {
        if (pred(f)) {
          hop.bytes -= f->pkt_len();
          out.push_back(f);
        } else {
          hop.frames[keep++] = f;
        }
      }
      hop.frames.resize(keep);
      // hop.oldest is left as-is: it can only be pessimistic (an earlier
      // park time), so pending-TTL expiry never fires late.
      it = hop.frames.empty() ? pending_.erase(it) : std::next(it);
    }
    return out;
  }

  /// True if a request to `ip` should be transmitted now (rate limit).
  [[nodiscard]] bool should_request(Ipv4Addr ip, sim::Ns now);

  [[nodiscard]] std::size_t entries() const noexcept { return cache_.size(); }
  [[nodiscard]] std::size_t pending_packets() const noexcept;
  [[nodiscard]] std::size_t pending_bytes() const noexcept;

  struct Stats {
    std::uint64_t parked = 0;         // frames accepted into a hop queue
    std::uint64_t drops = 0;          // frames refused (hop queue capped)
    std::uint64_t dropped_bytes = 0;  // bytes those refusals carried
    std::uint64_t expired = 0;        // parked frames that outwaited the TTL
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    nic::MacAddr mac;
    sim::Ns expires;
  };
  struct Hop {
    std::vector<updk::Mbuf*> frames;
    std::size_t bytes = 0;
    sim::Ns oldest{0};  // park time of the longest-waiting frame
  };
  struct IpHash {
    std::size_t operator()(const Ipv4Addr& a) const noexcept {
      return std::hash<std::uint32_t>{}(a.value);
    }
  };

  Config cfg_;
  std::unordered_map<Ipv4Addr, Entry, IpHash> cache_;
  std::unordered_map<Ipv4Addr, Hop, IpHash> pending_;
  std::unordered_map<Ipv4Addr, sim::Ns, IpHash> last_request_;
  Stats stats_;
};

}  // namespace cherinet::fstack
