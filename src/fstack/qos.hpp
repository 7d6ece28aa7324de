// Classed QoS TX scheduling over the staged tx_burst (API v7).
//
// PR 5 made emission leave in one tx_burst of up to 32 chains per loop
// turn; until now that stage was a FIFO, so one bulk iperf flow could fill
// every burst slot and a latency-critical echo flow waited behind 32
// full-size frames. The QosScheduler replaces the flat stage with
// kQosClasses per-class queues drained by DEFICIT ROUND-ROBIN: every
// backlogged class earns `quantum_bytes` of deficit per round and sends
// frames while its deficit (and token bucket) covers them — bulk cannot
// monopolize the burst window, and no backlogged class ever starves.
//
// Each class also carries an optional TOKEN BUCKET rate limit
// (`rate_bytes_per_sec`, depth `burst_bytes`; 0 = unlimited): frames past
// the bucket stay queued (pacing, not loss) and become eligible as virtual
// time refills the bucket — `next_release` hands the earliest such instant
// to FfStack::next_deadline so the loop driving the clock wakes exactly then.
//
// Flows pick their class with ff_set_class / OP_SET_CLASS (class 0 =
// default/bulk .. kQosClasses-1 = highest; accepted connections inherit the
// listener's class). The stack's own network control traffic (ARP) rides
// the top class so impaired links keep resolving next hops.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "sim/virtual_clock.hpp"

namespace cherinet::updk {
class Mbuf;
}  // namespace cherinet::updk

namespace cherinet::fstack {

inline constexpr std::uint8_t kQosClasses = 4;
/// The class the stack's own control frames (ARP) ride.
inline constexpr std::uint8_t kQosClassControl = kQosClasses - 1;

struct QosClassConfig {
  /// Token-bucket rate; 0 = unlimited (bucket ignored).
  std::uint64_t rate_bytes_per_sec = 0;
  /// Bucket depth: the largest burst a paced class may emit at once.
  std::uint32_t burst_bytes = 64 * 1024;
  /// DRR quantum: bytes of deficit earned per scheduling round.
  std::uint32_t quantum_bytes = 4096;
  /// Staged chains the class may hold (beyond it: flush, then drop-oldest).
  std::size_t queue_cap = 128;
};

struct QosConfig {
  std::array<QosClassConfig, kQosClasses> cls{};
};

class QosScheduler {
 public:
  QosScheduler() { configure(QosConfig{}); }

  /// Replace the config; refills every bucket and clears deficits (queued
  /// frames stay queued).
  void configure(const QosConfig& cfg);

  struct Picked {
    updk::Mbuf* chain = nullptr;
    std::uint32_t bytes = 0;
    std::uint8_t cls = 0;
  };

  /// Stage one frame chain; false when the class queue is at cap (the
  /// frame was NOT taken).
  [[nodiscard]] bool enqueue(std::uint8_t cls, updk::Mbuf* chain,
                             std::uint32_t bytes);
  /// Remove and return the class's oldest staged chain (drop-oldest
  /// overflow policy); nullptr when empty.
  [[nodiscard]] updk::Mbuf* evict_oldest(std::uint8_t cls);

  /// Fill `out` with up to out.size() chains by deficit round-robin,
  /// highest class first within a round, honoring token buckets at `now`.
  /// Selected chains are REMOVED; hand back any device-refused tail with
  /// unselect (refunds tokens and deficit, restores queue order).
  std::size_t select(sim::Ns now, std::span<Picked> out);
  void unselect(std::span<const Picked> rejected);

  [[nodiscard]] std::size_t staged() const noexcept { return staged_; }
  [[nodiscard]] std::size_t staged(std::uint8_t cls) const {
    return cls_.at(cls).q.size();
  }
  /// Earliest virtual time a token-blocked frame becomes eligible; nullopt
  /// when nothing is waiting on a bucket.
  [[nodiscard]] std::optional<sim::Ns> next_release(sim::Ns now) const;
  /// Drain every queue (teardown); returns the chains in no particular
  /// order for the caller to free.
  [[nodiscard]] std::vector<updk::Mbuf*> drain_all();

  struct Stats {
    std::array<std::uint64_t, kQosClasses> enqueued{};
    std::array<std::uint64_t, kQosClasses> sent{};  // committed selections
    /// select() rounds where the class's front frame waited on its bucket.
    std::array<std::uint64_t, kQosClasses> throttled{};
    std::uint64_t drr_rounds = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Waiting {
    updk::Mbuf* chain;
    std::uint32_t bytes;
  };
  struct ClassQ {
    std::deque<Waiting> q;
    double tokens = 0.0;
    sim::Ns last_fill{0};
    std::int64_t deficit = 0;
  };
  void refill(ClassQ& cq, const QosClassConfig& cc, sim::Ns now);

  QosConfig cfg_;
  std::array<ClassQ, kQosClasses> cls_;
  std::size_t staged_ = 0;
  Stats stats_;
};

}  // namespace cherinet::fstack
