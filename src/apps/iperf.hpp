// iperf3-like TCP bandwidth measurement application, ported to the ff_* API
// with epoll (paper §III-B). Step-driven (never blocks) so it can run inside
// the F-Stack main loop (Scenario 1) or as a separate compartment behind
// proxied ops (Scenario 2).
#pragma once

#include <cstdint>
#include <optional>

#include "apps/ff_ops.hpp"
#include "apps/uring_proto.hpp"
#include "fstack/uring.hpp"
#include "sim/virtual_clock.hpp"
#include "stats/stats.hpp"

namespace cherinet::apps {

struct IperfReport {
  std::uint64_t bytes = 0;
  sim::Ns first_byte{0};
  sim::Ns last_byte{0};

  [[nodiscard]] double mbit_per_sec() const {
    const double secs =
        static_cast<double>((last_byte - first_byte).count()) / 1e9;
    return secs > 0 ? static_cast<double>(bytes) * 8.0 / secs / 1e6 : 0.0;
  }
};

/// Receiver ("server mode" in the paper's Table II).
class IperfServer {
 public:
  static constexpr std::size_t kZcBatch = 16;

  /// `rx` must be a writable capability buffer (>= 16 KiB recommended).
  /// With `zero_copy`, connections drain through ff_zc_recv loans +
  /// ff_zc_recycle instead of copying reads.
  IperfServer(FfOps* ops, sim::VirtualClock* clock, std::uint16_t port,
              machine::CapView rx, int expected_connections = 1,
              bool zero_copy = false);
  /// Detaches a still-armed ff_uring (the ring region is app memory; the
  /// stack's delegated capability must not outlive the server).
  ~IperfServer();

  /// API v3 port: run the whole receive side over one ff_uring — accepted
  /// fds, readiness, zc loans and recycles all flow through the ring's CQ/
  /// SQ with zero crossings per op (the arming call is the one crossing).
  /// `ring_mem` must hold FfUring::bytes_for(sq, cq) bytes of app memory.
  /// Returns 0 or -errno.
  int use_uring(machine::CapView ring_mem, std::uint32_t sq_capacity,
                std::uint32_t cq_capacity);

  /// Drive the server; returns true when progress was made.
  bool step();
  [[nodiscard]] bool finished() const noexcept {
    return completed_ == expected_;
  }
  /// Aggregate report across connections.
  [[nodiscard]] const IperfReport& report() const noexcept { return total_; }
  [[nodiscard]] int connections_completed() const noexcept {
    return completed_;
  }
  /// Per-connection reports (Table II lists each cVM's stream separately).
  [[nodiscard]] std::vector<IperfReport> connection_reports() const {
    std::vector<IperfReport> out;
    for (const auto& c : conns_) out.push_back(c.report);
    return out;
  }

 private:
  struct Conn {
    int fd = -1;
    IperfReport report;
    bool done = false;
    bool hot = false;       // uring mode: a drain burst is worth submitting
    bool inflight = false;  // uring mode: a zc burst CQE train outstanding
  };
  struct RxDispatch;  // uring_proto CQE handler (defined in iperf.cpp)

  void drain(Conn& c);
  void drain_zero_copy(Conn& c);
  void finish(Conn& c);
  void accept_ready();
  bool step_uring();
  /// Drain queued recycle entries, return tail tokens, detach the ring.
  void uring_teardown();

  FfOps* ops_;
  sim::VirtualClock* clock_;
  machine::CapView rx_;
  int listen_fd_ = -1;
  int epfd_ = -1;  // iperf3 was ported onto epoll (paper §III-B)
  int expected_;
  int completed_ = 0;
  const bool zero_copy_;
  std::optional<fstack::FfUring> uring_;  // v3: the whole RX pipeline
  int uring_id_ = -1;
  // Per-connection burst credits (shared ledger in uring_proto.hpp): up to
  // credits() connections overlap one zc burst each inside the CQ window.
  // Replaces the old single global in-flight burst, which serialized
  // multi-connection harvests.
  UringBurstCredits ur_credits_;
  std::size_t ur_next_conn_ = 0;  // round-robin cursor for burst fairness
  fstack::FfUringRecycler ur_recycler_;
  fstack::FfUringDoorbellPolicy ur_bell_;
  std::vector<Conn> conns_;
  IperfReport total_;
};

/// Sender ("client mode"). Like the ported iperf3 (§III-B), it waits on
/// epoll: a step writes only when epoll_wait reports send space, and stops
/// at the first short write (the buffer is full). Send space means the
/// send buffer has passed its low-water mark (a fifth of it free,
/// TcpPcb::kSendLowatDiv), so each wake buys a batch of writes rather than
/// the few segments one ACK frees. `batch` > 1 drives the
/// API-v2 gather path: each write submits up to `batch` MSS-sized iovecs
/// through one ff_writev (one compartment crossing per batch behind
/// proxied ops).
class IperfClient {
 public:
  static constexpr std::size_t kMaxBatch = 64;

  IperfClient(FfOps* ops, sim::VirtualClock* clock, fstack::Ipv4Addr dst,
              std::uint16_t port, std::uint64_t total_bytes,
              machine::CapView tx, std::size_t chunk = 1448,
              std::size_t batch = 1);
  ~IperfClient();  // detaches a still-armed ff_uring

  /// API v3 port: submit the send stream as OP_WRITEV SQEs (up to 8
  /// exactly-bounded iovec caps each) and account completions from the CQ
  /// — zero crossings per batch after the one arming call. With
  /// `zero_copy`, the stream instead rides the TCP zc TX pipeline:
  /// OP_ZC_ALLOC grants writable mbuf data rooms, the payload is composed
  /// in place, and OP_ZC_SEND queues retained references the stack holds
  /// until cumulative ACK — zero send-side byte copies. Returns 0 or
  /// -errno.
  int use_uring(machine::CapView ring_mem, std::uint32_t sq_capacity,
                std::uint32_t cq_capacity, bool zero_copy = false);

  bool step();
  [[nodiscard]] bool finished() const noexcept { return done_; }
  [[nodiscard]] const IperfReport& report() const noexcept { return report_; }

 private:
  enum class State : std::uint8_t { kConnecting, kSending, kClosed };

  bool step_uring_send();
  /// The copying send path's wait: true when epoll_wait reports fd_
  /// writable (or epoll is unavailable). Makes the epfd on first use.
  bool send_space();
  void client_summary();

  FfOps* ops_;
  sim::VirtualClock* clock_;
  fstack::Ipv4Addr dst_;
  std::uint16_t port_;
  std::uint64_t total_;
  machine::CapView tx_;
  std::size_t chunk_;
  std::size_t batch_;
  int fd_ = -1;
  int epfd_ = -1;  // kEpollOut on fd_; made by the first copying send step
  State state_ = State::kConnecting;
  std::uint64_t sent_ = 0;
  bool done_ = false;
  std::optional<fstack::FfUring> uring_;  // v3: ring-submitted send stream
  int uring_id_ = -1;
  bool ur_zero_copy_ = false;
  UringTxProto tx_proto_;      // OP_WRITEV offer/re-offer (shared protocol)
  UringZcTxProto zc_proto_;    // OP_ZC_ALLOC/OP_ZC_SEND pipeline
  std::uint64_t ur_ext_ = 0;   // bytes that moved outside the ring (probe)
  fstack::FfUringDoorbellPolicy bell_;
  IperfReport report_;
};

}  // namespace cherinet::apps
