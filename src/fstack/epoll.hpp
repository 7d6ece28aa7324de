// F-Stack epoll: the event mechanism the paper ported iperf3 onto
// ("we replaced the select function with the epoll mechanism, which adapts
// better to F-Stack", §III-B).
//
// Level-triggered readiness over the stack's socket table. Waiting never
// blocks — F-Stack applications run inside (or against) the polling main
// loop, so ff_epoll_wait(timeout=0) is the idiomatic call.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

namespace cherinet::fstack {

inline constexpr std::uint32_t kEpollIn = 0x1;
/// Send space. A TCP socket reports it once its send buffer has passed the
/// low-water mark (a fifth of it free, TcpPcb::kSendLowatDiv), so a writer
/// wakes for a batch; a UDP socket always reports it.
inline constexpr std::uint32_t kEpollOut = 0x4;
inline constexpr std::uint32_t kEpollErr = 0x8;
inline constexpr std::uint32_t kEpollHup = 0x10;

struct FfEpollEvent {
  std::uint32_t events = 0;
  std::uint64_t data = 0;  // user cookie (typically the fd)
};

enum class EpollOp : std::uint8_t { kAdd = 1, kDel = 2, kMod = 3 };

class EpollInstance {
 public:
  struct Interest {
    std::uint32_t events = 0;
    std::uint64_t data = 0;
    // The edge publisher's record for this fd (see publish): the last
    // mask published (0: quiet, or nothing yet) and its generation.
    std::uint32_t published = 0;
    std::uint64_t published_gen = 0;
  };

  int ctl(EpollOp op, int fd, std::uint32_t events, std::uint64_t data);
  [[nodiscard]] const std::map<int, Interest>& interest() const noexcept {
    return interest_;
  }

  // ---- multishot delivery (the ff_uring OP_EPOLL_ARM path) ----
  // While armed, the owning stack publishes readiness-CHANGE events through
  // the sink every main-loop iteration; the application reaps them as CQEs
  // without crossing back in (io_uring multishot poll). publish_all() is the
  // stack's one edge publisher: accepted fds join an armed interest set
  // through ctl (OP_EPOLL_CTL) — there is no per-fd arm beside it.

  /// Arm (or re-arm) with a completion sink: each publication calls
  /// sink(ready, data); a false return means the sink deferred (full CQ)
  /// and the event stays unpublished, to retry on a later iteration.
  void arm_sink(std::function<bool(std::uint32_t, std::uint64_t)> sink);
  void disarm();
  [[nodiscard]] bool armed() const noexcept { return sink_ != nullptr; }

  /// Publish each watched fd's readiness if its mask changed OR new
  /// readiness activity happened since its last publication. `probe(fd,
  /// events)` answers {ready mask, gen}; `gen` is a monotonic per-fd
  /// activity counter (bytes delivered, connections queued, bytes
  /// acknowledged under an OUT mask). Without the generation, a consumer
  /// that drains to -EAGAIN (or fills the send buffer) right before more
  /// data lands (or an ACK frees space) would never see another event —
  /// the classic edge-trigger lost wakeup. A quiet mask is recorded, never
  /// delivered; a deferring sink (full CQ) leaves the record for a retry.
  /// Returns the events delivered.
  template <typename Probe>
  int publish_all(Probe&& probe) {
    int delivered = 0;
    deferred_ = false;
    for (auto& [fd, w] : interest_) delivered += publish(fd, w, probe);
    return delivered;
  }
  /// publish_all for `fd` alone (0 if the set does not watch it). A
  /// deferral sets deferred(), so the next publish_all retries it.
  template <typename Probe>
  int publish_one(int fd, Probe&& probe) {
    const auto it = interest_.find(fd);
    return it == interest_.end() ? 0 : publish(fd, it->second, probe);
  }
  /// An edge is unposted since the last publish_all (the sink deferred).
  [[nodiscard]] bool deferred() const noexcept { return deferred_; }

 private:
  template <typename Probe>
  int publish(int fd, Interest& w, Probe& probe) {
    const auto [ready, gen] = probe(fd, w.events);
    if (ready == 0) {
      w.published = 0;
      w.published_gen = gen;
      return 0;
    }
    if (ready == w.published && gen == w.published_gen) return 0;
    if (!sink_(ready, w.data)) {
      deferred_ = true;
      return 0;
    }
    w.published = ready;
    w.published_gen = gen;
    return 1;
  }

  /// Forget every publication: the next pass republishes all readiness.
  void forget_published();

  std::map<int, Interest> interest_;
  std::function<bool(std::uint32_t, std::uint64_t)> sink_;
  bool deferred_ = false;
};

}  // namespace cherinet::fstack
