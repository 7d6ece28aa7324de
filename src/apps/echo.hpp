// TCP echo server/client helpers for examples and integration tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/ff_ops.hpp"
#include "fstack/uring.hpp"

namespace cherinet::apps {

/// Step-driven echo server: reads from every accepted connection and writes
/// the bytes straight back.
class EchoServer {
 public:
  EchoServer(FfOps* ops, std::uint16_t port, machine::CapView scratch);
  ~EchoServer();  // detaches a still-armed ff_uring

  /// API v3 port: accept through an ff_uring OP_ACCEPT_MULTISHOT arm.
  /// The classic path calls accept() every step — behind proxied ops that
  /// is one sealed-entry crossing per step even when the queue is empty;
  /// armed, accepted fds arrive as CQEs with zero crossings. Returns 0 or
  /// -errno.
  int use_uring(machine::CapView ring_mem, std::uint32_t sq_capacity,
                std::uint32_t cq_capacity);

  bool step();
  [[nodiscard]] std::uint64_t bytes_echoed() const noexcept {
    return echoed_;
  }

 private:
  FfOps* ops_;
  machine::CapView scratch_;
  int listen_fd_ = -1;
  std::optional<fstack::FfUring> uring_;  // v3: multishot accept CQEs
  int uring_id_ = -1;
  std::vector<int> conns_;
  std::uint64_t echoed_ = 0;
};

/// Step-driven echo client: sends `message` and collects the echo.
class EchoClient {
 public:
  EchoClient(FfOps* ops, fstack::Ipv4Addr dst, std::uint16_t port,
             std::string message, machine::CapView scratch);
  bool step();
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const std::string& reply() const noexcept { return reply_; }

 private:
  FfOps* ops_;
  machine::CapView scratch_;
  std::string message_;
  std::string reply_;
  int fd_ = -1;
  std::size_t sent_ = 0;
  bool done_ = false;
};

}  // namespace cherinet::apps
