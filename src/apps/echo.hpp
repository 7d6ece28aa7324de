// TCP echo server/client helpers for examples and integration tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/ff_ops.hpp"

namespace cherinet::apps {

/// Step-driven echo server: reads from every connection epoll reports
/// ready and writes the bytes straight back. One epoll instance holds the
/// listener and every accepted fd, so an idle step is one epoll_wait call
/// (behind proxied ops, one sealed-entry crossing) however many
/// connections are open.
class EchoServer {
 public:
  EchoServer(FfOps* ops, std::uint16_t port, machine::CapView scratch);

  bool step();
  /// Bytes the stack accepted back from writev (not merely bytes read).
  [[nodiscard]] std::uint64_t bytes_echoed() const noexcept {
    return echoed_;
  }

 private:
  struct Conn {
    int fd = -1;
    bool ready = false;  // reported by epoll (or accepted) this step
    // Echo bytes the stack has not taken yet. The scratch buffer is
    // shared between connections, so they wait here; the connection is
    // not read again until they are out.
    std::vector<std::byte> tail;
  };

  bool accept_ready();
  /// Write scratch_[0, n) to `c`; what the stack does not take becomes
  /// c.tail. Returns false once the connection failed.
  bool send(Conn& c, std::size_t n, bool& progress);
  /// Serve one ready connection. Returns false once it is finished (EOF
  /// or a failed call) and must be closed.
  bool serve(Conn& c, bool& progress);

  FfOps* ops_;
  machine::CapView scratch_;
  fstack::FfIovec halves_[2];  // readv targets: the two halves of scratch_
  int listen_fd_ = -1;
  int epfd_ = -1;
  std::vector<Conn> conns_;
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
