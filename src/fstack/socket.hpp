// Socket objects and the fd table.
#pragma once

#include <memory>
#include <vector>

#include "fstack/epoll.hpp"
#include "fstack/tcp_pcb.hpp"
#include "fstack/udp.hpp"

namespace cherinet::fstack {

enum class SockKind : std::uint8_t { kTcp, kUdp, kEpoll };

struct Socket {
  int fd = -1;
  SockKind kind = SockKind::kTcp;
  TcpPcb* pcb = nullptr;                  // kTcp (owned by the stack maps)
  std::unique_ptr<UdpPcb> udp;            // kUdp
  std::unique_ptr<EpollInstance> epoll;   // kEpoll
  bool bound = false;
  bool listening = false;
  /// QoS traffic class (0 = default/bulk; see qos.hpp). TCP keeps the
  /// authoritative copy on the PCB so pure-protocol emissions (ACKs,
  /// retransmits) classify too; this mirror covers UDP and zc paths.
  std::uint8_t tclass = 0;
  /// Owning tenant (0 = untenanted; see tenant.hpp). Mirrors tclass: the
  /// PCB keeps the authoritative copy for TCP so protocol-only emissions
  /// attribute their parked/pinned buffers too.
  int tenant = 0;
  Ipv4Addr local_ip{};
  std::uint16_t local_port = 0;
};

/// fd allocation starting at 3 (F-Stack fds are separate from host fds).
class SocketTable {
 public:
  static constexpr int kFirstFd = 3;
  /// Live sockets per stack; create() fails past this.
  static constexpr std::size_t kMaxSockets = 1024;

  /// Allocate a socket; returns nullptr when the table is full.
  Socket* create(SockKind kind);
  [[nodiscard]] Socket* get(int fd);
  [[nodiscard]] const Socket* get(int fd) const;
  /// Release the fd slot (the caller has already torn down protocol state).
  void release(int fd);

  /// Iterate live sockets.
  template <typename F>
  void for_each(F&& f) {
    for (auto& s : slots_) {
      if (s) f(*s);
    }
  }

 private:
  std::size_t open_ = 0;
  std::vector<std::unique_ptr<Socket>> slots_;
};

}  // namespace cherinet::fstack
