// CheriBSD _umtx_op(2) emulation: address-keyed wait/wake on a 32-bit word
// in tagged memory.
//
// This is the kernel half of every blocking primitive in the system: musl's
// futex calls are translated to these operations by the Intravisor (paper
// §III-B). Semantics follow umtx/futex: WAIT atomically re-checks the word
// under the internal lock and blocks only while it still equals `expected`;
// WAKE wakes up to n waiters parked on the same physical address.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>

#include "cheri/capability.hpp"
#include "cheri/tagged_memory.hpp"

namespace cherinet::host {

class UmtxTable {
 public:
  explicit UmtxTable(cheri::TaggedMemory* mem) : mem_(mem) {}
  UmtxTable(const UmtxTable&) = delete;
  UmtxTable& operator=(const UmtxTable&) = delete;

  enum class WaitResult : std::uint8_t {
    kWoken,        // a WAKE hit us
    kValueChanged, // word != expected at entry (EAGAIN)
  };

  /// UMTX_OP_WAIT_UINT. The word is read through `auth` (a capability
  /// check — a cVM cannot park the kernel on memory it cannot read).
  WaitResult wait_uint(const cheri::Capability& auth, std::uint64_t addr,
                       std::uint32_t expected);

  /// UMTX_OP_WAKE: wake up to `count` waiters; returns how many were woken.
  int wake(std::uint64_t addr, int count);

  /// Number of blocking waits that actually parked (diagnostics).
  [[nodiscard]] std::uint64_t sleeps() const;

 private:
  struct WaitQueue {
    std::condition_variable cv;
    int pending_wakes = 0;
    int waiters = 0;
  };

  cheri::TaggedMemory* mem_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, WaitQueue> queues_;
  std::uint64_t sleeps_ = 0;
};

}  // namespace cherinet::host
