// Ablation — locking strategies for the Scenario 2 coordination mutex.
//
// This bench owns the mechanism behind the paper's Fig. 6: it is the one
// place real futex contention between host threads is timed. The Fig. 6
// bench runs on the single-threaded lockstep rig, where every stack-mutex
// acquisition is a fast path.
//
// The paper's future work: "investigate in detail the impact of different
// locking strategies to further reduce the overhead of our designs" (§IV).
// We compare these strategies for the main-loop/API mutex under 2-thread
// contention:
//   * futex-mutex  — the paper's design: user-space CAS fast path, kernel
//                    escalation through trampoline + _umtx_op;
//   * spinlock     — pure user-space CAS spinning on the shared word (no
//                    kernel, burns the polling cores);
//   * native-mutex — a host std::mutex (what a non-compartmentalized
//                    baseline process would use);
//   * sharded-futex — one futex mutex per thread, as attach-time shard
//                    pinning gives each flow (gated contention-free).
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "intravisor/compartment_mutex.hpp"

using namespace cherinet;

namespace {
constexpr int kIters = 20'000;

/// Two threads (t = 0, 1) each run kIters critical sections bracketed by
/// lock(t) / unlock(t); returns the wall-clock ns per section.
template <typename LockFn, typename UnlockFn>
double contended_ns_per_section(LockFn&& lock, UnlockFn&& unlock) {
  std::atomic<bool> go{false};
  std::atomic<long> counter{0};
  auto body = [&](int t) {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < kIters; ++i) {
      lock(t);
      counter.fetch_add(1, std::memory_order_relaxed);
      unlock(t);
    }
  };
  std::thread t1(body, 0), t2(body, 1);
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                 .count()) /
         (2.0 * kIters);
}
}  // namespace

int main() {
  bench::print_header("Ablation: locking strategies for the stack mutex",
                      "paper §IV future work (locking strategies)");

  iv::Intravisor::Config cfg;
  cfg.memory_bytes = 32u << 20;
  iv::Intravisor ivr(cfg);
  auto& c1 = ivr.create_cvm("cVM2", 1u << 20);
  auto& c2 = ivr.create_cvm("cVM3", 1u << 20);

  // 1. The paper's futex mutex (trampoline + umtx escalation), each
  // thread locking through its own cVM's libc.
  iv::MuslLibc* libc[2] = {&c1.libc(), &c2.libc()};
  auto word = ivr.grant_shared(64, "ablation-mutex");
  word.store<std::uint32_t>(0, 0);
  iv::CompartmentMutex futex_mutex(&c1.libc(), word.window(0, 4));
  const double futex_ns = contended_ns_per_section(
      [&](int t) { futex_mutex.lock(libc[t]); },
      [&](int t) { futex_mutex.unlock(libc[t]); });

  // 2. Pure spinlock on a shared capability word.
  auto spin_word = ivr.grant_shared(64, "ablation-spin");
  spin_word.store<std::uint32_t>(0, 0);
  auto& mem = ivr.address_space().mem();
  const auto spin_cap = spin_word.cap();
  const auto spin_addr = spin_word.address();
  const double spin_ns = contended_ns_per_section(
      [&](int) {
        while (mem.atomic_cas_u32(spin_cap, spin_addr, 0, 1) != 0) {
        }
      },
      [&](int) { (void)mem.atomic_exchange_u32(spin_cap, spin_addr, 0); });

  // 3. Host-native mutex (baseline reference).
  std::mutex native;
  const double native_ns = contended_ns_per_section(
      [&](int) { native.lock(); }, [&](int) { native.unlock(); });

  // 4. Per-shard futex mutexes — the sharded-stack design: the same two
  // contenders, but each flow pinned to its OWN shard mutex (RSS steering
  // guarantees a flow only ever touches one shard). Structurally zero
  // cross-flow contention: every acquisition must take the fast path.
  auto word_s0 = ivr.grant_shared(64, "ablation-shard0");
  auto word_s1 = ivr.grant_shared(64, "ablation-shard1");
  word_s0.store<std::uint32_t>(0, 0);
  word_s1.store<std::uint32_t>(0, 0);
  iv::CompartmentMutex shard_mutex[2] = {
      {&c1.libc(), word_s0.window(0, 4)},
      {&c2.libc(), word_s1.window(0, 4)},
  };
  const double sharded_ns = contended_ns_per_section(
      [&](int t) { shard_mutex[t].lock(libc[t]); },
      [&](int t) { shard_mutex[t].unlock(libc[t]); });

  std::printf("%-14s %16s %26s\n", "strategy", "ns/section",
              "notes");
  std::printf("%-14s %16.0f %26s\n", "futex-mutex", futex_ns,
              "paper design (umtx path)");
  std::printf("%-14s %16.0f %26s\n", "spinlock", spin_ns,
              "no kernel, burns cores");
  std::printf("%-14s %16.0f %26s\n", "native-mutex", native_ns,
              "non-CHERI reference");
  std::printf("%-14s %16.0f %26s\n", "sharded-futex", sharded_ns,
              "per-shard mutex (RSS pin)");
  std::printf("\nfutex stats: fast=%llu contended=%llu kernel sleeps=%llu\n",
              static_cast<unsigned long long>(futex_mutex.fast_acquires()),
              static_cast<unsigned long long>(
                  futex_mutex.contended_acquires()),
              static_cast<unsigned long long>(ivr.host().umtx().sleeps()));
  for (int s = 0; s < 2; ++s) {
    std::printf("shard %d mutex: fast=%llu contended=%llu\n", s,
                static_cast<unsigned long long>(
                    shard_mutex[s].fast_acquires()),
                static_cast<unsigned long long>(
                    shard_mutex[s].contended_acquires()));
  }
  std::printf("Takeaway: the trampoline+umtx escalation dominates contended "
              "cost (the paper's Fig. 6); a spinlock trades that cost for "
              "burned polling cycles, which DPDK-style designs may prefer. "
              "Sharding removes the contention instead of pricing it: with "
              "one mutex per shard every acquisition is a fast path.\n");

  // Gate: per-shard mutexes must show ZERO contended acquisitions — the
  // whole point of attach-time shard pinning — while still accounting for
  // every critical section.
  int rc = 0;
  for (int s = 0; s < 2; ++s) {
    if (shard_mutex[s].contended_acquires() != 0 ||
        shard_mutex[s].fast_acquires() != kIters) {
      std::fprintf(stderr,
                   "FAIL: shard %d mutex fast=%llu contended=%llu — "
                   "expected %d fast, 0 contended\n",
                   s,
                   static_cast<unsigned long long>(
                       shard_mutex[s].fast_acquires()),
                   static_cast<unsigned long long>(
                       shard_mutex[s].contended_acquires()),
                   kIters);
      rc = 1;
    }
  }
  return rc;
}
