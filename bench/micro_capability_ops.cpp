// Microbenchmarks (google-benchmark): the primitive costs every scenario
// is built from — capability derivation/check, compressed-bounds codec,
// tagged-memory access, trampolined syscalls, sealed domain transitions —
// and the Ethernet FCS the emulated MAC computes in host software on every
// frame it sends and receives.
#include <benchmark/benchmark.h>

#include <vector>

#include "intravisor/compartment_mutex.hpp"
#include "intravisor/intravisor.hpp"
#include "machine/domain.hpp"
#include "nic/crc32.hpp"

using namespace cherinet;

namespace {
struct Fixture {
  iv::Intravisor ivr;
  iv::CVM* cvm;
  machine::CapView buf;

  Fixture() : ivr(make_cfg()) {
    cvm = &ivr.create_cvm("bench", 4u << 20);
    buf = cvm->alloc(4096);
  }
  static iv::Intravisor::Config make_cfg() {
    iv::Intravisor::Config cfg;
    cfg.memory_bytes = 64u << 20;
    cfg.cost = sim::CostModel::disabled();  // measure the emulation itself
    return cfg;
  }
  static Fixture& get() {
    static Fixture f;
    return f;
  }
};
}  // namespace

static void BM_ConcentrateEncode(benchmark::State& state) {
  std::uint64_t base = 0x1000;
  for (auto _ : state) {
    auto r = cheri::cc::encode(base, base + 0x12345);
    benchmark::DoNotOptimize(r);
    base += 64;
  }
}
BENCHMARK(BM_ConcentrateEncode);

static void BM_CapabilityWithBounds(benchmark::State& state) {
  auto& f = Fixture::get();
  const cheri::Capability root = f.ivr.address_space().root();
  std::uint64_t off = 0;
  for (auto _ : state) {
    auto c = root.with_bounds(0x10000 + (off & 0xFFF) * 16, 256);
    benchmark::DoNotOptimize(c);
    ++off;
  }
}
BENCHMARK(BM_CapabilityWithBounds);

static void BM_CapabilityCheck(benchmark::State& state) {
  auto& f = Fixture::get();
  const cheri::Capability c = f.buf.cap();
  for (auto _ : state) {
    c.check(cheri::Access::kLoad, c.address(), 64);
  }
}
BENCHMARK(BM_CapabilityCheck);

static void BM_TaggedLoad64(benchmark::State& state) {
  auto& f = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.buf.load<std::uint64_t>(0));
  }
}
BENCHMARK(BM_TaggedLoad64);

static void BM_CheckedBulkCopy1448(benchmark::State& state) {
  auto& f = Fixture::get();
  std::byte scratch[1448];
  for (auto _ : state) {
    f.buf.read(0, scratch);
    benchmark::DoNotOptimize(scratch[0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1448);
}
BENCHMARK(BM_CheckedBulkCopy1448);

// Per-frame FCS cost at a minimum frame, a full 1514-byte frame and a
// 9018-byte jumbo (the fold path from 64 B up, the tables below).
static void BM_Crc32Fcs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> frame(n);
  for (std::size_t i = 0; i < n; ++i) {
    frame[i] = static_cast<std::byte>((i * 131) >> 3);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nic::crc32_ieee(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Fcs)->Arg(64)->Arg(1514)->Arg(9018);

static void BM_TrampolinedClockGettime(benchmark::State& state) {
  auto& f = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cvm->libc().clock_gettime_mono_raw_ns());
  }
}
BENCHMARK(BM_TrampolinedClockGettime);

static void BM_SealedDomainTransition(benchmark::State& state) {
  auto& f = Fixture::get();
  static const machine::SealedEntry entry = f.ivr.entries().install(
      "bench-entry", &f.cvm->context(),
      [](machine::CrossCallArgs& a) -> std::uint64_t { return a.a[0] + 1; });
  machine::CrossCallArgs args;
  for (auto _ : state) {
    args.a[0] = state.iterations() & 0xFF;
    benchmark::DoNotOptimize(f.ivr.entries().invoke(entry, args));
  }
}
BENCHMARK(BM_SealedDomainTransition);

static void BM_CompartmentMutexFastPath(benchmark::State& state) {
  auto& f = Fixture::get();
  static auto word = f.ivr.grant_shared(64, "bench-mutex");
  static iv::CompartmentMutex* m = [] {
    auto& ff = Fixture::get();
    word.store<std::uint32_t>(0, 0);
    return new iv::CompartmentMutex(&ff.cvm->libc(), word.window(0, 4));
  }();
  for (auto _ : state) {
    m->lock();
    m->unlock();
  }
}
BENCHMARK(BM_CompartmentMutexFastPath);

BENCHMARK_MAIN();
