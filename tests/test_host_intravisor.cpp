// Host OS services (umtx), the Intravisor proxy table (musl->CheriBSD
// translation), trampolines, cVM lifecycle + fault containment, and the
// futex-based compartment mutex.
#include <gtest/gtest.h>

#include <thread>

#include "intravisor/compartment_mutex.hpp"
#include "intravisor/intravisor.hpp"

using namespace cherinet;

namespace {
iv::Intravisor::Config fast_config() {
  iv::Intravisor::Config cfg;
  cfg.memory_bytes = 32u << 20;
  cfg.cost = sim::CostModel::disabled();
  return cfg;
}
}  // namespace

TEST(Umtx, WaitReturnsImmediatelyOnValueMismatch) {
  iv::Intravisor ivr(fast_config());
  auto word = ivr.grant_shared(16, "w");
  word.store<std::uint32_t>(0, 7);
  const auto r = ivr.host().umtx_wait_uint(word.cap(), word.address(), 3);
  EXPECT_EQ(r, host::UmtxTable::WaitResult::kValueChanged);
}

TEST(Umtx, WakeUnblocksWaiter) {
  iv::Intravisor ivr(fast_config());
  auto word = ivr.grant_shared(16, "w");
  word.store<std::uint32_t>(0, 1);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    const auto r = ivr.host().umtx_wait_uint(word.cap(), word.address(), 1);
    EXPECT_EQ(r, host::UmtxTable::WaitResult::kWoken);
    woke = true;
  });
  // Retry the wake until the waiter has registered (scheduling-dependent).
  int woken = 0;
  for (int i = 0; i < 2000 && woken == 0; ++i) {
    woken = ivr.host().umtx_wake(word.address(), 1);
    if (woken == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(woken, 1);
  waiter.join();
  EXPECT_TRUE(woke);
  EXPECT_GE(ivr.host().umtx().sleeps(), 1u);
}

TEST(Umtx, WakeWithNoWaitersReturnsZero) {
  iv::Intravisor ivr(fast_config());
  EXPECT_EQ(ivr.host().umtx_wake(0x1234, 10), 0);
}

TEST(Intravisor, CvmHeapsAreDisjointCompartments) {
  iv::Intravisor ivr(fast_config());
  auto& c1 = ivr.create_cvm("cVM1", 1u << 20);
  auto& c2 = ivr.create_cvm("cVM2", 1u << 20);
  auto buf1 = c1.alloc(256);
  auto buf2 = c2.alloc(256);
  buf1.store<std::uint32_t>(0, 0x11111111);
  buf2.store<std::uint32_t>(0, 0x22222222);
  // cVM1's DDC cannot reach cVM2's allocation.
  EXPECT_FALSE(c1.context().ddc.in_bounds(buf2.address(), 4));
  EXPECT_THROW(
      (void)ivr.address_space().mem().load_scalar<std::uint32_t>(
          c1.context().ddc, buf2.address()),
      cheri::CapFault);
}

TEST(Intravisor, MuslClockGettimeThroughTrampoline) {
  iv::Intravisor ivr(fast_config());
  auto& cvm = ivr.create_cvm("cVM1", 1u << 20);
  const std::uint64_t before = cvm.trampoline().crossings();
  const std::uint64_t t1 = cvm.libc().clock_gettime_mono_raw_ns();
  const std::uint64_t t2 = cvm.libc().clock_gettime_mono_raw_ns();
  EXPECT_GT(t1, 0u);
  EXPECT_GE(t2, t1);
  EXPECT_EQ(cvm.trampoline().crossings(), before + 2);
  EXPECT_TRUE(cvm.libc().uses_trampoline());
}

TEST(Intravisor, ConsoleWriteCrossesWithCapabilityBuffer) {
  iv::Intravisor ivr(fast_config());
  auto& cvm = ivr.create_cvm("cVM1", 1u << 20);
  auto buf = cvm.alloc(64);
  const char msg[] = "hello from cVM1";
  buf.write(0, std::as_bytes(std::span{msg, sizeof msg - 1}));
  EXPECT_EQ(cvm.libc().write(1, buf, sizeof msg - 1),
            static_cast<std::int64_t>(sizeof msg - 1));
  const auto log = ivr.host().console_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back(), "hello from cVM1");
}

TEST(Intravisor, FutexRoutesThroughUmtxTranslation) {
  iv::Intravisor ivr(fast_config());
  auto& cvm = ivr.create_cvm("cVM1", 1u << 20);
  auto word = cvm.alloc(16);
  word.store<std::uint32_t>(0, 5);
  const std::uint64_t before = ivr.router().futex_translations();
  // Value mismatch: returns -EAGAIN through the whole proxy path.
  EXPECT_EQ(cvm.libc().futex_wait(word.window(0, 4), 99), -EAGAIN);
  EXPECT_EQ(ivr.router().futex_translations(), before + 1);
}

TEST(Intravisor, CvmFaultIsContained) {
  iv::Intravisor ivr(fast_config());
  auto& victim = ivr.create_cvm("victim", 1u << 20);
  auto& bystander = ivr.create_cvm("bystander", 1u << 20);
  auto good = bystander.alloc(64);
  good.store<std::uint32_t>(0, 0xAAAA5555);

  victim.run([&] {
    // Escape attempt: dereference beyond our DDC (the bystander's memory).
    (void)ivr.address_space().mem().load_scalar<std::uint32_t>(
        victim.context().ddc, good.address());
  });

  EXPECT_TRUE(victim.faulted());
  ASSERT_EQ(ivr.fault_log().size(), 1u);
  EXPECT_EQ(ivr.fault_log()[0].cvm_name, "victim");
  // The sibling's data is untouched and the system continues.
  EXPECT_EQ(good.load<std::uint32_t>(0), 0xAAAA5555u);
  bystander.run([] {});
  EXPECT_FALSE(bystander.faulted());
}

TEST(Intravisor, CvmRunRestoresCallerContextAfterContainedFault) {
  iv::Intravisor ivr(fast_config());
  auto& outer = ivr.create_cvm("outer", 1u << 20);
  auto& victim = ivr.create_cvm("victim", 1u << 20);
  auto secret = outer.alloc(64);

  // The fault unwinds on the caller's own thread, from inside another
  // compartment's enter: the Scope must hand the outer context back.
  outer.enter([&] {
    ASSERT_EQ(&machine::ExecutionContext::current(), &outer.context());
    victim.run([&] {
      EXPECT_EQ(&machine::ExecutionContext::current(), &victim.context());
      (void)ivr.address_space().mem().load_scalar<std::uint32_t>(
          victim.context().ddc, secret.address());
    });
    EXPECT_EQ(&machine::ExecutionContext::current(), &outer.context());
  });
  EXPECT_TRUE(victim.faulted());
  ASSERT_EQ(ivr.fault_log().size(), 1u);
  EXPECT_EQ(ivr.fault_log()[0].cvm_name, "victim");

  // A body that does not fault adds no report.
  bool ran = false;
  victim.run([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(ivr.fault_log().size(), 1u);
}

TEST(Intravisor, TrampolineRejectsUntaggedPointerArgument) {
  iv::Intravisor ivr(fast_config());
  auto& cvm = ivr.create_cvm("cVM1", 1u << 20);
  auto buf = cvm.alloc(64);
  machine::CapView forged(&ivr.address_space().mem(), buf.cap().cleared());
  EXPECT_THROW((void)cvm.libc().write(1, forged, 8), cheri::CapFault);
}

TEST(CompartmentMutex, FastPathAndContention) {
  iv::Intravisor ivr(fast_config());
  auto& cvm = ivr.create_cvm("cVM1", 1u << 20);
  auto word = ivr.grant_shared(16, "mutex");
  word.store<std::uint32_t>(0, 0);
  iv::CompartmentMutex m(&cvm.libc(), word.window(0, 4));

  m.lock();
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
  EXPECT_GE(m.fast_acquires(), 2u);
  EXPECT_EQ(m.contended_acquires(), 0u);
}

TEST(CompartmentMutex, MutualExclusionAcrossThreads) {
  iv::Intravisor ivr(fast_config());
  auto& c1 = ivr.create_cvm("cVM1", 1u << 20);
  auto& c2 = ivr.create_cvm("cVM2", 1u << 20);
  auto word = ivr.grant_shared(16, "mutex");
  word.store<std::uint32_t>(0, 0);
  iv::CompartmentMutex m(&c1.libc(), word.window(0, 4));

  int counter = 0;
  auto body = [&](iv::MuslLibc* libc) {
    for (int i = 0; i < 20000; ++i) {
      m.lock(libc);
      ++counter;  // data race iff the mutex is broken
      m.unlock(libc);
    }
  };
  std::thread t1([&] { body(&c1.libc()); });
  std::thread t2([&] { body(&c2.libc()); });
  t1.join();
  t2.join();
  EXPECT_EQ(counter, 40000);
}

TEST(CompartmentMutex, ContendedAcquireEscalatesToFutex) {
  iv::Intravisor ivr(fast_config());
  auto& c1 = ivr.create_cvm("cVM1", 1u << 20);
  auto& c2 = ivr.create_cvm("cVM2", 1u << 20);
  auto word = ivr.grant_shared(16, "mutex");
  word.store<std::uint32_t>(0, 0);
  iv::CompartmentMutex m(&c1.libc(), word.window(0, 4));

  m.lock(&c1.libc());  // force the second locker onto the slow path
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    m.lock(&c2.libc());
    acquired = true;
    m.unlock(&c2.libc());
  });
  // Unlock only once the second locker has parked in the kernel: the test
  // then runs one path however the two threads are scheduled.
  while (ivr.host().umtx().sleeps() == 0) std::this_thread::yield();
  EXPECT_FALSE(acquired);
  m.unlock(&c1.libc());
  t.join();
  EXPECT_TRUE(acquired);
  EXPECT_EQ(m.contended_acquires(), 1u);
  EXPECT_EQ(ivr.host().umtx().sleeps(), 1u);
}

TEST(Intravisor, FaultReportRendersLikeFig3) {
  iv::FaultReport r{"cVM2", cheri::FaultKind::kBoundsViolation, 0xdead,
                    "In-address space security exception"};
  const std::string s = r.to_console();
  EXPECT_NE(s.find("cVM2"), std::string::npos);
  EXPECT_NE(s.find("CAP out-of-bounds"), std::string::npos);
  EXPECT_NE(s.find("system continues"), std::string::npos);
}
