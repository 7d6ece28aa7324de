// Machine layer: address-space carving, compartment heap, CapView,
// execution contexts, sealed-pair domain transitions.
#include <gtest/gtest.h>

#include "machine/address_space.hpp"
#include "machine/cap_view.hpp"
#include "machine/context.hpp"
#include "machine/domain.hpp"
#include "machine/heap.hpp"

using namespace cherinet;
using namespace cherinet::machine;

TEST(AddressSpace, CarvedRegionsAreDisjointAndBounded) {
  AddressSpace as(1 << 20);
  const auto a = as.carve(1000, cheri::PermSet::data_rw(), "a");
  const auto b = as.carve(2000, cheri::PermSet::data_rw(), "b");
  EXPECT_GE(b.base(), a.base() + a.length());
  EXPECT_EQ(a.length() % cheri::TaggedMemory::kGranule, 0u);
  std::byte buf[8]{};
  EXPECT_NO_THROW(as.mem().store(a, a.base(), buf));
  EXPECT_THROW(as.mem().store(a, b.base(), buf), cheri::CapFault);
}

TEST(AddressSpace, ExhaustionThrows) {
  AddressSpace as(64 << 10);
  EXPECT_THROW((void)as.carve(1 << 20, cheri::PermSet::data_rw(), "big"),
               std::runtime_error);
}

TEST(CompartmentHeap, AllocFreeCoalesce) {
  AddressSpace as(1 << 20);
  CompartmentHeap heap(&as.mem(),
                       as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  const auto total = heap.bytes_free();
  auto a = heap.alloc(100);
  auto b = heap.alloc(200);
  auto c = heap.alloc(300);
  EXPECT_EQ(heap.bytes_allocated(),
            112 + 208 + 304);  // 16-byte rounded
  heap.free(b);
  heap.free(a);  // coalesces with b's hole
  heap.free(c);
  EXPECT_EQ(heap.bytes_free(), total);
  EXPECT_EQ(heap.bytes_allocated(), 0u);
}

TEST(CompartmentHeap, AllocationsAreExactlyBounded) {
  AddressSpace as(1 << 20);
  CompartmentHeap heap(&as.mem(),
                       as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  const auto a = heap.alloc(64);
  const auto b = heap.alloc(64);
  // Overflowing allocation `a` by one byte faults instead of touching `b`.
  std::byte buf[2]{};
  EXPECT_THROW(as.mem().store(a, a.base() + 63, buf), cheri::CapFault);
  EXPECT_NO_THROW(as.mem().store(b, b.base(), buf));
  EXPECT_THROW(heap.free(b.with_address(b.base() + 1).with_bounds(
                   b.base() + 16, 16)),
               std::invalid_argument);
}

TEST(CompartmentHeap, ExhaustionThrowsBadAlloc) {
  AddressSpace as(1 << 20);
  CompartmentHeap heap(&as.mem(),
                       as.carve(4 << 10, cheri::PermSet::data_rw(), "h"));
  EXPECT_THROW((void)heap.alloc(8 << 10), std::bad_alloc);
}

TEST(CapView, WindowDerivesNarrowerCapability) {
  AddressSpace as(1 << 20);
  CompartmentHeap heap(&as.mem(),
                       as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  CapView v = heap.alloc_view(256);
  v.store<std::uint32_t>(0, 0x12345678);
  EXPECT_EQ(v.load<std::uint32_t>(0), 0x12345678u);

  CapView w = v.window(64, 64);
  EXPECT_EQ(w.size(), 64u);
  w.store<std::uint8_t>(0, 0xAB);
  EXPECT_EQ(v.load<std::uint8_t>(64), 0xAB);
  EXPECT_THROW(w.store<std::uint8_t>(64, 1), cheri::CapFault);
  EXPECT_THROW((void)v.window(200, 100), cheri::CapFault);  // past top
}

TEST(CapView, ReadonlyViewRefusesWrites) {
  AddressSpace as(1 << 20);
  CompartmentHeap heap(&as.mem(),
                       as.carve(64 << 10, cheri::PermSet::data_rw(), "h"));
  const CapView ro = heap.alloc_view(64).readonly();
  EXPECT_NO_THROW((void)ro.load<std::uint8_t>(0));
  EXPECT_THROW(ro.store<std::uint8_t>(0, 1), cheri::CapFault);
}

TEST(ExecutionContext, ScopesNestAndRestore) {
  EXPECT_FALSE(ExecutionContext::in_compartment());
  EXPECT_EQ(ExecutionContext::current().name, "host");  // none entered yet
  CompartmentContext c1{"c1", 0, {}, {}};
  CompartmentContext c2{"c2", 1, {}, {}};
  {
    ExecutionContext::Scope s1(c1);
    EXPECT_EQ(ExecutionContext::current().name, "c1");
    {
      ExecutionContext::Scope s2(c2);
      EXPECT_EQ(ExecutionContext::current().name, "c2");
    }
    EXPECT_EQ(ExecutionContext::current().name, "c1");
  }
  EXPECT_FALSE(ExecutionContext::in_compartment());
  EXPECT_EQ(ExecutionContext::current().name, "host");
}

namespace {
struct DomainFixture : ::testing::Test {
  AddressSpace as{1 << 20};
  sim::CostModel cost = sim::CostModel::disabled();
  EntryRegistry reg{as, &cost};
  CompartmentContext target{"callee", 7,
                            as.root().with_perms(cheri::PermSet::data_ro()),
                            as.root().with_perms(cheri::PermSet::code())};
};
}  // namespace

TEST_F(DomainFixture, InvokeRunsInCalleeContext) {
  const auto entry =
      reg.install("fn", &target, [](CrossCallArgs& a) -> std::uint64_t {
        EXPECT_EQ(ExecutionContext::current().name, "callee");
        return a.a[0] + a.a[1];
      });
  CrossCallArgs args;
  args.a[0] = 40;
  args.a[1] = 2;
  EXPECT_EQ(reg.invoke(entry, args), 42u);
  EXPECT_FALSE(ExecutionContext::in_compartment());
  EXPECT_EQ(reg.crossings(), 1u);
}

TEST_F(DomainFixture, MismatchedPairIsRejected) {
  const auto e1 = reg.install("f1", &target,
                              [](CrossCallArgs&) -> std::uint64_t { return 1; });
  const auto e2 = reg.install("f2", &target,
                              [](CrossCallArgs&) -> std::uint64_t { return 2; });
  SealedEntry frankenstein{e1.code, e2.data};  // mixed otypes
  CrossCallArgs args;
  try {
    (void)reg.invoke(frankenstein, args);
    FAIL();
  } catch (const cheri::CapFault& f) {
    EXPECT_EQ(f.kind(), cheri::FaultKind::kOtypeViolation);
  }
}

TEST_F(DomainFixture, UnsealedOrUntaggedPairIsRejected) {
  const auto e = reg.install("f", &target,
                             [](CrossCallArgs&) -> std::uint64_t { return 1; });
  CrossCallArgs args;
  SealedEntry untagged{e.code.cleared(), e.data};
  EXPECT_THROW((void)reg.invoke(untagged, args), cheri::CapFault);
  SealedEntry unsealed{as.root().with_perms(cheri::PermSet::code()), e.data};
  EXPECT_THROW((void)reg.invoke(unsealed, args), cheri::CapFault);
}

TEST_F(DomainFixture, SealedCapabilityArgumentsAreRejected) {
  const auto e = reg.install("f", &target,
                             [](CrossCallArgs&) -> std::uint64_t { return 0; });
  CrossCallArgs args;
  args.cap0 = CapView(&as.mem(), e.data);  // sealed token as a data arg
  EXPECT_THROW((void)reg.invoke(e, args), cheri::CapFault);
}

TEST_F(DomainFixture, FaultInCalleeRestoresCallerContext) {
  const auto e = reg.install("boom", &target,
                             [](CrossCallArgs&) -> std::uint64_t {
                               throw cheri::CapFault(
                                   cheri::FaultKind::kBoundsViolation, 0x123,
                                   1, "test");
                             });
  CrossCallArgs args;
  EXPECT_THROW((void)reg.invoke(e, args), cheri::CapFault);
  EXPECT_FALSE(ExecutionContext::in_compartment());
}
