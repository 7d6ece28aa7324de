// updk (DPDK analogue): SP/SC ring FIFO and bursts, mempool
// accounting, mbuf headroom algebra, PMD rx/tx over the device model.
#include <gtest/gtest.h>

#include "machine/address_space.hpp"
#include "nic/wire.hpp"
#include "updk/eal.hpp"
#include "updk/mempool.hpp"
#include "updk/ring.hpp"

using namespace cherinet;

TEST(Ring, FifoSingleThread) {
  updk::Ring<int> r(8);
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(r.enqueue(i));
  EXPECT_FALSE(r.enqueue(99));  // full
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r.dequeue(), i);
  EXPECT_FALSE(r.dequeue().has_value());
}

TEST(Ring, BurstSemantics) {
  updk::Ring<int> r(16);
  const int in[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(r.enqueue_burst(in), 10u);
  int out[4];
  EXPECT_EQ(r.dequeue_burst(out), 4u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 3);
  EXPECT_EQ(r.count(), 6u);
}

TEST(Ring, CapacityRoundsToPowerOfTwo) {
  updk::Ring<int> r(5);
  EXPECT_EQ(r.capacity(), 8u);
}

namespace {
struct PoolFixture : ::testing::Test {
  machine::AddressSpace as{32u << 20};
  machine::CompartmentHeap heap{
      &as.mem(), as.carve(16u << 20, cheri::PermSet::data_rw(), "pool")};
};
}  // namespace

TEST_F(PoolFixture, MempoolAllocFreeCycle) {
  updk::Mempool pool(&heap, 64, 2048);
  EXPECT_EQ(pool.available(), 64u);
  updk::Mbuf* m = pool.alloc();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->refcnt, 1);
  EXPECT_EQ(pool.available(), 63u);
  pool.free(m);
  EXPECT_EQ(pool.available(), 64u);
  EXPECT_THROW(pool.free(m), std::logic_error);  // double free detected
}

TEST_F(PoolFixture, AllocBulkAndFreeBulk) {
  updk::Mempool pool(&heap, 8, 1024);
  updk::Mbuf* burst[6] = {};
  EXPECT_EQ(pool.alloc_bulk(burst), 6u);
  for (auto* m : burst) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->refcnt, 1);
  }
  EXPECT_EQ(pool.available(), 2u);
  // Partial bulk when the pool runs dry: short count, tail nulled.
  updk::Mbuf* more[4] = {};
  EXPECT_EQ(pool.alloc_bulk(more), 2u);
  EXPECT_EQ(more[2], nullptr);
  EXPECT_EQ(more[3], nullptr);
  pool.free_bulk(more);  // null-tolerant
  pool.free_bulk(burst);
  EXPECT_EQ(pool.available(), 8u);
}

TEST_F(PoolFixture, RetainSharesOwnershipRecycleReturnsAtZero) {
  updk::Mempool pool(&heap, 4, 1024);
  updk::Mbuf* m = pool.alloc();
  ASSERT_NE(m, nullptr);
  pool.retain(m);  // RX loan: driver burst + chain share the buffer
  EXPECT_EQ(m->refcnt, 2);
  EXPECT_EQ(pool.stats().retains, 1u);
  pool.free(m);  // the burst's reference drops first
  EXPECT_EQ(m->refcnt, 1);
  EXPECT_EQ(pool.available(), 3u);  // still loaned out
  m->append(100);
  pool.recycle(m);  // the loan's return is what refills the ring...
  EXPECT_EQ(pool.available(), 4u);
  EXPECT_EQ(pool.stats().recycles, 1u);
  EXPECT_EQ(m->data_len, 0u);  // ...with offsets pre-reset
  EXPECT_EQ(m->data_off, updk::kMbufHeadroom);
  EXPECT_THROW(pool.recycle(m), std::logic_error);  // double recycle
  EXPECT_THROW(pool.retain(m), std::logic_error);   // dead mbuf
}

TEST_F(PoolFixture, ReleaseTxReturnsSendQueueRefsOnItsOwnCounter) {
  updk::Mempool pool(&heap, 4, 1024);
  updk::Mbuf* m = pool.alloc();  // a zc TX reservation
  ASSERT_NE(m, nullptr);
  m->append(300);
  // Cumulative ACK (or teardown) drops the send queue's reference: the
  // room returns pre-reset, counted apart from frees AND recycles so the
  // TX census can prove retained send buffers come back through exactly
  // this path.
  pool.release_tx(m);
  EXPECT_EQ(pool.available(), 4u);
  EXPECT_EQ(pool.stats().tx_releases, 1u);
  EXPECT_EQ(pool.stats().frees, 0u);
  EXPECT_EQ(pool.stats().recycles, 0u);
  EXPECT_EQ(m->data_len, 0u);
  EXPECT_EQ(m->data_off, updk::kMbufHeadroom);
  EXPECT_THROW(pool.release_tx(m), std::logic_error);  // double release
}

TEST_F(PoolFixture, LoanViewIsReadOnlyAndExactlyBounded) {
  updk::Mempool pool(&heap, 2, 1024);
  updk::Mbuf* m = pool.alloc();
  ASSERT_NE(m, nullptr);
  auto body = m->append(64);
  body.store<std::uint8_t>(10, 0x5A);
  const machine::CapView loan = m->loan(m->data_off + 10, 20);
  EXPECT_EQ(loan.size(), 20u);
  EXPECT_EQ(loan.load<std::uint8_t>(0), 0x5A);
  EXPECT_THROW(loan.store<std::uint8_t>(0, 1), cheri::CapFault);
  std::byte probe[1];
  EXPECT_THROW(loan.read(20, probe), cheri::CapFault);
  pool.free(m);
}

TEST_F(PoolFixture, ExhaustionReturnsNull) {
  updk::Mempool pool(&heap, 4, 1024);
  updk::Mbuf* ms[4];
  for (auto& m : ms) ASSERT_NE(m = pool.alloc(), nullptr);
  EXPECT_EQ(pool.alloc(), nullptr);
  EXPECT_EQ(pool.stats().alloc_failures, 1u);
  for (auto* m : ms) pool.free(m);
}

TEST_F(PoolFixture, MbufHeadroomAlgebra) {
  updk::Mempool pool(&heap, 4, 2048);
  updk::Mbuf* m = pool.alloc();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->headroom(), updk::kMbufHeadroom);
  auto body = m->append(100);
  body.store<std::uint8_t>(0, 0xAB);
  EXPECT_EQ(m->data_len, 100u);
  auto hdr = m->prepend(14);
  hdr.store<std::uint8_t>(0, 0xCD);
  EXPECT_EQ(m->data_len, 114u);
  EXPECT_EQ(m->headroom(), updk::kMbufHeadroom - 14);
  EXPECT_EQ(m->data().load<std::uint8_t>(0), 0xCD);
  EXPECT_EQ(m->data().load<std::uint8_t>(14), 0xAB);
  m->adj(14);
  EXPECT_EQ(m->data_len, 100u);
  m->trim(50);
  EXPECT_EQ(m->data_len, 50u);
  // Over-prepend (beyond the headroom) faults at the capability boundary.
  EXPECT_THROW((void)m->prepend(updk::kMbufHeadroom + 1), cheri::CapFault);
  pool.free(m);
}

TEST_F(PoolFixture, MbufDataIsCapabilityBounded) {
  updk::Mempool pool(&heap, 2, 1024);
  updk::Mbuf* m = pool.alloc();
  auto v = m->append(64);
  EXPECT_THROW(v.store<std::uint64_t>(60, 1), cheri::CapFault);
  pool.free(m);
}

TEST_F(PoolFixture, IndirectAttachSharesRoomUnderOwnerRefcount) {
  updk::Mempool pool(&heap, 4, 1024);
  updk::Mbuf* owner = pool.alloc();
  ASSERT_NE(owner, nullptr);
  auto body = owner->append(256);
  body.store<std::uint8_t>(100, 0xAB);
  // Attach a window over [data_off+100, +32) of the owner's room.
  updk::Mbuf* ind = pool.alloc_indirect(owner, owner->data_off + 100, 32);
  ASSERT_NE(ind, nullptr);
  EXPECT_TRUE(ind->indirect);
  EXPECT_EQ(ind->attach, owner);
  EXPECT_EQ(owner->refcnt, 2);  // the indirect holds its own reference
  EXPECT_EQ(ind->data().load<std::uint8_t>(0), 0xAB);
  EXPECT_EQ(pool.indirect_available(), 3u);
  // The original holder releases first: the room stays live through the
  // indirect's reference (the property retransmission staging relies on —
  // an ACK may release the chain's reference while the frame is staged).
  pool.free(owner);
  EXPECT_EQ(owner->refcnt, 1);
  EXPECT_EQ(ind->data().load<std::uint8_t>(0), 0xAB);
  EXPECT_EQ(pool.available(), 3u);  // room still out
  // Freeing the indirect detaches it and returns BOTH buffers.
  pool.free(ind);
  EXPECT_EQ(pool.available(), 4u);
  EXPECT_EQ(pool.indirect_available(), 4u);
  EXPECT_EQ(pool.stats().indirect_allocs, 1u);
  EXPECT_EQ(pool.stats().indirect_frees, 1u);
}

TEST_F(PoolFixture, FreeChainReleasesEverySegment) {
  updk::Mempool pool(&heap, 8, 1024);
  updk::Mbuf* head = pool.alloc();
  updk::Mbuf* owner = pool.alloc();
  ASSERT_NE(head, nullptr);
  ASSERT_NE(owner, nullptr);
  head->append(64);
  owner->append(500);
  updk::Mbuf* seg1 = pool.alloc_indirect(owner, owner->data_off, 200);
  updk::Mbuf* seg2 = pool.alloc_indirect(owner, owner->data_off + 200, 300);
  ASSERT_NE(seg1, nullptr);
  ASSERT_NE(seg2, nullptr);
  head->chain(seg1);
  head->chain(seg2);
  EXPECT_EQ(head->nb_segs, 3);
  EXPECT_EQ(head->pkt_len(), 64u + 200u + 300u);
  // The chain owns the only direct references once the original holder
  // lets go (zc send queue released by cumulative ACK mid-flight).
  pool.free(owner);
  pool.free_chain(head);
  EXPECT_EQ(pool.available(), 8u);
  EXPECT_EQ(pool.indirect_available(), 8u);
}

// -------- PMD over two connected device models (loopback at L2) ----------

TEST_F(PoolFixture, PmdRoundTrip) {
  sim::VirtualClock clock;
  nic::Wire wire(&clock, nullptr, sim::Testbed::unconstrained());
  nic::E82576Device devA(&as.mem(), &clock,
                         {nic::MacAddr::local(1), nic::MacAddr::local(2)});
  nic::E82576Device devB(&as.mem(), &clock,
                         {nic::MacAddr::local(3), nic::MacAddr::local(4)});
  devA.connect(0, &wire, 0);
  devB.connect(0, &wire, 1);

  machine::CompartmentHeap heapB(
      &as.mem(), as.carve(8u << 20, cheri::PermSet::data_rw(), "B"));
  auto a = updk::Eal::attach_port(devA, 0, heap, clock);
  auto b = updk::Eal::attach_port(devB, 0, heapB, clock);

  // Send 5 frames A -> B.
  for (int i = 0; i < 5; ++i) {
    updk::Mbuf* m = a.pool->alloc();
    ASSERT_NE(m, nullptr);
    auto v = m->append(200);
    v.store<std::uint8_t>(0, static_cast<std::uint8_t>(0x40 + i));
    updk::Mbuf* burst[1] = {m};
    ASSERT_EQ(a.dev->tx_burst({burst, 1}), 1u);
  }
  clock.advance_to(sim::Ns{10'000'000});
  updk::Mbuf* rx[8];
  const std::size_t n = b.dev->rx_burst({rx, 8});
  ASSERT_EQ(n, 5u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rx[i]->data_len, 200u);
    EXPECT_EQ(rx[i]->data().load<std::uint8_t>(0), 0x40 + i);
    b.pool->free(rx[i]);
  }
  EXPECT_EQ(a.dev->stats().opackets, 5u);
  EXPECT_EQ(b.dev->stats().ipackets, 5u);
  EXPECT_TRUE(a.dev->link_up());
  // Mempools fully recycled after the exchange.
  EXPECT_EQ(b.pool->available(),
            b.pool->size() - 512 /* staged in RX ring */);
}

TEST_F(PoolFixture, PmdChainedTxGathersAndReceiverLinearizes) {
  sim::VirtualClock clock;
  nic::Wire wire(&clock, nullptr, sim::Testbed::unconstrained());
  nic::E82576Device devA(&as.mem(), &clock,
                         {nic::MacAddr::local(1), nic::MacAddr::local(2)});
  nic::E82576Device devB(&as.mem(), &clock,
                         {nic::MacAddr::local(3), nic::MacAddr::local(4)});
  devA.connect(0, &wire, 0);
  devB.connect(0, &wire, 1);
  machine::CompartmentHeap heapB(
      &as.mem(), as.carve(8u << 20, cheri::PermSet::data_rw(), "B"));
  auto a = updk::Eal::attach_port(devA, 0, heap, clock);
  auto b = updk::Eal::attach_port(devB, 0, heapB, clock);
  const std::uint32_t quiescent_a = a.pool->available();

  // Frame = header mbuf + indirect slice over another buffer's room +
  // a direct tail segment: the driver must emit one descriptor per
  // segment (EOP on the last) and the device must linearize on the wire.
  updk::Mbuf* head = a.pool->alloc();
  updk::Mbuf* payload = a.pool->alloc();
  updk::Mbuf* tail = a.pool->alloc();
  ASSERT_NE(head, nullptr);
  ASSERT_NE(payload, nullptr);
  ASSERT_NE(tail, nullptr);
  auto hv = head->append(20);
  for (std::uint32_t i = 0; i < 20; ++i) hv.store<std::uint8_t>(i, 0x10 + i);
  auto pv = payload->append(300);
  for (std::uint32_t i = 0; i < 300; ++i) {
    pv.store<std::uint8_t>(i, static_cast<std::uint8_t>(i));
  }
  updk::Mbuf* ind =
      a.pool->alloc_indirect(payload, payload->data_off + 50, 200);
  ASSERT_NE(ind, nullptr);
  auto tv = tail->append(40);
  for (std::uint32_t i = 0; i < 40; ++i) tv.store<std::uint8_t>(i, 0xF0);
  head->chain(ind);
  head->chain(tail);
  EXPECT_EQ(head->nb_segs, 3);
  EXPECT_EQ(head->pkt_len(), 260u);

  updk::Mbuf* burst[1] = {head};
  ASSERT_EQ(a.dev->tx_burst({burst, 1}), 1u);
  // The chain transferred to the driver; the payload owner's own ref can
  // drop mid-flight (ACK) without invalidating the staged frame.
  a.pool->free(payload);
  clock.advance_to(sim::Ns{10'000'000});

  updk::Mbuf* rx[4];
  ASSERT_EQ(b.dev->rx_burst({rx, 4}), 1u);
  EXPECT_EQ(rx[0]->data_len, 260u);  // linearized single segment
  EXPECT_EQ(rx[0]->next, nullptr);
  EXPECT_EQ(rx[0]->data().load<std::uint8_t>(0), 0x10);
  EXPECT_EQ(rx[0]->data().load<std::uint8_t>(20), 50);   // payload[50]
  EXPECT_EQ(rx[0]->data().load<std::uint8_t>(219), 249); // payload[249]
  EXPECT_EQ(rx[0]->data().load<std::uint8_t>(220), 0xF0);
  b.pool->free(rx[0]);

  EXPECT_EQ(a.dev->stats().opackets, 1u);
  EXPECT_EQ(a.dev->stats().tx_segs, 3u);
  EXPECT_EQ(a.dev->stats().tx_bursts, 1u);
  EXPECT_EQ(a.dev->stats().obytes, 260u);
  // Reclaim (inside tx_burst's poll) already freed the chain: pool whole.
  EXPECT_EQ(a.pool->available(), quiescent_a);
  EXPECT_EQ(a.pool->indirect_available(), a.pool->size());
}

TEST_F(PoolFixture, PmdTxRingFullBackpressure) {
  sim::VirtualClock clock;
  nic::Wire wire(&clock, nullptr, sim::Testbed::unconstrained());
  nic::E82576Device devA(&as.mem(), &clock,
                         {nic::MacAddr::local(1), nic::MacAddr::local(2)});
  devA.connect(0, &wire, 0);
  updk::EalConfig cfg;
  cfg.eth.tx_ring_size = 4;
  auto a = updk::Eal::attach_port(devA, 0, heap, clock, cfg);
  // The device fetches frames immediately in this model, so the ring never
  // stays full; what we verify is that burst accounting stays consistent.
  std::vector<updk::Mbuf*> ms;
  for (int i = 0; i < 8; ++i) {
    updk::Mbuf* m = a.pool->alloc();
    ASSERT_NE(m, nullptr);
    m->append(64);
    ms.push_back(m);
  }
  const std::size_t sent = a.dev->tx_burst(ms);
  EXPECT_GT(sent, 0u);
  for (std::size_t i = sent; i < ms.size(); ++i) a.pool->free(ms[i]);
}
