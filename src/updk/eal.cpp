#include "updk/eal.hpp"

namespace cherinet::updk {

namespace {
// Every pool's per-mbuf data room: a 2 KiB frame buffer behind the headroom.
constexpr std::uint32_t kDataRoom = 2048 + kMbufHeadroom;

// TSO slicing re-inserts the TCP checksum per wire frame, so a TSO request
// without TCP checksum insertion is incoherent — imply it, like igb does.
EthConf normalized_eth(EthConf eth) {
  if ((eth.offloads & kOffloadTxTso) != 0) eth.offloads |= kOffloadTxTcpCsum;
  return eth;
}
}  // namespace

PortResources Eal::attach_port(nic::E82576Device& card, int port,
                               machine::CompartmentHeap& heap,
                               sim::VirtualClock& clock, const EalConfig& cfg,
                               const std::string& name) {
  // IOMMU grant: data-only (no capability transfer through DMA), bounded to
  // the driver compartment's region.
  const cheri::Capability dma_grant =
      heap.region().with_perms(cheri::PermSet{cheri::Perm::kLoad} |
                               cheri::Perm::kStore | cheri::Perm::kGlobal);
  card.attach_dma(port, dma_grant);

  PortResources res;
  res.pool = std::make_unique<Mempool>(&heap, cfg.n_mbufs, kDataRoom);
  res.dev = std::make_unique<E82576Pmd>(name + std::to_string(port), &card,
                                        port, &heap, res.pool.get(), &clock,
                                        normalized_eth(cfg.eth));
  return res;
}

PortResources Eal::attach_port_queue(nic::E82576Device& card, int port,
                                     std::uint32_t queue,
                                     std::uint32_t queue_count,
                                     machine::CompartmentHeap& heap,
                                     sim::VirtualClock& clock,
                                     const EalConfig& cfg,
                                     const std::string& name) {
  const cheri::Capability dma_grant =
      heap.region().with_perms(cheri::PermSet{cheri::Perm::kLoad} |
                               cheri::Perm::kStore | cheri::Perm::kGlobal);
  card.attach_dma(port, dma_grant);
  // Size the port once; re-configuring would wipe sibling shards' rings.
  if (card.port(port).queue_count() != queue_count) {
    card.port(port).configure_queues(queue_count);
  }
  PortResources res;
  res.pool = std::make_unique<Mempool>(&heap, cfg.n_mbufs, kDataRoom);
  res.dev = std::make_unique<E82576Pmd>(
      name + std::to_string(port) + "q" + std::to_string(queue), &card, port,
      queue, &heap, res.pool.get(), &clock, normalized_eth(cfg.eth));
  return res;
}

}  // namespace cherinet::updk
