// Ethernet device API (rte_ethdev analogue): burst-oriented, polling.
//
// The stack is written against this interface; the e82576 PMD implements it
// over the device model. rx_burst never blocks — an empty return simply
// means "nothing arrived yet", and whoever drives the virtual clock decides
// when to advance it (the lockstep rig, TwoStacks or the e2e session).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "nic/mac.hpp"
#include "sim/virtual_clock.hpp"
#include "updk/mbuf.hpp"

namespace cherinet::updk {

// Offload capability bits (EthConf::offloads request mask and the
// EthDev::offloads() effective set — rte_eth_conf tx/rx offload idiom).
// TSO is deliberately NOT in kOffloadDefault: a TSO queue changes the
// stack's emission granularity (super-segments), which benches and tests
// opt into explicitly; the checksum offloads are behaviour-preserving.
inline constexpr std::uint32_t kOffloadTxTcpCsum = 1u << 0;
inline constexpr std::uint32_t kOffloadTxUdpCsum = 1u << 1;
inline constexpr std::uint32_t kOffloadTxTso = 1u << 2;
inline constexpr std::uint32_t kOffloadRxCsum = 1u << 3;
inline constexpr std::uint32_t kOffloadDefault =
    kOffloadTxTcpCsum | kOffloadTxUdpCsum | kOffloadRxCsum;
inline constexpr std::uint32_t kOffloadAll = kOffloadDefault | kOffloadTxTso;

/// Human-readable offload set ("tx-tcp-csum|tx-udp-csum|rx-csum", "none") —
/// bench legs and attach-time logging.
[[nodiscard]] std::string offload_names(std::uint32_t offloads);

struct EthConf {
  std::uint32_t rx_ring_size = 512;
  std::uint32_t tx_ring_size = 512;
  /// Requested offload capabilities. The driver masks this to what the
  /// hardware supports; EthDev::offloads() reports the effective set the
  /// stack negotiates against at attach. 0 = pure software path.
  std::uint32_t offloads = kOffloadDefault;
};

struct EthStats {
  std::uint64_t ipackets = 0;
  std::uint64_t opackets = 0;
  std::uint64_t ibytes = 0;
  std::uint64_t obytes = 0;
  std::uint64_t imissed = 0;  // ring-full drops at the device
  std::uint64_t oerrors = 0;
  /// tx_burst invocations that carried at least one frame — opackets /
  /// tx_bursts is the frames-per-doorbell figure the table2 bench gates on
  /// (>= 8 under sustained load once emission stages per loop turn).
  std::uint64_t tx_bursts = 0;
  std::uint64_t tx_segs = 0;  // descriptors consumed (chain segments +
                              // context descriptors)
  /// TSO accounting: super-segment frames handed down with kTxOffloadTso
  /// and the payload bytes the device sliced for them.
  std::uint64_t tso_frames = 0;
  std::uint64_t tso_bytes = 0;
};

class EthDev {
 public:
  virtual ~EthDev() = default;

  /// Receive up to out.size() packets; returns the number received. RX
  /// frames are always single-segment: the device linearizes each received
  /// frame into one staged descriptor buffer (the RX linearization rule of
  /// the chained-mbuf ABI — see mbuf.hpp).
  virtual std::size_t rx_burst(std::span<Mbuf*> out) = 0;

  /// Transmit up to in.size() frames, each a chained mbuf (head + linked
  /// payload segments, possibly indirect — see the driver ABI in mbuf.hpp).
  /// The driver gathers every segment straight from its data room (one
  /// descriptor per segment, EOP on the last) and frees the WHOLE chain via
  /// Mempool::free_chain once the device has fetched it. Returns the number
  /// of frames accepted; rejected chains remain the caller's to free.
  virtual std::size_t tx_burst(std::span<Mbuf*> in) = 0;

  [[nodiscard]] virtual nic::MacAddr mac() const = 0;
  [[nodiscard]] virtual bool link_up() const = 0;
  [[nodiscard]] virtual EthStats stats() const = 0;
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Effective offload capability set of THIS queue (kOffload* bits): the
  /// configured request masked to hardware support. The stack reads it once
  /// at attach and never sets an ol_flag the mask lacks — per-queue
  /// software fallback falls out of the negotiation.
  [[nodiscard]] virtual std::uint32_t offloads() const = 0;

  /// Earliest future event the device knows about (next wire delivery) —
  /// the main loop's idle deadline.
  [[nodiscard]] virtual std::optional<sim::Ns> next_event() const = 0;

  // --- RX flow steering (multi-queue RSS) ---

  /// Which RX queue this driver instance polls, out of how many the port
  /// runs. queue_count == 1 means no steering: every flow lands here.
  struct RxSteering {
    std::uint16_t queue_count = 1;
    std::uint16_t queue_id = 0;
  };
  [[nodiscard]] virtual RxSteering rx_steering() const = 0;

  /// The RX queue an INBOUND frame with this tuple would land on (remote =
  /// the frame's source). A connect()ing stack filters ephemeral-port
  /// candidates with this so replies steer back to its own queue.
  /// Addresses/ports in host order; proto is the IP protocol number.
  [[nodiscard]] virtual std::uint16_t rx_queue_of(
      std::uint32_t remote_ip, std::uint16_t remote_port,
      std::uint32_t local_ip, std::uint16_t local_port,
      std::uint8_t proto) const = 0;

  /// Pin inbound frames for (proto, local_port) to THIS driver's queue
  /// (listener steering: accepted flows inherit the listener's shard).
  /// Returns false when the device is out of filter slots.
  virtual bool steer_local_port(std::uint8_t proto,
                                std::uint16_t local_port) = 0;
  virtual void unsteer_local_port(std::uint8_t proto,
                                  std::uint16_t local_port) = 0;
};

}  // namespace cherinet::updk
