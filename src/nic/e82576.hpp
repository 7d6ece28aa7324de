// Device model of an Intel 82576-style dual-port Gigabit NIC.
//
// The programming model is the one DPDK's igb driver speaks: per-port,
// per-queue descriptor rings in host memory, head/tail registers, DD status
// write-back, polling (no interrupts — DPDK detaches the NIC from the
// kernel and polls, paper §II-C).
//
// CHERI twist: the DMA engine holds a *capability* to the region the driver
// granted at attach time (rings + packet buffers) and every descriptor and
// buffer access is capability-checked — an IOMMU expressed in the CHERI
// model, and the reason a compromised compartment cannot aim the NIC at
// another compartment's memory.
//
// Multi-queue RSS (datasheet §7.1): each port owns up to kMaxQueues RX/TX
// queue pairs. Inbound frames are classified once — L4 port filter first
// (§7.1.2, proto + destination port, 8 entries), then the Toeplitz 5-tuple
// hash through the 128-entry RETA — and land on exactly one queue's ring;
// non-IP frames (ARP) replicate to EVERY queue so each shard's stack keeps
// its own neighbour cache warm. Fragmented datagrams hash the IP pair only,
// keeping reassembly single-queue.
//
// Threading: each QUEUE is owned by exactly one driver thread (its shard's
// main loop). Queue TX state is only touched through poll_queue by the
// owner; RX classification and all register writes serialize on one
// per-port mutex — the narrow shared-fate interface (doorbells + the wire),
// NOT a stack-level lock. The single-queue legacy register surface
// (set_rx_ring(base,...), write_rdt(v), ...) aliases queue 0.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "cheri/capability.hpp"
#include "cheri/tagged_memory.hpp"
#include "nic/mac.hpp"
#include "nic/rss.hpp"
#include "nic/wire.hpp"

namespace cherinet::nic {

/// Legacy receive descriptor (16 bytes, 82576 datasheet §7.1.4).
struct RxDesc {
  std::uint64_t buffer_addr;
  std::uint16_t length;
  std::uint16_t checksum;
  std::uint8_t status;
  std::uint8_t errors;
  std::uint16_t vlan;
};
static_assert(sizeof(RxDesc) == 16);

/// Legacy transmit descriptor (16 bytes, 82576 datasheet §7.2.2). The
/// `css`/`cso` fields drive legacy checksum insertion: when the frame's
/// descriptor carries kTxCmdIC, the device one's-complement-sums the bytes
/// from `css` to the end of the (gathered) frame and writes the inverted
/// fold at byte offset `cso`. The driver pre-seeds the 16-bit field at
/// `cso` with the folded, NON-inverted pseudo-header sum, so the inserted
/// value is a complete TCP/UDP checksum without the device parsing IP.
struct TxDesc {
  std::uint64_t buffer_addr;
  std::uint16_t length;
  std::uint8_t cso;
  std::uint8_t cmd;
  std::uint8_t status;
  std::uint8_t css;
  std::uint16_t vlan;
};
static_assert(sizeof(TxDesc) == 16);

/// Advanced context descriptor (16 bytes) — a simplified rendering of the
/// 82576 TCP/IP context descriptor (datasheet §7.2.2.2). It occupies a TX
/// ring slot, fetches no buffer, and latches per-queue offload state
/// (header geometry + MSS) that subsequent data descriptors reference; the
/// state persists until the next context descriptor overwrites it. The
/// `cmd` byte overlays TxDesc::cmd exactly, so the device dispatches on
/// kTxCmdCtx before reinterpreting the other 15 bytes.
struct TxCtxDesc {
  std::uint8_t l2_len;    // MAC header bytes (14 without VLAN)
  std::uint8_t l3_len;    // IPv4 header bytes (incl. options)
  std::uint8_t l4_len;    // TCP header bytes incl. options; 8 for UDP
  std::uint8_t olflags;   // kTxCtxOl* request bits
  std::uint16_t mss;      // TSO payload bytes per sliced wire frame
  std::uint16_t paylen;   // reserved (real hw: total payload; unused here)
  std::uint16_t reserved0;
  std::uint8_t reserved1;
  std::uint8_t cmd;       // must contain kTxCmdCtx; kTxCmdRS honoured
  std::uint8_t status;    // kTxStatusDD written back
  std::uint8_t reserved2;
  std::uint16_t reserved3;
};
static_assert(sizeof(TxCtxDesc) == 16);
static_assert(offsetof(TxCtxDesc, cmd) == offsetof(TxDesc, cmd));
static_assert(offsetof(TxCtxDesc, status) == offsetof(TxDesc, status));

/// TxCtxDesc::olflags request bits.
inline constexpr std::uint8_t kTxCtxOlIp = 0x01;   // insert IPv4 header csum
inline constexpr std::uint8_t kTxCtxOlTcp = 0x02;  // L4 is TCP
inline constexpr std::uint8_t kTxCtxOlUdp = 0x04;  // L4 is UDP
inline constexpr std::uint8_t kTxCtxOlTso = 0x08;  // segmentation requested

inline constexpr std::uint8_t kRxStatusDD = 0x01;
inline constexpr std::uint8_t kRxStatusEOP = 0x02;
/// RX checksum verdicts (§7.1.5 write-back): the status bit says the device
/// CHECKED the header; the paired error bit says the check FAILED. A frame
/// the device could not parse (non-IPv4, truncated L4, UDP checksum 0)
/// carries neither — the driver must fall back to software verification.
inline constexpr std::uint8_t kRxStatusIpCs = 0x40;  // IPv4 header checked
inline constexpr std::uint8_t kRxStatusL4Cs = 0x20;  // TCP/UDP checked
inline constexpr std::uint8_t kTxCmdEOP = 0x01;
inline constexpr std::uint8_t kTxCmdIC = 0x04;   // legacy checksum insert
inline constexpr std::uint8_t kTxCmdRS = 0x08;
inline constexpr std::uint8_t kTxCmdCtx = 0x20;  // descriptor is TxCtxDesc
inline constexpr std::uint8_t kTxCmdTse = 0x40;  // frame uses TSO context
inline constexpr std::uint8_t kTxStatusDD = 0x01;
inline constexpr std::uint8_t kRxErrorCRC = 0x02;
inline constexpr std::uint8_t kRxErrorL4E = 0x20;  // L4 checksum bad
inline constexpr std::uint8_t kRxErrorIpE = 0x40;  // IPv4 header csum bad

/// Queue pairs per port (real 82576: 16; enough for the shard counts here).
inline constexpr std::uint32_t kMaxQueues = 8;
/// L4 destination-port steering filters per port (§7.1.2 "2-tuple" filters).
inline constexpr std::size_t kMaxL4Filters = 8;

class E82576Device;

/// One MAC+PHY port of the card.
class E82576Port {
 public:
  // --- queue configuration ---
  /// Resize to `n` RX/TX queue pairs (clamped to [1, kMaxQueues]). RESETS
  /// every queue's ring state, clears the L4 filters and re-fills the RETA
  /// round-robin — call before per-queue ring setup, never while live.
  void configure_queues(std::uint32_t n);
  [[nodiscard]] std::uint32_t queue_count() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }

  // --- "register" interface used by the poll-mode driver (per queue) ---
  void set_rx_ring(std::uint32_t q, std::uint64_t base, std::uint32_t count,
                   std::uint32_t buf_size);
  void set_tx_ring(std::uint32_t q, std::uint64_t base, std::uint32_t count);
  void write_rdt(std::uint32_t q, std::uint32_t v);
  void write_tdt(std::uint32_t q, std::uint32_t v);
  [[nodiscard]] std::uint32_t read_rdh(std::uint32_t q) const;
  [[nodiscard]] std::uint32_t read_tdh(std::uint32_t q) const;

  // Single-queue legacy surface: queue 0 (pre-multi-queue drivers/tests).
  void set_rx_ring(std::uint64_t base, std::uint32_t count,
                   std::uint32_t buf_size) {
    set_rx_ring(0, base, count, buf_size);
  }
  void set_tx_ring(std::uint64_t base, std::uint32_t count) {
    set_tx_ring(0, base, count);
  }
  void write_rdt(std::uint32_t v) { write_rdt(0, v); }
  void write_tdt(std::uint32_t v) { write_tdt(0, v); }
  [[nodiscard]] std::uint32_t read_rdh() const { return read_rdh(0); }
  [[nodiscard]] std::uint32_t read_tdh() const { return read_tdh(0); }

  void enable() noexcept { enabled_ = true; }
  [[nodiscard]] bool link_up() const noexcept {
    return enabled_ && wire_ != nullptr;
  }
  [[nodiscard]] const MacAddr& mac() const noexcept { return mac_; }

  // --- RSS steering "registers" ---
  void set_reta(const RssReta& r);
  void set_reta_entry(std::uint32_t idx, std::uint8_t queue);
  [[nodiscard]] RssReta reta() const;
  /// Install an L4 destination-port filter (takes priority over RSS —
  /// listeners pin their port to the accepting shard's queue). Returns the
  /// filter index, or -1 when all kMaxL4Filters slots are taken.
  int set_l4_filter(std::uint8_t proto, std::uint16_t dst_port,
                    std::uint8_t queue);
  void clear_l4_filter(std::uint8_t proto, std::uint16_t dst_port);

  /// The queue an inbound frame with this tuple would land on (filter
  /// first, then Toeplitz + RETA) — src is the remote peer. connect() uses
  /// this to pick an ephemeral port whose replies steer home.
  [[nodiscard]] std::uint32_t rx_queue_of(std::uint32_t src_ip,
                                          std::uint32_t dst_ip,
                                          std::uint16_t src_port,
                                          std::uint16_t dst_port,
                                          std::uint8_t proto) const;

  struct Stats {
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_no_desc = 0;   // ring-full drops
    std::uint64_t rx_crc_errors = 0;     // FCS mismatch only
    std::uint64_t rx_length_errors = 0;  // runts and oversize (ROC/RUC)
    std::uint64_t tso_frames = 0;   // wire frames produced by TSO slicing
    std::uint64_t tso_bytes = 0;    // payload bytes carried by those frames
  };
  /// Port-aggregate counters (all queues). Snapshot by value: the port may
  /// be concurrently polled by other queue owners.
  [[nodiscard]] Stats stats() const;
  /// Per-queue counters (rx/tx packets+bytes, ring-full drops, and CRC
  /// rejects attributed to the queue the corrupt frame was steered toward)
  /// — the shard isolation tests pin "my frames arrived on MY queue" with
  /// these.
  [[nodiscard]] Stats queue_stats(std::uint32_t q) const;

  /// Earliest pending wire delivery (poll deadline for the driver loop).
  [[nodiscard]] std::optional<sim::Ns> next_rx_event() const {
    return wire_ != nullptr ? wire_->next_delivery(wire_side_) : std::nullopt;
  }

 private:
  friend class E82576Device;

  struct Queue {
    std::uint64_t rx_base = 0, tx_base = 0;
    std::uint32_t rx_count = 0, tx_count = 0;
    std::uint32_t rx_buf_size = 0;
    std::uint32_t rdh = 0, rdt = 0, tdh = 0, tdt = 0;
    // Multi-descriptor TX frames (scatter-gather): segment buffers
    // accumulate here until the EOP descriptor completes the frame (82576
    // §7.2.1 — descriptors without EOP extend the packet).
    std::vector<std::byte> tx_accum;
    // Offload state. The context descriptor persists until overwritten
    // (per-queue, like real silicon); the legacy IC latch (css/cso) and the
    // TSE request are armed by the frame's own descriptors and cleared at
    // EOP.
    TxCtxDesc tx_ctx{};
    bool tx_ctx_valid = false;
    bool tx_ic = false;
    std::uint8_t tx_css = 0;
    std::uint8_t tx_cso = 0;
    bool tx_tse = false;
    Stats stats;
  };

  struct L4Filter {
    bool valid = false;
    std::uint8_t proto = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t queue = 0;
  };

  void process(E82576Device& dev, sim::Ns now);
  void process_queue(E82576Device& dev, std::uint32_t q, sim::Ns now);
  void process_tx(E82576Device& dev, Queue& q, sim::Ns now);
  void process_rx(E82576Device& dev);
  void deliver_rx(E82576Device& dev, Queue& q,
                  std::span<const std::byte> payload);
  /// Complete one gathered TX frame: legacy css/cso checksum insertion,
  /// TSO slicing with per-frame header fixup, FCS append, wire transmit.
  void emit_tx_frame(Queue& q, sim::Ns now);
  void emit_wire_frame(Queue& q, std::span<const std::byte> frame,
                       sim::Ns now);
  /// Queue for one classified frame; nullopt = replicate to every queue
  /// (non-IPv4: ARP and friends). Caller holds mu_.
  [[nodiscard]] std::optional<std::uint32_t> classify_rx(
      std::span<const std::byte> frame) const;

  MacAddr mac_;
  Wire* wire_ = nullptr;
  int wire_side_ = 0;
  int index_ = 0;  // port number on the card (selects the DMA grant)
  bool enabled_ = false;

  // One mutex per port: RX classification (wire drain + descriptor fill for
  // ANY queue) and register writes serialize here. TX descriptor fetch for
  // a queue also runs under it — the walk is short and the lock is
  // uncontended unless two shards share a port.
  mutable std::mutex mu_;
  std::vector<Queue> queues_{1};
  RssReta reta_ = make_default_reta(1);
  std::array<L4Filter, kMaxL4Filters> l4_filters_{};
  Stats port_stats_;  // pre-classification rejects (CRC, length)
};

class E82576Device {
 public:
  E82576Device(cheri::TaggedMemory* mem, sim::VirtualClock* clock,
               std::array<MacAddr, 2> macs);

  /// IOMMU grant: the DMA engine may only touch memory reachable through
  /// `dma_cap` (descriptor rings + packet buffers of that port's driver).
  void attach_dma(int port, cheri::Capability dma_cap);

  /// Connect a port to one side of a wire.
  void connect(int port, Wire* wire, int side);

  [[nodiscard]] E82576Port& port(int i) { return ports_.at(i); }

  /// Device poll: advance TX/RX state machines of both ports, all queues.
  /// Called from driver rx/tx burst paths (polling model).
  void poll(sim::Ns now);
  /// Per-queue poll: TX for the CALLER'S queue only, plus the shared RX
  /// drain (which classifies into every queue). The only device entry a
  /// shard's driver thread uses.
  void poll_queue(int i, std::uint32_t q, sim::Ns now) {
    ports_.at(i).process_queue(*this, q, now);
  }

  [[nodiscard]] cheri::TaggedMemory& mem() noexcept { return *mem_; }
  [[nodiscard]] const cheri::Capability& dma_cap(int port) const {
    return dma_caps_.at(port);
  }
  [[nodiscard]] sim::VirtualClock* clock() const noexcept { return clock_; }

 private:
  cheri::TaggedMemory* mem_;
  sim::VirtualClock* clock_;
  std::array<E82576Port, 2> ports_;
  std::array<cheri::Capability, 2> dma_caps_;
};

}  // namespace cherinet::nic
