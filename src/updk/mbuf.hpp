// Packet buffers (rte_mbuf analogue) backed by capability-bounded data rooms.
//
// Each mbuf owns a fixed data room carved from the compartment heap as a
// *bounded capability*: the NIC's DMA engine and the protocol stack both
// access packet bytes exclusively through it, so an off-by-one in any layer
// faults at the mbuf boundary instead of corrupting a neighbour (the
// fine-grained protection the paper gets from CHERI-porting DPDK, §III-B).
// Layout mirrors DPDK: headroom for prepending L2/L3 headers, data region,
// tailroom.
//
// ---- Chained-mbuf driver ABI (scatter-gather emission) ----
//
// A frame handed to EthDev::tx_burst is a CHAIN: the head mbuf (protocol
// headers, serialized into its headroom DPDK-style) linked through `next`
// to payload segments, `nb_segs` counted on the head and pkt_len() the sum
// of the segments' data_len. Payload segments are usually INDIRECT mbufs
// (Mempool::alloc_indirect): headers without a data room of their own whose
// [data_off, data_off+data_len) windows another buffer's still-live room
// under that buffer's refcount — each slice reachable only through its own
// exactly-bounded capability, CompartOS-style bounded delegation applied to
// the wire path.
//
// Ownership: tx_burst takes the WHOLE chain on acceptance; the driver frees
// it with Mempool::free_chain once the device has fetched every segment
// (freeing an indirect segment detaches it, dropping its reference on the
// attached buffer). A rejected chain stays the caller's to free. RX never
// produces chains: the device model linearizes every received frame into
// the single staged descriptor buffer (the RX linearization rule), so
// rx_burst hands out plain single-segment mbufs.
//
// ---- Offload descriptor/flag ABI (hardware checksum + TSO, API v8) ----
//
// Offload metadata rides the HEAD mbuf of a chain (rte_mbuf ol_flags
// idiom); segments ignore it. All fields are requests/verdicts about the
// fully assembled frame the chain describes, not about any one segment.
//
//   ol_flags   TX request bits (set by the stack iff the queue negotiated
//              the capability through EthDev::offloads()):
//                kTxOffloadIpCsum   insert the IPv4 header checksum
//                kTxOffloadTcpCsum  insert the TCP checksum; the stack
//                                   seeds the header's checksum field with
//                                   the folded, NON-inverted pseudo-header
//                                   sum (length term included)
//                kTxOffloadUdpCsum  same contract for UDP
//                kTxOffloadTso      frame is one TCP super-segment; the
//                                   device slices it into tso_segsz-sized
//                                   wire frames with per-slice header
//                                   fixups. Seed EXCLUDES the length term
//                                   (it differs per slice; the device adds
//                                   it) — the DPDK/igb TSO convention.
//              RX verdict bits (set by the driver from the descriptor
//              status/error write-back when the queue negotiated
//              kOffloadRxCsum):
//                kRxCsumIpGood/_Bad   IPv4 header sum checked good/bad
//                kRxCsumL4Good/_Bad   TCP/UDP sum checked good/bad
//              A frame with NEITHER Good nor Bad for a layer was not
//              checked (non-IP, fragment, UDP checksum 0): software must
//              verify.
//   l2_len     MAC header bytes (14 here — no VLAN on these testbeds).
//   l3_len     IPv4 header bytes including options.
//   l4_len     TCP header bytes including options (8 for UDP).
//   tso_segsz  TSO slice payload size (the connection MSS); 0 otherwise.
//
// The PMD translates these to the 82576 descriptor surface: checksum-only
// frames use the legacy IC/css/cso insertion on the first data descriptor;
// TSO frames spend one extra ring slot on a TxCtxDesc (cached per queue —
// re-emitted only when the {l2,l3,l4,mss} tuple changes) and tag their
// data descriptors with TSE. A queue whose EthConf::offloads mask drops a
// capability never sees the corresponding flag: the stack's negotiation at
// attach time keeps the pure software path byte-identical per queue.
#pragma once

#include <cstdint>

#include "machine/cap_view.hpp"

namespace cherinet::updk {

class Mempool;

inline constexpr std::uint32_t kMbufHeadroom = 128;

// Mbuf::ol_flags — TX offload requests (stack → driver)…
inline constexpr std::uint32_t kTxOffloadIpCsum = 1u << 0;
inline constexpr std::uint32_t kTxOffloadTcpCsum = 1u << 1;
inline constexpr std::uint32_t kTxOffloadUdpCsum = 1u << 2;
inline constexpr std::uint32_t kTxOffloadTso = 1u << 3;
// …and RX checksum verdicts (driver → stack). See the ABI block above.
inline constexpr std::uint32_t kRxCsumIpGood = 1u << 8;
inline constexpr std::uint32_t kRxCsumIpBad = 1u << 9;
inline constexpr std::uint32_t kRxCsumL4Good = 1u << 10;
inline constexpr std::uint32_t kRxCsumL4Bad = 1u << 11;

struct Mbuf {
  machine::CapView room;      // the whole data room (bounded capability)
  std::uint32_t data_off = kMbufHeadroom;
  std::uint32_t data_len = 0;
  std::uint16_t refcnt = 0;
  std::uint16_t nb_segs = 1;  // head of a chain: segments linked via next
  Mbuf* next = nullptr;       // next segment of this frame (nullptr = last)
  std::uint32_t pool_index = 0;
  Mempool* pool = nullptr;
  // Indirect mbufs: `room` windows `attach`'s data room (or a raw stack-
  // internal view when attach == nullptr) under a reference released at
  // free time. Direct mbufs keep both fields at their defaults.
  Mbuf* attach = nullptr;
  bool indirect = false;
  // Offload metadata (head mbuf of a chain; see the ABI block above).
  std::uint32_t ol_flags = 0;
  std::uint8_t l2_len = 0;
  std::uint8_t l3_len = 0;
  std::uint8_t l4_len = 0;
  std::uint16_t tso_segsz = 0;

  [[nodiscard]] std::uint64_t room_size() const noexcept {
    return room.size();
  }
  [[nodiscard]] std::uint32_t headroom() const noexcept { return data_off; }
  [[nodiscard]] std::uint64_t tailroom() const noexcept {
    return room_size() - data_off - data_len;
  }

  /// Total frame bytes across the chain (rte_pktmbuf_pkt_len).
  [[nodiscard]] std::uint32_t pkt_len() const noexcept {
    std::uint32_t n = 0;
    for (const Mbuf* s = this; s != nullptr; s = s->next) n += s->data_len;
    return n;
  }

  /// Link `seg` as the last segment of this (head) chain.
  void chain(Mbuf* seg) noexcept {
    Mbuf* t = this;
    while (t->next != nullptr) t = t->next;
    t->next = seg;
    nb_segs = static_cast<std::uint16_t>(nb_segs + seg->nb_segs);
  }

  /// Capability view of the packet data [data_off, data_off+data_len).
  [[nodiscard]] machine::CapView data() const {
    return room.window(data_off, data_len);
  }
  /// Address of the first packet byte (what descriptors carry).
  [[nodiscard]] std::uint64_t data_addr() const noexcept {
    return room.address() + data_off;
  }

  /// Exactly-bounded READ-ONLY view of [off, off+len) within the data room:
  /// the capability an OP_ZC_RECV CQE loans the application. The bounds are the
  /// payload, nothing more; store permission is dropped so a loan can never
  /// corrupt the room it aliases (CompartOS-style bounded delegation).
  [[nodiscard]] machine::CapView loan(std::uint32_t off,
                                      std::uint32_t len) const {
    return room.window(off, len).readonly();
  }

  void reset() noexcept {
    data_off = kMbufHeadroom;
    data_len = 0;
    next = nullptr;
    nb_segs = 1;
    ol_flags = 0;
    l2_len = 0;
    l3_len = 0;
    l4_len = 0;
    tso_segsz = 0;
  }

  /// Grow at the tail; returns a view of the appended region.
  machine::CapView append(std::uint32_t n) {
    if (n > tailroom()) {
      throw cheri::CapFault(cheri::FaultKind::kBoundsViolation,
                            data_addr() + data_len, n, room.to_string(),
                            "mbuf append beyond tailroom");
    }
    const std::uint32_t off = data_off + data_len;
    data_len += n;
    return room.window(off, n);
  }

  /// Grow at the head (L2/L3 header push); returns the new front view.
  machine::CapView prepend(std::uint32_t n) {
    if (n > data_off) {
      throw cheri::CapFault(cheri::FaultKind::kBoundsViolation,
                            room.address(), n, room.to_string(),
                            "mbuf prepend beyond headroom");
    }
    data_off -= n;
    data_len += n;
    return room.window(data_off, n);
  }

  /// Shrink at the tail.
  void trim(std::uint32_t n) {
    if (n > data_len) n = data_len;
    data_len -= n;
  }
  /// Shrink at the head (header pull).
  void adj(std::uint32_t n) {
    if (n > data_len) n = data_len;
    data_off += n;
    data_len -= n;
  }
};

}  // namespace cherinet::updk
