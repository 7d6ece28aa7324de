// Physical constants of the emulated Morello + Intel 82576 testbed.
//
// Calibration rationale (see DESIGN.md §3):
//  * Each 82576 port is 1 GbE. Wire occupancy per Ethernet frame is
//    preamble(8) + frame(14 hdr + payload + 4 FCS) + inter-frame gap(12).
//    With MSS 1448 (TCP timestamps on, as on FreeBSD/CheriBSD) a full-size
//    data segment occupies 1538 wire bytes carrying 1448 payload bytes:
//    goodput ceiling = 1e9 * 1448/1538 = 941.5 Mbit/s — the paper's
//    94.1 % single-port efficiency.
//  * The dual-port card sits behind one PCI bus. The paper measures per-port
//    plateaus of 658 Mbit/s (server/RX) and 757 Mbit/s (client/TX) when both
//    ports are active and attributes them to "hardware limitations imposed
//    by the PCI NIC". We model this as direction-dependent aggregate caps on
//    DMA wire-bytes: 2 * 658e6 * (1538/1448) = 1.3978 Gbit/s for RX and
//    2 * 757e6 * (1538/1448) = 1.6082 Gbit/s for TX, arbitrated round-robin
//    across ports.
#pragma once

#include <chrono>
#include <cstdint>

namespace cherinet::sim {

struct Testbed {
  // --- per-port wire ---
  double wire_bits_per_sec = 1e9;
  std::uint32_t preamble_bytes = 8;
  std::uint32_t ifg_bytes = 12;
  std::uint32_t fcs_bytes = 4;
  std::chrono::nanoseconds wire_latency{2'000};  // cable + PHY, per direction

  // --- shared host bus (PCI) across both ports of the card ---
  double bus_rx_bits_per_sec = 1.3978e9;
  double bus_tx_bits_per_sec = 1.6082e9;

  // --- L2/L3 defaults ---
  std::uint16_t mtu = 1500;
  std::uint16_t mss = 1448;  // 1500 - 20 IP - 20 TCP - 12 timestamp option

  [[nodiscard]] static Testbed morello_82576() noexcept { return Testbed{}; }

  /// An idealized testbed without the PCI bottleneck (for unit tests).
  [[nodiscard]] static Testbed unconstrained() noexcept {
    Testbed t;
    t.bus_rx_bits_per_sec = 1e12;
    t.bus_tx_bits_per_sec = 1e12;
    return t;
  }
};

}  // namespace cherinet::sim
