#include "nic/wire.hpp"

#include <algorithm>
#include <cstddef>

namespace cherinet::nic {

void Wire::set_impairment(int side, const ImpairmentProfile& profile) {
  ep_[side].impair.configure(profile);
}

void Wire::insert_sorted(Endpoint& ep, sim::Ns arrive, Frame frame) {
  // Arrival-sorted insertion keeps poll()'s front-of-queue pop and the
  // poller's next_delivery() correct under jitter and reordering. Equal
  // arrivals (duplicates) land after their original.
  const auto it = std::upper_bound(
      ep.inbox.begin(), ep.inbox.end(), arrive,
      [](sim::Ns t, const InFlight& f) { return t < f.arrive; });
  ep.inbox.insert(it, InFlight{arrive, std::move(frame)});
}

void Wire::release_due_held(Endpoint& ep, sim::Ns now) {
  // Overtakers never came: the deadline (original arrival + reorder_extra)
  // releases the frame so it cannot be stranded.
  for (auto it = ep.held.begin(); it != ep.held.end();) {
    if (it->deadline <= now) {
      insert_sorted(ep, it->deadline, std::move(it->frame));
      it = ep.held.erase(it);
    } else {
      ++it;
    }
  }
}

void Wire::transmit(int side, Frame frame, sim::Ns ready) {
  Endpoint& tx = ep_[side];
  Endpoint& rx = ep_[1 - side];

  const std::uint64_t tx_index = tx.tx_index++;
  tx.stats.tx_frames++;
  tx.stats.tx_bytes += frame.size();

  // DMA out of the sender's host memory, then into the receiver's.
  sim::Ns t = ready;
  if (tx.bus != nullptr) t = tx.bus->reserve(SharedBus::Dir::kTx, frame.size(), t);
  if (rx.bus != nullptr) t = rx.bus->reserve(SharedBus::Dir::kRx, frame.size(), t);

  // Wire serialization at line rate, including preamble + IFG overhead.
  const std::uint64_t wire_bytes = frame.size() + tb_.preamble_bytes + tb_.ifg_bytes;
  const auto ser = sim::Ns{static_cast<std::int64_t>(
      static_cast<double>(wire_bytes) * 8.0 * 1e9 / tb_.wire_bits_per_sec)};
  const sim::Ns start = std::max(t, tx.lane_free);
  if (tx_index > 0) {
    tx.stats.idle_ns += static_cast<std::uint64_t>((start - tx.lane_free).count());
  }
  tx.lane_free = start + ser;
  sim::Ns arrive = tx.lane_free + tb_.wire_latency;
  ImpairmentVerdict verdict;
  sim::Ns reorder_extra{0};
  if (tx.impair.enabled()) {
    verdict = tx.impair.next_frame();
    reorder_extra = tx.impair.profile().reorder_extra;
    if (verdict.drop) tx.stats.impair_loss++;
    if (verdict.burst_drop) tx.stats.impair_burst_loss++;
    if (verdict.drop || verdict.burst_drop) tx.stats.dropped++;
    if (verdict.duplicate) tx.stats.impair_dups++;
    if (verdict.reorder) tx.stats.impair_reorders++;
    if (verdict.corrupt) tx.stats.impair_corrupts++;
    if (verdict.extra_delay.count() > 0) tx.stats.impair_jittered++;
  }

  if (loss_ && loss_(side, tx_index)) {
    tx.stats.dropped++;
    return;
  }
  if (verdict.drop || verdict.burst_drop) return;

  arrive += verdict.extra_delay;  // jitter
  Frame dup;
  if (verdict.duplicate) dup = frame;  // copy before corruption: the wire
                                       // echoed the frame once intact
  if (verdict.corrupt && !frame.data.empty()) {
    const std::uint64_t bit = verdict.corrupt_bit % (frame.data.size() * 8);
    std::byte& b = frame.data[bit / 8];
    b = static_cast<std::byte>(std::to_integer<unsigned>(b) ^
                               (1u << (bit % 8)));
  }

  // This frame overtakes anything held back for reordering: count it
  // against every hold and release the ones it was the last overtaker of,
  // reorder_extra after this frame's own arrival. The +1ns keeps the
  // released frame STRICTLY behind its overtaker even at reorder_extra=0
  // (an arrival tie would sort it back in front — no reordering at all).
  for (auto it = rx.held.begin(); it != rx.held.end();) {
    if (it->remaining > 0) --it->remaining;
    if (it->remaining == 0) {
      insert_sorted(rx,
                    std::max(it->deadline, arrive + reorder_extra) +
                        sim::Ns{1},
                    std::move(it->frame));
      it = rx.held.erase(it);
    } else {
      ++it;
    }
  }
  if (verdict.reorder) {
    rx.held.push_back(
        Held{arrive + reorder_extra, std::move(frame), verdict.hold_frames});
  } else {
    insert_sorted(rx, arrive, std::move(frame));
  }
  if (verdict.duplicate) insert_sorted(rx, arrive, std::move(dup));
}

std::vector<Frame> Wire::poll(int side) {
  Endpoint& ep = ep_[side];
  const sim::Ns now = clock_->now();
  std::vector<Frame> out;
  release_due_held(ep, now);
  while (!ep.inbox.empty() && ep.inbox.front().arrive <= now) {
    out.push_back(std::move(ep.inbox.front().frame));
    ep.inbox.pop_front();
    ep.stats.rx_frames++;
  }
  return out;
}

std::optional<sim::Ns> Wire::next_delivery(int side) const {
  const Endpoint& ep = ep_[side];
  std::optional<sim::Ns> next;
  if (!ep.inbox.empty()) next = ep.inbox.front().arrive;
  for (const Held& h : ep.held) {
    if (!next || h.deadline < *next) next = h.deadline;
  }
  return next;
}

Wire::Stats Wire::stats(int side) const { return ep_[side].stats; }

}  // namespace cherinet::nic
