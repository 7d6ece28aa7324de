// Tenant control plane: registration, binding, and hard eviction (API v9).
//
// The per-packet charge/credit sites live on the hot paths in stack.cpp;
// this file holds the COLD control operations — in particular tenant_evict,
// whose contract is total reclamation: after it returns, every PCB, wheel
// timer, pool buffer, loan, reservation and parked frame the tenant pinned
// is back at baseline, while every other tenant's state is untouched.

#include <cerrno>

#include "fstack/stack.hpp"

namespace cherinet::fstack {

int FfStack::tenant_register(std::string name, const TenantQuota& quota) {
  return tenants_.register_tenant(std::move(name), quota);
}

int FfStack::sock_set_tenant(int fd, int tid) {
  Socket* s = scoped_sock(fd);
  if (s == nullptr) return -EBADF;
  if (tid != 0 && !tenants_.valid(tid)) return -EINVAL;
  if (tid == s->tenant) return 0;
  // The fd moves between socket gauges: the new tenant must have headroom
  // BEFORE the old one is credited, or a failed move would leak a slot.
  if (!tenants_.charge_socket(tid)) return -EMFILE;
  tenants_.credit_socket(s->tenant);
  s->tenant = tid;
  // TCP: the PCB carries the authoritative copy so pure-protocol emissions
  // (ACKs, retransmits, parked SYN frames) bill the tenant too. On a
  // listener this is the tenant future accepted children inherit.
  if (s->kind == SockKind::kTcp && s->pcb != nullptr) s->pcb->set_tenant(tid);
  return 0;
}

int FfStack::uring_bind_tenant(int ring_id, int tid) {
  const auto it = urings_.find(ring_id);
  if (it == urings_.end()) return -EBADF;
  if (tid != 0 && !tenants_.valid(tid)) return -EINVAL;
  it->second.tenant = tid;
  it->second.cq_stall_rounds = 0;  // the new owner starts with a clean slate
  return 0;
}

int FfStack::tenant_evict(int tid) {
  if (!tenants_.valid(tid)) return -EINVAL;
  // The control plane reclaims: no tenant scope may hide the fds below.
  const TenantScope control_plane(*this, 0);

  // 1) Rings first: once detached, nothing can submit on the tenant's
  // behalf while the rest of the teardown runs.
  std::vector<int> ring_ids;
  for (const auto& [id, r] : urings_) {
    if (r.tenant == tid) ring_ids.push_back(id);
  }
  for (const int id : ring_ids) uring_detach(id);

  // 2) Unsubmitted zc TX reservations: the data rooms return to the pool
  // and the tokens die (a post-eviction submit answers -EINVAL like any
  // other stale token).
  for (auto it = zc_pending_.begin(); it != zc_pending_.end();) {
    if (it->second.tenant == tid) {
      pool_->free(it->second.m);
      tenants_.credit_zc_reservation(tid);
      it = zc_pending_.erase(it);
    } else {
      ++it;
    }
  }

  // 3) Outstanding RX loans: recycle the rooms and give the protocol
  // budgets their credits back — window ACKs a dead tenant would never
  // trigger by recycling are emitted here instead (then its PCBs abort
  // anyway in step 4, so the credit only matters for shared bookkeeping).
  for (auto it = zc_rx_loans_.begin(); it != zc_rx_loans_.end();) {
    if (it->second.tenant == tid) {
      const ZcRxLoan loan = it->second;
      it = zc_rx_loans_.erase(it);
      pool_->recycle(loan.m);
      if (loan.pcb != nullptr) {
        loan.pcb->zc_rx_credit(loan.charge);
        timer_sync(loan.pcb);
      }
      if (loan.udp != nullptr) loan.udp->credit_loan(loan.charge);
      tenants_.credit_loan(tid);
    } else {
      ++it;
    }
  }

  // 4) Sockets: abort-and-close. Established connections RST out (the
  // peer learns immediately) rather than lingering through FIN states a
  // dead tenant would never drive; listeners drop their backlog the same
  // way sock_close always has. sock_close credits the socket gauge.
  std::vector<int> fds;
  socks_.for_each([&](Socket& s) {
    if (s.tenant == tid) fds.push_back(s.fd);
  });
  for (const int fd : fds) {
    Socket* s = socks_.get(fd);
    if (s == nullptr) continue;
    if (s->kind == SockKind::kTcp && s->pcb != nullptr && !s->listening) {
      s->pcb->abort(ECONNABORTED);
      timer_sync(s->pcb);
    }
    sock_close(fd);
  }

  // 5) ARP-parked frames: reclaim only THIS tenant's frames; neighbours'
  // frames keep waiting on their hops.
  auto reclaimed = arp_.take_parked_if([&](updk::Mbuf* m) {
    const auto pit = parked_tenant_.find(m);
    return pit != parked_tenant_.end() && pit->second == tid;
  });
  for (updk::Mbuf* m : reclaimed) {
    credit_parked_frame(m);
    pool_->free_chain(m);
  }
  arp_timer_sync();  // emptied hops leave the pending-TTL wheel slot

  // 6) The aborted PCBs are closed (RST is immediate): reap them now so
  // the caller observes baseline PCB/wheel/pool counts on return.
  reap_closed();
  tenants_.mutable_stats(tid).evictions++;
  sync_flush();  // the RSTs leave before the call returns
  return 0;
}

}  // namespace cherinet::fstack
