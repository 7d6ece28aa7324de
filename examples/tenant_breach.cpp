// Tenant breach demo (Scenario 3's isolation claim as an interactive
// story): two tenants share ONE network stack compartment, each with its
// own ring. The victim tenant receives a secret over the wire as a
// zero-copy RX loan — an OP_ZC_RECV CQE carrying an exactly-bounded
// read-only capability straight into the stack's mbuf.
// The attacker tenant then tries every way to reach that loan: replaying
// the victim's token through its own ring, spending it as a TX token,
// forging a capability to the mbuf's address from raw bytes, and writing
// through a stolen copy of the loan view. Every attempt is answered by the
// capability hardware (CapFault) or the stack's tenant checks (-EINVAL for
// a neighbour's token, -EBADF for a neighbour's fd) while the victim's loan
// stays readable and recyclable. Exits nonzero if any attempt succeeds.
//
//   build/example_tenant_breach
#include <cstdio>
#include <cstring>
#include <optional>

#include "fstack/api.hpp"
#include "fstack/uring.hpp"
#include "scenarios/two_stacks.hpp"

using namespace cherinet;
using namespace cherinet::fstack;

namespace {

/// A tenant's doorway into the shared stack: a ring the control plane
/// binds to the tenant's row. Each submission is drained by its doorbell.
struct TenantRing {
  static constexpr std::uint32_t kSq = 8, kCq = 16;

  TenantRing(scen::TwoStacks& rig, int tid)
      : st(rig.a()),
        mem(rig.heap_a().alloc_view(FfUring::bytes_for(kSq, kCq))),
        ring(mem, kSq, kCq),
        id(ff_uring_attach(st, mem, kSq, kCq)) {
    ff_uring_bind_tenant(st, id, tid);
  }
  /// One SQE in, drained by the doorbell that follows it.
  void submit(const FfUringSqe& e) {
    ring.sq_push(e);
    ff_uring_doorbell(st, id);
  }
  /// The next CQE, or nothing when the stack posted none.
  std::optional<FfUringCqe> reap() {
    FfUringCqe cqe;
    if (ring.cq_pop({&cqe, 1}) != 1) return std::nullopt;
    return cqe;
  }

  FfStack& st;
  machine::CapView mem;
  FfUring ring;
  int id;
};

}  // namespace

int main() {
  // Stack A hosts both tenants; stack B is the remote peer that sends the
  // secret.
  scen::TwoStacks rig;
  FfStack& st = rig.a();

  // Two tenant rows on the shared stack: the orchestrator's ledger.
  const int victim = ff_tenant_register(st, "victim", TenantQuota{});
  const int attacker = ff_tenant_register(st, "attacker", TenantQuota{});
  std::printf("one stack, two tenants: victim tid=%d, attacker tid=%d\n",
              victim, attacker);

  // The victim's UDP socket receives the secret from the remote peer.
  const int vfd = ff_socket(st, kAfInet, kSockDgram, 0);
  ff_set_tenant(st, vfd, victim);
  ff_bind(st, vfd, {Ipv4Addr{}, 9000});

  const char key[] = "TOP-SECRET-SESSION-KEY-0xC0FFEE";
  {
    FfStack& peer = rig.b();
    const int pfd = ff_socket(peer, kAfInet, kSockDgram, 0);
    auto msg = rig.heap_b().alloc_view(sizeof key);
    msg.write(0, std::as_bytes(std::span{key, sizeof key}));
    ff_sendto(peer, pfd, msg, sizeof key, {Ipv4Addr::of(10, 0, 0, 1), 9000});
    rig.pump(200);
    ff_close(peer, pfd);
  }

  // Zero-copy receive through the victim's ring: the loan is an
  // exactly-bounded READ-ONLY capability into the stack's own mbuf — no
  // copy was made, so the only thing guarding the secret is the
  // capability itself (and the tenant ledger).
  TenantRing vring(rig, victim);
  FfUringSqe take;
  take.op = UringOp::kZcRecv;
  take.fd = vfd;
  take.a[0] = 1;
  vring.submit(take);
  const std::optional<FfUringCqe> got = vring.reap();
  const FfZcRxBuf loan =
      got && got->result > 0
          ? FfZcRxBuf{got->aux0, got->cap, uring_unpack_addr(got->aux1)}
          : FfZcRxBuf{};
  if (!loan.valid()) {
    std::printf("!! secret never arrived\n");
    return 1;
  }
  char seen[sizeof key]{};
  loan.data.read(0, std::as_writable_bytes(std::span{seen}));
  std::printf("victim's loan: %zu bytes at 0x%llx -> \"%s\"\n",
              static_cast<std::size_t>(loan.data.size()),
              static_cast<unsigned long long>(loan.data.address()),
              seen);

  // The attacker tenant attaches its own ring — its only doorway into the
  // shared stack — and the control plane binds it to the attacker's row.
  TenantRing aring(rig, attacker);

  int contained = 0, attempts = 0;
  const auto ring_verdict = [&](UringOp op, std::uint64_t token,
                                const char* what) {
    ++attempts;
    std::printf("\n[attacker] %s...\n", what);
    FfUringSqe e;
    e.op = op;
    e.fd = vfd;  // the victim's fd, straight from a leak
    e.user_data = static_cast<std::uint64_t>(attempts);
    if (op == UringOp::kRecycle) {
      e.a[0] = 1;
      e.tokens[0] = token;
    } else {
      e.a[0] = token;
      e.a[1] = 16;
    }
    aring.submit(e);
    rig.pump(8);
    const std::optional<FfUringCqe> cqe = aring.reap();
    if (cqe && cqe->result < 0) {
      ++contained;
      std::printf("  rejected by the tenant checks: result=%lld\n",
                  static_cast<long long>(cqe->result));
    } else if (!cqe) {
      std::printf("  !! no verdict came back\n");
    } else {
      std::printf("  !! the cross-tenant token was honoured\n");
    }
  };

  // 1+2: replay the victim's loan token through the attacker's own ring —
  // as a recycle and as a TX spend. The drain runs them AS the attacker
  // tenant; the ledger knows who reserved the token.
  ring_verdict(UringOp::kRecycle, loan.token,
               "recycle the victim's loan token through my ring");
  ring_verdict(UringOp::kZcSend, loan.token,
               "spend the victim's token as my zero-copy TX send");

  // 3: forge a capability to the loan's mbuf address from raw bytes.
  ++attempts;
  std::printf("\n[attacker] forge a capability to the loan from raw bytes...\n");
  try {
    auto scratch = rig.heap_a().alloc_view(16);
    scratch.store<std::uint64_t>(0, loan.data.address());
    // The raw store cleared the granule's tag: what loads back is data
    // shaped like a capability, and the first dereference faults.
    auto& mem = rig.address_space().mem();
    const cheri::Capability forged =
        mem.load_cap(scratch.cap(), scratch.address() & ~0xFull);
    (void)mem.load_scalar<std::uint64_t>(forged, loan.data.address());
    std::printf("  !! forged capability dereferenced — a CHERI bug\n");
  } catch (const cheri::CapFault& f) {
    ++contained;
    std::printf("  trapped: %s\n", f.what());
  }

  // 4: write through a stolen COPY of the loan view. Even the victim never
  // got write permission — the loan is read-only by construction.
  ++attempts;
  std::printf("\n[attacker] scribble through a stolen copy of the loan...\n");
  try {
    machine::CapView stolen = loan.data;
    stolen.store<std::uint8_t>(0, 0x41);
    std::printf("  !! the loan was writable — a CHERI bug\n");
  } catch (const cheri::CapFault& f) {
    ++contained;
    std::printf("  trapped: %s\n", f.what());
  }

  // The victim is untouched by all of it: the secret still reads back and
  // the loan recycles normally through the victim's own ring.
  std::memset(seen, 0, sizeof seen);
  loan.data.read(0, std::as_writable_bytes(std::span{seen}));
  FfUringSqe give_back;
  give_back.op = UringOp::kRecycle;
  give_back.a[0] = 1;
  give_back.tokens[0] = loan.token;
  vring.submit(give_back);
  const std::optional<FfUringCqe> back = vring.reap();
  const std::int64_t recycled = back ? back->result : 0;
  std::printf("\n%d/%d attempts contained; victim still reads \"%s\" and "
              "recycles its loan (recycled=%lld)\n",
              contained, attempts, seen, static_cast<long long>(recycled));
  ff_close(st, vfd);
  return contained == attempts && recycled == 1 ? 0 : 1;
}
