// Quickstart: bring up two user-space stacks on an emulated wire, open a
// TCP connection through the capability-qualified ff_* API, and exchange a
// message — the whole public API surface in ~60 lines. Exits nonzero if the
// message does not arrive intact or the oversized write is not trapped.
//
//   build/example_quickstart
#include <cstdio>
#include <cstring>

#include "fstack/api.hpp"
#include "scenarios/two_stacks.hpp"

using namespace cherinet;
using namespace cherinet::fstack;

int main() {
  // --- the "hardware": one address space, one wire, two NICs, and a
  // compartment heap + stack instance per side, pumped deterministically
  // (step both stacks, advance virtual time when idle) ---------------------
  scen::TwoStacks ts;
  FfStack& a = ts.a();
  FfStack& b = ts.b();

  // --- server on B ---------------------------------------------------------
  const int lfd = ff_socket(b, kAfInet, kSockStream, 0);
  ff_bind(b, lfd, {Ipv4Addr{}, 7000});
  ff_listen(b, lfd, 4);

  // --- client on A: note the capability-qualified buffer ------------------
  const int cfd = ff_socket(a, kAfInet, kSockStream, 0);
  ff_connect(a, cfd, {Ipv4Addr::of(10, 0, 0, 2), 7000});

  int bfd = -1;
  ts.pump_until([&] { return (bfd = ff_accept(b, lfd, nullptr)) >= 0; });
  std::printf("accepted connection, fd=%d\n", bfd);

  machine::CapView tx = ts.heap_a().alloc_view(256);  // bounded capability
  const char msg[] = "hello through the capability world";
  tx.write(0, std::as_bytes(std::span{msg, sizeof msg}));
  ts.pump_until([&] { return ff_write(a, cfd, tx, sizeof msg) > 0; });

  machine::CapView rx = ts.heap_b().alloc_view(256);
  std::int64_t got = 0;
  ts.pump_until([&] { return (got = ff_read(b, bfd, rx, 256)) > 0; });
  char out[sizeof msg]{};
  rx.read(0, std::as_writable_bytes(std::span{out}));
  std::printf("server received %lld bytes: \"%s\"\n",
              static_cast<long long>(got), out);

  const bool intact = got == static_cast<std::int64_t>(sizeof msg) &&
                      std::strcmp(out, msg) == 0;

  // The same buffer with a lying length faults instead of leaking memory:
  bool trapped = false;
  try {
    (void)ff_write(a, cfd, tx, 4096);
  } catch (const cheri::CapFault& f) {
    trapped = true;
    std::printf("oversized write trapped: %s\n", f.what());
  }

  ff_close(a, cfd);
  ff_close(b, bfd);
  if (!intact || !trapped) {
    std::printf("quickstart FAILED\n");
    return 1;
  }
  std::printf("quickstart OK\n");
  return 0;
}
