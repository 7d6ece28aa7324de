// Compartment breach demo (the paper's Fig. 3 as an interactive story):
// an attacker compartment tries every escape it can think of; the
// Intravisor's console shows each one trapped while the victim's secret
// survives. Exits nonzero if any attempt escapes or the secret changes.
//
//   build/example_compartment_breach
#include <cstdio>
#include <cstring>

#include "intravisor/intravisor.hpp"

using namespace cherinet;

int main() {
  iv::Intravisor::Config cfg;
  cfg.memory_bytes = 64u << 20;
  iv::Intravisor ivr(cfg);

  iv::CVM& victim = ivr.create_cvm("victim-netstack", 8u << 20);
  iv::CVM& attacker = ivr.create_cvm("attacker-app", 8u << 20);

  auto secret = victim.alloc(64);
  const char key[] = "TOP-SECRET-TLS-KEY-0xC0FFEE";
  secret.write(0, std::as_bytes(std::span{key, sizeof key}));
  std::printf("victim stored a secret at 0x%llx (inside its DDC)\n",
              static_cast<unsigned long long>(secret.address()));

  struct Attempt {
    const char* name;
    std::function<void()> run;
  };
  const std::uint64_t target = secret.address();
  auto& mem = ivr.address_space().mem();
  const Attempt attempts[] = {
      {"read the victim's secret via a guessed address",
       [&] {
         (void)mem.load_scalar<std::uint64_t>(attacker.context().ddc,
                                              target);
       }},
      {"overflow my own buffer into the neighbour allocation",
       [&] {
         auto mine = attacker.alloc(32);
         std::byte blob[64]{};
         mine.write(0, blob);
       }},
      {"widen my capability's bounds back out",
       [&] {
         auto mine = attacker.alloc(32);
         (void)mine.cap().with_bounds(mine.cap().base() - 64, 4096);
       }},
      {"forge a capability from raw bytes",
       [&] {
         auto mine = attacker.alloc(32);
         mem.store_scalar<std::uint64_t>(mine.cap(), mine.address(), target);
         const cheri::Capability forged =
             mem.load_cap(attacker.context().ddc.with_perms(
                              cheri::PermSet::data_rw()),
                          mine.address() & ~0xFull);
         (void)mem.load_scalar<std::uint64_t>(forged, target);
       }},
      {"call through an unsealed fake entry token",
       [&] {
         machine::CrossCallArgs args;
         machine::SealedEntry fake{
             attacker.context().pcc,  // unsealed code cap
             attacker.context().ddc};
         (void)ivr.entries().invoke(fake, args);
       }},
  };

  int contained = 0;
  for (const auto& a : attempts) {
    std::printf("\n[attacker-app] %s...\n", a.name);
    iv::CVM& shot = ivr.create_cvm("attacker-app", 1u << 20);
    (void)shot;
    try {
      machine::ExecutionContext::Scope scope(attacker.context());
      a.run();
      std::printf("  !! attempt succeeded — this would be a CHERI bug\n");
    } catch (const cheri::CapFault& f) {
      ++contained;
      std::printf("  trapped: %s\n", f.what());
    }
  }

  char still[sizeof key]{};
  secret.read(0, std::as_writable_bytes(std::span{still}));
  std::printf("\n%d/%zu attempts contained; victim's secret intact: \"%s\"\n",
              contained, std::size(attempts), still);
  const bool intact = std::memcmp(still, key, sizeof key) == 0;
  return static_cast<std::size_t>(contained) == std::size(attempts) && intact
             ? 0
             : 1;
}
