// iperf demo: run the paper's Scenario 2 (app compartment + network
// compartment) end to end and print the bandwidth report — a miniature of
// the Table II harness. Exits nonzero unless every endpoint moved the full
// volume.
//
//   build/example_iperf_demo [megabytes]
#include <cstdio>
#include <cstdlib>

#include "scenarios/experiment.hpp"

using namespace cherinet::scen;

int main(int argc, char** argv) {
  const std::uint64_t mb = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
  std::printf("Scenario 2 (uncontended): cVM2 app -> proxied ff_* -> cVM1 "
              "stack -> wire -> peer, %llu MiB\n",
              static_cast<unsigned long long>(mb));
  const auto r = run_bandwidth(ScenarioKind::kScenario2Uncontended,
                               Direction::kMorelloReceives, mb << 20);
  bool complete = !r.endpoints.empty();
  for (const auto& e : r.endpoints) {
    std::printf("  %-8s %llu bytes  %.1f Mbit/s (efficiency %.1f%%)\n",
                e.label.c_str(), static_cast<unsigned long long>(e.bytes),
                e.mbps, e.mbps / 10.0);
    complete = complete && e.bytes == (mb << 20) && e.mbps > 0.0;
  }
  std::printf("(paper Table II: 941 Mbit/s, 94.1%%)\n");
  return complete ? 0 : 1;
}
