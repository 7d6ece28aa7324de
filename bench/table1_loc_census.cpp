// Table I — "Number of lines of code added/modified".
//
// The paper reports the F-Stack CHERI port touched 152 LoC (0.99 % of the
// library). Our stack is written from scratch, so the equivalent quantity
// is a census of *capability-aware* lines in src/fstack: lines that
// mention the capability types/operations a hybrid-mode port introduces
// (CapView parameters, capability-checked copies, bounds derivations).
// Both numbers answer the same question — how much of the TCP/IP library
// has to know about CHERI — and land in the same low-single-digit-percent
// band.
#include <filesystem>
#include <fstream>

#include "bench_common.hpp"

namespace {
bool is_capability_annotated(const std::string& line) {
  for (const char* token :
       {"CapView", "Capability", "cap_copy", "with_bounds", "with_perms",
        "CapFault", "machine::cap", "capability"}) {
    if (line.find(token) != std::string::npos) return true;
  }
  return false;
}
}  // namespace

int main() {
  using namespace cherinet::bench;
  print_header("Table I: lines of code added/modified for the CHERI port",
               "paper Table I (F-Stack: 152 LoC, 0.99%)");

  const std::filesystem::path root =
      std::filesystem::path(CHERINET_SOURCE_DIR) / "src" / "fstack";
  std::size_t total = 0, annotated = 0, files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      ++total;
      if (is_capability_annotated(line)) ++annotated;
    }
  }
  const double pct = total > 0
                         ? 100.0 * static_cast<double>(annotated) /
                               static_cast<double>(total)
                         : 0.0;
  std::printf("%-28s %12s %12s %12s\n", "Library", "LoC", "global", "percent");
  std::printf("%-28s %12s %12s %12s\n", "----------------------------",
              "------------", "------------", "------------");
  std::printf("%-28s %12s %12s %11s%%\n", "F-Stack (paper, diff)", "152",
              "15353*", "0.99");
  std::printf("%-28s %12zu %12zu %11.2f%%\n",
              "fstack (ours, cap-annotated)", annotated, total, pct);
  std::printf("\n(%zu files scanned; * upstream size inferred from the "
              "paper's percentage)\n",
              files);

  // The artifact scripts/check.sh ratchets against its committed baseline:
  // neither the annotated count nor the share may grow.
  Report rep("table1");
  rep.set("files", files)
      .set("annotated", annotated)
      .set("total", total)
      .set("share_pct", pct);
  // Shape check: capability-awareness stays in the low-single-digit
  // percent of the TCP/IP library.
  rep.gate("share_pct", pct, "<", 10.0);
  return rep.finish();
}
