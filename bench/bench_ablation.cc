// Ablation over AITIA's design choices (DESIGN.md):
//
//  1. DPOR-style conflict pruning in LIFS — schedules executed with the
//     restriction on vs off (the paper adopts DPOR "to prune unnecessary
//     search steps", §3.3).

#include <cstdio>
#include <string>

#include "src/bugs/registry.h"
#include "src/core/aitia.h"

int main() {
  using namespace aitia;
  std::printf("=== Ablation 1: LIFS conflict pruning (schedules to reproduce) ===\n\n");
  std::printf("%-16s | %12s %12s | %s\n", "Bug", "pruning ON", "pruning OFF", "saved");
  std::printf("%s\n", std::string(62, '-').c_str());

  long long total_on = 0;
  long long total_off = 0;
  for (const ScenarioEntry& entry : Table2Scenarios()) {
    BugScenario s = entry.make();
    LifsOptions on;
    on.target_type = s.truth.failure_type;
    LifsOptions off = on;
    off.dpor_pruning = false;

    Lifs lifs_on(s.image.get(), s.slice, s.setup, on);
    LifsResult r_on = lifs_on.Run();
    Lifs lifs_off(s.image.get(), s.slice, s.setup, off);
    LifsResult r_off = lifs_off.Run();

    total_on += r_on.schedules_executed;
    total_off += r_off.schedules_executed;
    double saved = r_off.schedules_executed == 0
                       ? 0
                       : 100.0 * (1.0 - static_cast<double>(r_on.schedules_executed) /
                                            static_cast<double>(r_off.schedules_executed));
    std::printf("%-16s | %12lld %12lld | %5.1f%%\n", s.id.c_str(),
                static_cast<long long>(r_on.schedules_executed),
                static_cast<long long>(r_off.schedules_executed), saved);
  }
  std::printf("%s\n", std::string(62, '-').c_str());
  std::printf("total: %lld vs %lld schedules (%.1f%% saved by pruning)\n\n", total_on,
              total_off,
              100.0 * (1.0 - static_cast<double>(total_on) / static_cast<double>(total_off)));
  return 0;
}
