// Table 3 — concurrency bugs reported by the Syzkaller front end.
//
// Regenerates the paper's per-bug columns: bug type, multi-variable flag
// (with loose-correlation asterisk), LIFS time / schedules / interleavings,
// Causality Analysis time / schedules, and the number of races in the final
// causality chain. The shape to reproduce: all 12 diagnose; interleaving
// count is 1 except the j1939 refcount bug (2); chains stay a handful of
// races; no ambiguity.

#include <cstdio>
#include <map>
#include <string>

#include "src/bugs/registry.h"
#include "src/core/aitia.h"

namespace {

struct PaperRow {
  double lifs_s;
  int lifs_sched;
  int inter;
  double ca_s;
  int ca_sched;
  int chain;
};

const std::map<std::string, PaperRow> kPaper = {
    {"syz-01", {165.7, 751, 1, 251.3, 236, 2}},
    {"syz-02", {318, 133, 1, 1152, 471, 4}},
    {"syz-03", {65.8, 178, 1, 1035.6, 773, 2}},
    {"syz-04", {152.1, 503, 1, 189.6, 138, 2}},
    {"syz-05", {45.7, 2, 1, 930.4, 405, 1}},
    {"syz-06", {755, 176, 1, 988, 388, 4}},
    {"syz-07", {872.7, 231, 1, 1575, 523, 4}},
    {"syz-08", {2818.8, 1044, 2, 3286, 1469, 5}},
    {"syz-09", {1526.4, 628, 1, 1452.6, 848, 2}},
    {"syz-10", {70.8, 101, 1, 2365.1, 1032, 4}},
    {"syz-11", {72.4, 15, 1, 1692.9, 627, 2}},
    {"syz-12", {740.1, 272, 1, 2032, 843, 4}},
};

}  // namespace

int main() {
  using namespace aitia;
  std::printf("=== Table 3: Syzkaller-reported concurrency bugs ===\n");
  std::printf("(measured; paper values in parentheses; * = loosely correlated)\n\n");
  std::printf("%-8s %-13s %-26s %-6s | %9s %11s %8s | %9s %10s | %s\n", "Bug", "Subsystem",
              "Bug type", "Multi?", "LIFS ms", "# sched", "Inter.", "CA ms", "# sched",
              "# races in chain");
  std::printf("%s\n", std::string(130, '-').c_str());

  int diagnosed = 0;
  double lifs_total = 0;
  double ca_total = 0;
  for (const ScenarioEntry& entry : Table3Scenarios()) {
    BugScenario s = entry.make();
    AitiaOptions options;
    options.lifs.target_type = s.truth.failure_type;
    AitiaReport report = DiagnoseSlice(*s.image, s.slice, s.setup, options);
    const PaperRow& paper = kPaper.at(s.id);
    if (!report.diagnosed) {
      std::printf("%-8s %-13s NOT REPRODUCED\n", s.id.c_str(), s.subsystem.c_str());
      continue;
    }
    ++diagnosed;
    lifs_total += report.lifs.seconds;
    ca_total += report.causality.seconds;
    std::string multi = s.truth.multi_variable ? "Yes" : "No";
    if (s.truth.loosely_correlated) {
      multi += "*";
    }
    std::printf("%-8s %-13s %-26s %-6s | %6.2f(%5.0fs) %4lld(%5d) %3d(%d) | %6.2f(%5.0fs) %4lld(%5d) | %zu (%d)\n",
                s.id.c_str(), s.subsystem.c_str(), s.bug_kind.c_str(), multi.c_str(),
                report.lifs.seconds * 1e3, paper.lifs_s,
                static_cast<long long>(report.lifs.schedules_executed), paper.lifs_sched,
                report.lifs.interleaving_count, paper.inter,
                report.causality.seconds * 1e3, paper.ca_s,
                static_cast<long long>(report.causality.schedules_executed), paper.ca_sched,
                report.causality.chain.race_count(), paper.chain);
  }
  std::printf("%s\n", std::string(130, '-').c_str());
  std::printf("diagnosed %d/12; mean LIFS %.2f ms, mean CA %.2f ms per bug\n", diagnosed,
              lifs_total / 12 * 1e3, ca_total / 12 * 1e3);
  std::printf("(paper: 12/12; mean reproducing 633.6 s, mean diagnosing 1412.5 s on real VMs)\n");
  return 0;
}
