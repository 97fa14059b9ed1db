// Registry of every modeled bug (Tables 2/3 and the abstract figures).
//
// Each scenario is a .ait text, src/bugs/corpus/<id>.ait, compiled into the
// library. The registry assembles every text once per process and hands out
// copies.

#ifndef SRC_BUGS_REGISTRY_H_
#define SRC_BUGS_REGISTRY_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/bugs/scenario.h"

namespace aitia {

struct ScenarioEntry {
  explicit ScenarioEntry(const BugScenario& scenario);

  // A copy of the scenario with its own KernelImage, so that MakeWorkload()
  // or any other change to one copy never reaches another.
  BugScenario make() const;

  const char* id;

 private:
  const BugScenario* scenario_;  // assembled once per process, never changed
};

// All registered scenarios, in the order of the paper's tables: Table 2
// CVEs, Table 3 syzkaller bugs, then the abstract figures.
const std::vector<ScenarioEntry>& AllScenarios();

// Scenarios belonging to Table 2 / Table 3 (prefix-based subsets).
std::vector<ScenarioEntry> Table2Scenarios();
std::vector<ScenarioEntry> Table3Scenarios();

// Builds a scenario by id; aborts on unknown id.
BugScenario MakeScenario(const std::string& id);

// Non-aborting lookup; nullptr on unknown id (for CLI / service frontends).
const ScenarioEntry* FindScenario(const std::string& id);

// The embedded text of each scenario, in registry order.
struct CorpusText {
  const char* id;  // the file name without ".ait"
  std::string_view text;
};
std::span<const CorpusText> CorpusTexts();

}  // namespace aitia

#endif  // SRC_BUGS_REGISTRY_H_
