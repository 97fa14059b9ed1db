#include "src/bugs/registry.h"

#include <cstdlib>
#include <memory>
#include <utility>

#include "src/ingest/assemble.h"
#include "src/ingest/parser.h"
#include "src/util/log.h"

namespace aitia {
namespace {

// The texts are part of the build and tested, so one that does not assemble,
// or names a scenario other than its file, is a broken build.
BugScenario Assemble(const CorpusText& corpus) {
  const std::string file = std::string("src/bugs/corpus/") + corpus.id + ".ait";
  StatusOr<TraceDoc> doc = ParseTraceText(corpus.text, file);
  StatusOr<BugScenario> scenario = doc.ok() ? AssembleScenario(*doc) : doc.status();
  if (!scenario.ok()) {
    AITIA_LOG(kError) << scenario.status().ToString();
    std::abort();
  }
  if (scenario->id != corpus.id) {
    AITIA_LOG(kError) << file << ": names scenario " << scenario->id;
    std::abort();
  }
  return std::move(*scenario);
}

}  // namespace

ScenarioEntry::ScenarioEntry(const BugScenario& scenario)
    : id(scenario.id.c_str()), scenario_(&scenario) {}

BugScenario ScenarioEntry::make() const {
  BugScenario copy = *scenario_;
  copy.image = std::make_shared<KernelImage>(*scenario_->image);
  return copy;
}

const std::vector<ScenarioEntry>& AllScenarios() {
  // Never destroyed, so that a thread still running at exit can use them.
  static const std::vector<BugScenario>* const kScenarios = [] {
    auto* scenarios = new std::vector<BugScenario>();
    for (const CorpusText& text : CorpusTexts()) {
      scenarios->push_back(Assemble(text));
    }
    return scenarios;
  }();
  static const std::vector<ScenarioEntry>* const kEntries =
      new std::vector<ScenarioEntry>(kScenarios->begin(), kScenarios->end());
  return *kEntries;
}

std::vector<ScenarioEntry> Table2Scenarios() {
  std::vector<ScenarioEntry> out;
  for (const auto& e : AllScenarios()) {
    if (std::string(e.id).rfind("CVE-", 0) == 0) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<ScenarioEntry> Table3Scenarios() {
  std::vector<ScenarioEntry> out;
  for (const auto& e : AllScenarios()) {
    if (std::string(e.id).rfind("syz-", 0) == 0) {
      out.push_back(e);
    }
  }
  return out;
}

const ScenarioEntry* FindScenario(const std::string& id) {
  for (const auto& e : AllScenarios()) {
    if (id == e.id) {
      return &e;
    }
  }
  return nullptr;
}

BugScenario MakeScenario(const std::string& id) {
  const ScenarioEntry* entry = FindScenario(id);
  if (entry == nullptr) {
    AITIA_LOG(kError) << "unknown scenario: " << id;
    std::abort();
  }
  return entry->make();
}

}  // namespace aitia
