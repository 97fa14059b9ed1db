// Corpus-wide differential test for the static triage pre-filter
// (src/analysis/triage): diagnosing every bundled scenario with the
// pre-filter off and on must produce bit-identical semantics
// — per-race verdicts and flip bits, disappearance sets, the rendered causal
// chain, root-cause index sets, and the diagnosed/degraded flags. The
// pre-filter may only change *how much work* the dynamic stage does
// (schedules_executed), never *what it concludes*.
//
// This is the enforcement arm of the TriageStage conservatism contract
// (DESIGN.md §13): a stage returns kProvablyBenign only with an exact
// prediction of the dynamic flip outcome, so turning the pre-filter on is
// observationally pure speedup.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/gen/generator.h"

namespace aitia {
namespace {

// Everything semantically observable about one diagnosis, rendered to a
// comparable string (timing and metrics excluded on purpose).
std::string Semantics(const BugScenario& s, const AitiaReport& r) {
  std::string out;
  out += "diagnosed=" + std::to_string(r.diagnosed);
  out += " degraded=" + std::to_string(r.degraded);
  out += "\nchain:\n" + r.causality.chain.Render(*s.image);
  out += "roots:";
  for (size_t i : r.causality.root_cause_indices) {
    out += " " + std::to_string(i);
  }
  out += "\n";
  for (const TestedRace& t : r.causality.tested) {
    out += RaceLabel(*s.image, t.race);
    out += " verdict=" + std::string(RaceVerdictName(t.verdict));
    out += " phantom=" + std::to_string(t.phantom);
    out += " cs=" + std::to_string(t.race.cs_pair);
    out += " took_effect=" + std::to_string(t.flip_took_effect);
    out += " still_failed=" + std::to_string(t.flip_still_failed);
    out += " disappeared=";
    for (size_t d : t.disappeared) {
      out += std::to_string(d) + ",";
    }
    out += " nested=";
    for (size_t n : t.nested) {
      out += std::to_string(n) + ",";
    }
    out += "\n";
  }
  return out;
}

TEST(PrefilterDifferentialTest, CorpusSemanticsIdenticalOnOff) {
  int64_t total_skipped = 0;
  for (const ScenarioEntry& entry : AllScenarios()) {
    BugScenario scenario = entry.make();
    AitiaOptions off;
    off.set_prefilter(false);
    AitiaReport baseline = DiagnoseScenario(scenario, off);
    EXPECT_EQ(baseline.causality.flips_skipped, 0) << entry.id;
    EXPECT_EQ(baseline.causality.schedules_executed,
              static_cast<int64_t>(baseline.causality.tested.size()))
        << entry.id;

    AitiaOptions on;
    on.set_prefilter(true);
    AitiaReport report = DiagnoseScenario(scenario, on);
    EXPECT_EQ(Semantics(scenario, report), Semantics(scenario, baseline)) << entry.id;
    const CausalityResult& ca = report.causality;
    EXPECT_EQ(ca.schedules_executed + ca.flips_skipped, static_cast<int64_t>(ca.tested.size()))
        << entry.id;
    total_skipped += ca.flips_skipped;
    // Skipped flips must carry their static proof in the report.
    for (const TestedRace& t : ca.tested) {
      if (t.flip_skipped) {
        EXPECT_EQ(t.triage_verdict, analysis::TriageVerdict::kProvablyBenign);
        EXPECT_FALSE(t.triage_stage.empty());
        EXPECT_FALSE(t.triage_reason.empty());
        EXPECT_EQ(t.verdict, RaceVerdict::kBenign);
      }
    }
  }
  // The point of the pre-filter: strictly fewer dynamic flips on the corpus.
  EXPECT_GT(total_skipped, 0);
}

// The same purity contract over a fixed-seed generated mini-corpus: 50
// scenarios the pre-filter's authors never saw, heavy on salted benign races
// (salt-friendly knobs come from the plan's own sampling). Search budgets are
// capped like the sweep's — the planted bugs need <= 2 preemptions, and the
// caps count schedules, not wall-clock, so the comparison stays deterministic.
TEST(PrefilterDifferentialTest, GeneratedMiniCorpusSemanticsIdenticalOnOff) {
  // Buggy templates only: the benign template never reaches CA, so it cannot
  // exercise the pre-filter, and its exhaustive no-failure search dominates
  // runtime.
  std::vector<gen::GenTemplate> buggy;
  for (gen::GenTemplate tmpl : gen::AllGenTemplates()) {
    if (tmpl != gen::GenTemplate::kBenign) buggy.push_back(tmpl);
  }
  int64_t total_skipped = 0;
  for (const gen::GenOptions& plan : gen::CorpusPlan(50, 9, buggy)) {
    const gen::GeneratedScenario g = gen::GenerateScenario(plan);
    AitiaOptions off;
    off.lifs.max_interleavings = 2;
    off.lifs.max_schedules = 2500;
    off.max_slices = 8;
    off.set_prefilter(false);
    AitiaOptions on = off;
    on.set_prefilter(true);

    AitiaReport baseline = DiagnoseScenario(g.scenario, off);
    EXPECT_EQ(baseline.causality.flips_skipped, 0) << g.scenario.id;
    AitiaReport filtered = DiagnoseScenario(g.scenario, on);
    EXPECT_EQ(Semantics(g.scenario, filtered), Semantics(g.scenario, baseline))
        << g.scenario.id;
    EXPECT_EQ(filtered.causality.schedules_executed + filtered.causality.flips_skipped,
              static_cast<int64_t>(filtered.causality.tested.size()))
        << g.scenario.id;
    total_skipped += filtered.causality.flips_skipped;
  }
  EXPECT_GT(total_skipped, 0);
}

}  // namespace
}  // namespace aitia
