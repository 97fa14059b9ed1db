// Flight-deck purity differential (DESIGN.md §15): the observability plane
// added for streaming — progress events, per-request scopes, SARIF export —
// is write-only. Diagnosing every bundled scenario with events off and on
// must produce bit-identical semantics (verdicts, flip bits,
// disappearance sets, rendered chain, root causes, diagnosed/degraded flags)
// AND identical work (schedules_executed): observing a diagnosis may not
// even change how much it executes, let alone what it concludes.
//
// SARIF export rides along: generated from the finished report, it must be
// deterministic and must leave the report untouched.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/obs/events.h"
#include "src/tools/sarif.h"

namespace aitia {
namespace {

// Everything semantically observable about one diagnosis plus the work done,
// rendered to a comparable string (wall-clock and metrics excluded).
std::string Semantics(const BugScenario& s, const AitiaReport& r) {
  std::string out;
  out += "diagnosed=" + std::to_string(r.diagnosed);
  out += " degraded=" + std::to_string(r.degraded);
  out += " schedules=" + std::to_string(r.causality.schedules_executed);
  out += " skipped=" + std::to_string(r.causality.flips_skipped);
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
    out += " took_effect=" + std::to_string(t.flip_took_effect);
    out += " still_failed=" + std::to_string(t.flip_still_failed);
    out += " disappeared=";
    for (size_t d : t.disappeared) {
      out += std::to_string(d) + ",";
    }
    out += "\n";
  }
  return out;
}

TEST(FlightdeckDifferentialTest, CorpusIdenticalWithEventsOnOff) {
  int64_t total_events = 0;
  for (const ScenarioEntry& entry : AllScenarios()) {
    BugScenario scenario = entry.make();
    const AitiaReport baseline = DiagnoseScenario(scenario);
    const std::string want = Semantics(scenario, baseline);
    const std::string sarif_baseline = tools::ReportToSarif(scenario, baseline);

    // Events on: a live subscription consumed concurrently, exactly like the
    // daemon's streaming relay (consumer racing the pipeline).
    const uint64_t scope = obs::EventBus::NextScope();
    auto sub = obs::EventBus::Global().Subscribe(scope, /*capacity=*/8192);
    int64_t consumed = 0;
    std::thread consumer([&sub, &consumed] {
      while (sub->Next(1000).has_value()) {
        ++consumed;
      }
    });
    AitiaOptions on;
    on.set_event_scope(scope);
    const AitiaReport streamed = DiagnoseScenario(scenario, on);
    sub->Close();
    consumer.join();
    while (sub->Next(0).has_value()) {
      ++consumed;  // close-then-drain stragglers
    }

    EXPECT_EQ(Semantics(scenario, streamed), want)
        << entry.id << ": events-on diverged from events-off";
    EXPECT_EQ(sub->dropped(), 0) << entry.id;
    EXPECT_GT(consumed, 0) << entry.id << ": scoped diagnosis published no events";
    total_events += consumed;

    // SARIF is a pure function of (scenario, report): identical across the
    // on/off runs and across repeat invocations.
    EXPECT_EQ(tools::ReportToSarif(scenario, streamed), sarif_baseline) << entry.id;
    EXPECT_EQ(tools::ReportToSarif(scenario, baseline), sarif_baseline) << entry.id;
  }
  // Sanity: the corpus exercised the event plane for real.
  EXPECT_GT(total_events, 0);
}

}  // namespace
}  // namespace aitia
