// Observability is pure read-side (DESIGN.md §10): enabling the tracer and
// the metrics registry must not perturb the diagnosis. Asserted corpus-wide:
// for every bundled scenario, the winner schedule, explored order, race
// verdicts, and causality chain are bit-identical with tracing OFF and ON
// (with a deliberately tiny ring, so the drop path runs too).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/core/chain.h"
#include "src/obs/trace.h"

namespace aitia {
namespace {

// Everything the determinism contract pins down, flattened to one comparable
// string. Timing and metrics are excluded: wall-clock varies.
std::string Signature(const BugScenario& s, const AitiaReport& report) {
  std::ostringstream out;
  out << "diagnosed=" << report.diagnosed << " reproduced=" << report.lifs.reproduced
      << " k=" << report.lifs.interleaving_count
      << " executed=" << report.lifs.schedules_executed
      << " pruned=" << report.lifs.schedules_pruned << "\n";
  out << "schedule=" << report.lifs.failing_schedule.ToString() << "\n";
  for (const ExploredSchedule& es : report.lifs.explored) {
    out << "explored " << es.schedule.ToString() << " k=" << es.interleavings
        << " failed=" << es.failed << " matched=" << es.matched
        << " equiv=" << es.equivalent_to_earlier << "\n";
  }
  for (const TestedRace& t : report.causality.tested) {
    out << "verdict " << RaceLabel(*s.image, t.race) << " = "
        << RaceVerdictName(t.verdict) << " phantom=" << t.phantom << "\n";
  }
  if (report.diagnosed) {
    out << "chain " << report.causality.chain.Render(*s.image) << "\n";
  }
  return out.str();
}

std::string Diagnose(const BugScenario& s, bool traced) {
  if (traced) {
    // 512 events is far below what a diagnosis emits: the ring fills and the
    // drop path runs, which must be just as invisible to the pipeline.
    obs::Tracer::Global().Start(512);
  }
  AitiaOptions options;
  options.lifs.keep_explored = true;
  AitiaReport report = DiagnoseScenario(s, options);
  if (traced) {
    obs::Tracer::Global().Stop();
  }
  return Signature(s, report);
}

TEST(ObsDeterminismTest, TracingOnOffIsBitIdenticalCorpusWide) {
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    const BugScenario s = entry.make();
    const std::string baseline = Diagnose(s, /*traced=*/false);
    EXPECT_EQ(Diagnose(s, /*traced=*/true), baseline)
        << entry.id << ": tracing changed the result";
  }
}

}  // namespace
}  // namespace aitia
