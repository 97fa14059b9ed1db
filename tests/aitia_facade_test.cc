// Tests for the top-level pipeline facade (src/core/aitia): slice ordering,
// the reproducing stage's stop rules, and report rendering.

#include <gtest/gtest.h>

#include <string>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/fuzz/fuzzer.h"

namespace aitia {
namespace {

TEST(AitiaFacadeTest, RenderContainsEveryStage) {
  BugScenario s = MakeScenario("fig-1");
  AitiaReport report = DiagnoseScenario(s);
  ASSERT_TRUE(report.diagnosed);
  std::string text = report.Render(*s.image);
  EXPECT_NE(text.find("LIFS"), std::string::npos);
  EXPECT_NE(text.find("Causality"), std::string::npos);
  EXPECT_NE(text.find("failure-causing instruction sequence"), std::string::npos);
  EXPECT_NE(text.find("tested data races"), std::string::npos);
  EXPECT_NE(text.find("causality chain"), std::string::npos);
}

TEST(AitiaFacadeTest, RenderOfUndiagnosedReportSaysSo) {
  BugScenario s = MakeScenario("fig-1");
  AitiaOptions options;
  options.lifs.target_type = FailureType::kDoubleFree;  // unreachable
  options.lifs.max_schedules = 50;
  AitiaReport report = DiagnoseSlice(*s.image, s.slice, s.setup, options);
  EXPECT_FALSE(report.diagnosed);
  EXPECT_NE(report.Render(*s.image).find("NOT reproduced"), std::string::npos);
}

TEST(AitiaFacadeTest, HistoryPipelineMatchesDirectSliceDiagnosis) {
  BugScenario s = MakeScenario("fig-1");
  FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
  ASSERT_TRUE(fuzz.found);
  AitiaReport from_history = DiagnoseHistory(*s.image, fuzz.history);
  AitiaReport from_slice = DiagnoseScenario(s);
  ASSERT_TRUE(from_history.diagnosed);
  ASSERT_TRUE(from_slice.diagnosed);
  EXPECT_EQ(from_history.causality.chain.Render(*s.image),
            from_slice.causality.chain.Render(*s.image));
}

// Slices are searched one at a time, backward from the failure, and the
// first that reproduces ends the stage: each tried slice ran exactly one LIFS
// search and none ran after the winner.
TEST(AitiaFacadeTest, HistoryPipelineStopsAtFirstReproducingSlice) {
  for (const char* id : {"fig-5", "syz-04"}) {
    SCOPED_TRACE(id);
    BugScenario s = MakeScenario(id);
    FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
    ASSERT_TRUE(fuzz.found);
    AitiaReport report = DiagnoseHistory(*s.image, fuzz.history);
    ASSERT_TRUE(report.diagnosed);
    EXPECT_EQ(report.metrics.counter("lifs.searches"),
              static_cast<int64_t>(report.slices_tried));
  }
}

// A search cut short on every slice is not a clean non-reproduction: the
// report keeps the cut-short status and reads as degraded.
TEST(AitiaFacadeTest, HistoryPipelineKeepsCutShortStatus) {
  BugScenario s = MakeScenario("fig-1");
  FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
  ASSERT_TRUE(fuzz.found);
  DiagContext ctx;
  ctx.cancel = [] { return true; };
  AitiaReport report = DiagnoseHistory(*s.image, fuzz.history, {}, &ctx);
  EXPECT_FALSE(report.diagnosed);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.status.code(), StatusCode::kCancelled);
}

TEST(AitiaFacadeTest, MaxSlicesBoundsTheSearch) {
  BugScenario s = MakeScenario("fig-5");
  FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
  ASSERT_TRUE(fuzz.found);
  AitiaOptions options;
  options.max_slices = 1;
  AitiaReport report = DiagnoseHistory(*s.image, fuzz.history, options);
  EXPECT_LE(report.slices_tried, 1u);
}

TEST(AitiaFacadeTest, TargetSymptomTakenFromHistoryFailure) {
  // DiagnoseHistory must reproduce the *reported* symptom, not whatever
  // failure it stumbles on first.
  BugScenario s = MakeScenario("syz-08");  // can fail as UAF or refcount WARN
  FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
  ASSERT_TRUE(fuzz.found);
  AitiaReport report = DiagnoseHistory(*s.image, fuzz.history);
  if (report.diagnosed) {
    EXPECT_TRUE(SameSymptom(*report.lifs.failure, fuzz.history.failure->failure));
  }
}

TEST(AitiaFacadeTest, UsedSliceIsRecorded) {
  BugScenario s = MakeScenario("fig-1");
  FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
  ASSERT_TRUE(fuzz.found);
  AitiaReport report = DiagnoseHistory(*s.image, fuzz.history);
  ASSERT_TRUE(report.diagnosed);
  // The used slice holds the two racing syscalls (possibly plus one noise
  // context the slicer grouped in).
  EXPECT_GE(report.used_slice.threads.size(), 2u);
  EXPECT_LE(report.used_slice.threads.size(), 3u);
  EXPECT_GE(report.slices_tried, 1u);
}

}  // namespace
}  // namespace aitia
