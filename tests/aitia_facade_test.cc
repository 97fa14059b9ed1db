// Tests for the top-level pipeline facade (src/core/aitia): slice ordering,
// parallel reproducers, report rendering, and bit-identical reports at any
// worker count.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/fuzz/fuzzer.h"
#include "src/gen/generator.h"

namespace aitia {
namespace {

// Flattens everything a diagnosis *means* — and nothing about how long it
// took or how much work it spent: budgets and seconds legitimately differ
// across worker counts (parallel batches overshoot), every field below must
// not.
std::string ReportKey(const AitiaReport& r, const KernelImage& image) {
  std::ostringstream out;
  out << "diagnosed=" << r.diagnosed << " degraded=" << r.degraded
      << " slices_tried=" << r.slices_tried << "\n";

  const LifsResult& l = r.lifs;
  out << "reproduced=" << l.reproduced << " k=" << l.interleaving_count
      << " schedules_executed=" << l.schedules_executed
      << " schedules_pruned=" << l.schedules_pruned << "\n"
      << "schedule=" << l.failing_schedule.ToString() << "\n";
  for (const RacePair& race : l.races.races) {
    out << "race " << RaceLabel(image, race) << "\n";
  }
  for (const RacePair& race : l.phantom_races) {
    out << "phantom " << RaceLabel(image, race) << "\n";
  }

  const CausalityResult& c = r.causality;
  out << "flip_schedules=" << c.schedules_executed << " benign=" << c.benign_count
      << " inconclusive=" << c.inconclusive_count << " ambiguous=" << c.ambiguous
      << " ca_degraded=" << c.degraded << "\n";
  for (const TestedRace& t : c.tested) {
    out << "tested " << RaceLabel(image, t.race) << " phantom=" << t.phantom
        << " verdict=" << RaceVerdictName(t.verdict)
        << " still_failed=" << t.flip_still_failed << " took_effect=" << t.flip_took_effect
        << " disappeared=";
    for (size_t i : t.disappeared) {
      out << i << ",";
    }
    out << " nested=";
    for (size_t i : t.nested) {
      out << i << ",";
    }
    out << "\n";
  }
  out << "roots=";
  for (size_t i : c.root_cause_indices) {
    out << i << ",";
  }
  out << "\nchain:\n" << c.chain.Render(image);
  return out.str();
}

AitiaOptions Jobs(size_t jobs) {
  AitiaOptions options;
  options.set_jobs(jobs);
  return options;
}

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

TEST(AitiaFacadeTest, ParallelReproducersAgreeWithSequential) {
  BugScenario s = MakeScenario("syz-04");
  FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
  ASSERT_TRUE(fuzz.found);

  AitiaOptions sequential;
  AitiaReport a = DiagnoseHistory(*s.image, fuzz.history, sequential);
  AitiaOptions parallel;
  parallel.reproducer_workers = 4;
  AitiaReport b = DiagnoseHistory(*s.image, fuzz.history, parallel);

  ASSERT_TRUE(a.diagnosed);
  ASSERT_TRUE(b.diagnosed);
  EXPECT_EQ(a.causality.chain.Render(*s.image), b.causality.chain.Render(*s.image));
}

// The full pipeline — fuzzer history, modeling, the multi-slice reproducing
// stage, LIFS and CA — yields the same report at jobs 1 and 4.
TEST(AitiaFacadeTest, HistoryPipelineBitIdenticalAcrossJobs) {
  for (const char* id : {"fig-1", "fig-5"}) {
    SCOPED_TRACE(id);
    BugScenario s = MakeScenario(id);
    FuzzOutcome fuzz = FuzzUntilFailure(s.MakeWorkload());
    ASSERT_TRUE(fuzz.found);
    AitiaReport serial = DiagnoseHistory(*s.image, fuzz.history, Jobs(1));
    ASSERT_TRUE(serial.diagnosed);
    AitiaReport parallel = DiagnoseHistory(*s.image, fuzz.history, Jobs(4));
    EXPECT_EQ(ReportKey(parallel, *s.image), ReportKey(serial, *s.image));
  }
}

// The same contract over a fixed-seed generated mini-corpus: 50 scenarios
// from the corpus expansion engine (DESIGN.md §14), searched at the sweep's
// budgets — planted bugs need <= 2 preemptions, and the caps count
// schedules, so both worker counts do identical work.
TEST(AitiaFacadeTest, GeneratedMiniCorpusBitIdenticalAcrossJobs) {
  std::vector<gen::GenTemplate> buggy;
  for (gen::GenTemplate tmpl : gen::AllGenTemplates()) {
    if (tmpl != gen::GenTemplate::kBenign) buggy.push_back(tmpl);
  }
  for (const gen::GenOptions& plan : gen::CorpusPlan(50, 9, buggy)) {
    const gen::GeneratedScenario g = gen::GenerateScenario(plan);
    SCOPED_TRACE(g.scenario.id);
    std::string want;
    for (size_t jobs : {size_t{1}, size_t{4}}) {
      AitiaOptions options = Jobs(jobs);
      options.lifs.max_interleavings = 2;
      options.lifs.max_schedules = 2500;
      options.max_slices = 8;
      const std::string got = ReportKey(DiagnoseScenario(g.scenario, options), *g.scenario.image);
      if (jobs == 1) {
        want = got;
      } else {
        EXPECT_EQ(got, want);
      }
    }
  }
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
