// Unit tests for Least Interleaving First Search (src/core/lifs).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/bugs/registry.h"
#include "src/core/lifs.h"
#include "src/sim/builder.h"

namespace aitia {
namespace {

LifsResult RunLifs(const BugScenario& s, LifsOptions options = {}) {
  if (!options.target.has_value() && !options.target_type.has_value()) {
    options.target_type = s.truth.failure_type;
  }
  Lifs lifs(s.image.get(), s.slice, s.setup, options);
  return lifs.Run();
}

TEST(LifsTest, SequentialFailureFoundAtCountZero) {
  BugScenario s = MakeScenario("fig-7");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  EXPECT_EQ(r.interleaving_count, 0);
  // Both serial orders were at most tried.
  EXPECT_LE(r.schedules_executed, 2);
}

TEST(LifsTest, SinglePreemptionFailureFoundAtCountOne) {
  BugScenario s = MakeScenario("fig-1");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  EXPECT_EQ(r.interleaving_count, 1);
  EXPECT_EQ(r.failing_schedule.points.size(), 1u);
}

TEST(LifsTest, TwoPreemptionFailureFoundAtCountTwo) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  EXPECT_EQ(r.interleaving_count, 2);
  EXPECT_EQ(r.failing_schedule.points.size(), 2u);
}

TEST(LifsTest, FailingTraceEndsAtTheFailure) {
  BugScenario s = MakeScenario("fig-1");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  ASSERT_TRUE(r.failing_run.failure.has_value());
  EXPECT_EQ(r.failing_run.failure->seq, r.failing_run.trace.back().seq);
}

TEST(LifsTest, TargetTypeMismatchKeepsSearching) {
  BugScenario s = MakeScenario("fig-1");
  LifsOptions options;
  options.target_type = FailureType::kDoubleFree;  // never happens here
  options.max_schedules = 200;
  LifsResult r = RunLifs(s, options);
  EXPECT_FALSE(r.reproduced);
  EXPECT_GT(r.schedules_executed, 2);
}

TEST(LifsTest, ExactTargetSymptomMatching) {
  BugScenario s = MakeScenario("fig-1");
  LifsResult first = RunLifs(s);
  ASSERT_TRUE(first.reproduced);
  LifsOptions options;
  options.target = first.failure;
  LifsResult second = RunLifs(s, options);
  ASSERT_TRUE(second.reproduced);
  EXPECT_TRUE(SameSymptom(*first.failure, *second.failure));
}

TEST(LifsTest, MaxSchedulesBudgetRespected) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  LifsOptions options;
  options.target_type = s.truth.failure_type;
  options.max_schedules = 5;  // far too few for the k=2 bug
  LifsResult r = RunLifs(s, options);
  EXPECT_FALSE(r.reproduced);
  EXPECT_LE(r.schedules_executed, 5);
}

TEST(LifsTest, DporOffStillReproduces) {
  BugScenario s = MakeScenario("fig-5");
  LifsOptions options;
  options.dpor_pruning = false;
  LifsResult r = RunLifs(s, options);
  EXPECT_TRUE(r.reproduced);
  EXPECT_EQ(r.interleaving_count, 1);
}

TEST(LifsTest, DporPrunesSchedules) {
  // fig-5 has a non-conflicting access (the pointee dereference), which the
  // conflict restriction prunes as a preemption candidate.
  BugScenario s = MakeScenario("fig-5");
  LifsResult with = RunLifs(s);
  LifsOptions off;
  off.dpor_pruning = false;
  LifsResult without = RunLifs(s, off);
  ASSERT_TRUE(with.reproduced);
  ASSERT_TRUE(without.reproduced);
  EXPECT_LE(with.schedules_executed, without.schedules_executed);
  EXPECT_GT(with.schedules_pruned, 0);
}

TEST(LifsTest, RacesExtractedFromFailingRun) {
  BugScenario s = MakeScenario("fig-1");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  EXPECT_GE(r.races.races.size(), 2u);  // the two real races + benign pairs
}

TEST(LifsTest, PhantomRacesReferenceUnexecutedInstructions) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  ASSERT_FALSE(r.phantom_races.empty());
  for (const RacePair& p : r.phantom_races) {
    // The phantom side never retired in the failing run.
    for (const ExecEvent& e : r.failing_run.trace) {
      EXPECT_FALSE(e.di == p.second.di);
    }
    // But the executed side did.
    bool executed = false;
    for (const ExecEvent& e : r.failing_run.trace) {
      executed = executed || e.di == p.first.di;
    }
    EXPECT_TRUE(executed);
  }
}

TEST(LifsTest, ReferenceStreamsComeFromCleanCompleteRuns) {
  BugScenario s = MakeScenario("fig-1");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  ASSERT_FALSE(r.reference_streams.empty());
  for (const auto& [tid, stream] : r.reference_streams) {
    ASSERT_FALSE(stream.empty());
    for (const ExecEvent& e : stream) {
      EXPECT_EQ(e.di.tid, tid);
    }
  }
}

TEST(LifsTest, DeterministicAcrossRuns) {
  BugScenario s = MakeScenario("syz-02");
  LifsResult a = RunLifs(s);
  LifsResult b = RunLifs(s);
  ASSERT_TRUE(a.reproduced);
  ASSERT_TRUE(b.reproduced);
  EXPECT_EQ(a.schedules_executed, b.schedules_executed);
  EXPECT_EQ(a.interleaving_count, b.interleaving_count);
  ASSERT_EQ(a.failing_run.trace.size(), b.failing_run.trace.size());
  for (size_t i = 0; i < a.failing_run.trace.size(); ++i) {
    EXPECT_EQ(a.failing_run.trace[i].di, b.failing_run.trace[i].di);
  }
}

TEST(LifsTest, ExploredSchedulesRecordedOnDemand) {
  BugScenario s = MakeScenario("fig-1");
  LifsOptions options;
  options.keep_explored = true;
  LifsResult r = RunLifs(s, options);
  ASSERT_TRUE(r.reproduced);
  EXPECT_EQ(static_cast<int64_t>(r.explored.size()), r.schedules_executed);
  EXPECT_TRUE(r.explored.back().matched);
}

// A re-pass at the same depth yields only tuples with a candidate new to it,
// the depth-1 passes skip the IRQ probes and a repeated IRQ line is dropped,
// so a search that runs to its end never runs a schedule twice.
TEST(LifsTest, NoScheduleRunsTwice) {
  for (const char* id : {"CVE-2017-15649", "ext-irq", "fig-5"}) {
    for (bool dpor : {true, false}) {
      BugScenario s = MakeScenario(id);
      LifsOptions options;
      options.target_type = FailureType::kDoubleFree;  // never happens here
      options.max_schedules = 5000;
      options.dpor_pruning = dpor;
      options.keep_explored = true;
      options.irq_lines = s.irq_lines;
      if (!s.irq_lines.empty()) {
        options.irq_lines.push_back(s.irq_lines.front());
      }
      LifsResult r = RunLifs(s, options);
      ASSERT_FALSE(r.reproduced) << id;
      std::set<std::string> seen;
      for (const ExploredSchedule& e : r.explored) {
        EXPECT_TRUE(seen.insert(e.schedule.ToString()).second)
            << id << " dpor " << dpor << ": " << e.schedule.ToString();
      }
      EXPECT_EQ(static_cast<int64_t>(seen.size()), r.schedules_executed) << id;
    }
  }
}

// Each executed schedule is exactly one supervised run, so the budget and the
// schedule counter agree on a multi-interleaving search.
TEST(LifsTest, BudgetCountsOneRunPerSchedule) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  LifsResult r = RunLifs(s);
  ASSERT_TRUE(r.reproduced);
  EXPECT_EQ(r.budget.attempts, r.schedules_executed);
}

TEST(LifsTest, NoFailureScenarioExhaustsSearch) {
  // Race-free two-thread image: LIFS must terminate without reproduction.
  auto image = std::make_shared<KernelImage>();
  Addr a = image->AddGlobal("a", 0);
  Addr b = image->AddGlobal("b", 0);
  {
    ProgramBuilder p("wa");
    p.Lea(R1, a).StoreImm(R1, 1).Exit();
    image->AddProgram(p.Build());
  }
  {
    ProgramBuilder p("wb");
    p.Lea(R1, b).StoreImm(R1, 1).Exit();
    image->AddProgram(p.Build());
  }
  std::vector<ThreadSpec> slice = {{"a", 0, 0, ThreadKind::kSyscall},
                                   {"b", 1, 0, ThreadKind::kSyscall}};
  LifsOptions options;
  options.max_interleavings = 2;
  Lifs lifs(image.get(), slice, {}, options);
  LifsResult r = lifs.Run();
  EXPECT_FALSE(r.reproduced);
  // Only the two serial orders execute: nothing conflicts, so every deeper
  // schedule is pruned.
  EXPECT_EQ(r.schedules_executed, 2);
}

}  // namespace
}  // namespace aitia
