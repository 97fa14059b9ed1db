// Supervisor coverage: wall-clock deadlines, the livelock watchdog,
// cancellation, and kInconclusive propagation all the way into
// AitiaReport::Render.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/hv/supervisor.h"
#include "src/sim/builder.h"

namespace aitia {
namespace {

// Program 0 spins forever, touching one global each iteration.
struct InfiniteLoop {
  KernelImage image;
  std::vector<ThreadSpec> threads;

  InfiniteLoop() {
    Addr g = image.AddGlobal("g", 0);
    ProgramBuilder b("spin");
    b.Lea(R1, g).Label("top").StoreImm(R1, 1).Jmp("top");
    image.AddProgram(b.Build());
    threads = {{"spin", 0, 0, ThreadKind::kSyscall}};
  }
};

TEST(SupervisorTest, DeadlineExpiryLosesTheRun) {
  InfiniteLoop fix;
  SupervisorOptions so;
  so.max_steps = int64_t{1} << 30;  // the deadline must fire first
  so.deadline_seconds = 1e-9;
  Supervisor sup(&fix.image, so);

  StatusOr<EnforceResult> r = sup.RunPreemption(fix.threads, {{0}, {}}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  RunBudget b = sup.budget();
  EXPECT_EQ(b.attempts, 1);
  EXPECT_EQ(b.completed, 0);
  EXPECT_EQ(b.exhausted, 1);
  EXPECT_EQ(b.deadline_expirations, 1);
}

TEST(SupervisorTest, StepBudgetExhaustionIsScoredNotLost) {
  // Hitting max_steps is a kernel-level symptom (hung task), not a lost run:
  // the supervisor returns the result so LIFS can still learn from it.
  InfiniteLoop fix;
  SupervisorOptions so;
  so.max_steps = 5000;
  Supervisor sup(&fix.image, so);

  StatusOr<EnforceResult> r = sup.RunPreemption(fix.threads, {{0}, {}}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(r->run.failed());
  EXPECT_EQ(r->run.failure->type, FailureType::kWatchdog);
  RunBudget b = sup.budget();
  EXPECT_EQ(b.attempts, 1);
  EXPECT_EQ(b.completed, 1);
  EXPECT_EQ(b.exhausted, 0);
}

TEST(SupervisorTest, WatchdogCatchesHolderDrainLivelock) {
  // Thread b grabs the lock and spins forever; the total order then asks for
  // thread a's Lock. The enforcer's liveness drain steps the holder — which
  // never releases — so the schedule index stalls. The watchdog must catch
  // this long before the step budget.
  KernelImage image;
  Addr lock = image.AddGlobal("lock", 0);
  {
    ProgramBuilder b("taker");
    b.Lea(R1, lock).Lock(R1).Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("holder");
    b.Lea(R1, lock).Lock(R1).Label("spin").Jmp("spin");
    image.AddProgram(b.Build());
  }
  std::vector<ThreadSpec> threads = {{"a", 0, 0, ThreadKind::kSyscall},
                                     {"b", 1, 0, ThreadKind::kSyscall}};
  TotalOrderSchedule schedule;
  schedule.base_order = {0, 1};
  schedule.sequence = {{1, {1, 0}, 0},   // b: lea
                       {1, {1, 1}, 0},   // b: lock (acquires)
                       {0, {0, 0}, 0},   // a: lea
                       {0, {0, 1}, 0}};  // a: lock (blocks forever)

  SupervisorOptions so;
  so.max_steps = 2000000;  // backstop only; the watchdog must fire first
  so.stall_limit = 2000;
  Supervisor sup(&image, so);

  StatusOr<EnforceResult> r = sup.RunTotalOrder(threads, schedule, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  RunBudget b = sup.budget();
  EXPECT_EQ(b.attempts, 1);
  EXPECT_EQ(b.watchdog_trips, 1);
  EXPECT_EQ(b.exhausted, 1);
  // The watchdog tripped at ~stall_limit steps, far below the backstop.
  EXPECT_LT(b.steps, so.stall_limit + 5000);
}

TEST(SupervisorTest, BudgetAccumulatesAcrossRuns) {
  InfiniteLoop fix;
  SupervisorOptions so;
  so.max_steps = 100;  // each run is scored at its step budget
  Supervisor sup(&fix.image, so);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sup.RunPreemption(fix.threads, {{0}, {}}, {}).ok());
  }
  RunBudget b = sup.budget();
  EXPECT_EQ(b.attempts, 3);
  EXPECT_EQ(b.completed, 3);
  EXPECT_EQ(b.steps, 300);
  EXPECT_FALSE(b.ToString().empty());
}

// --- end-to-end: graceful degradation in the facade report ------------------

TEST(SupervisorReportTest, InconclusiveFlipTestsReachTheRenderedReport) {
  BugScenario s = MakeScenario("fig-1");
  AitiaOptions options;
  // Cancel every flip run before it starts; the search is not cancelled.
  options.causality.supervisor.cancel = [] { return true; };

  AitiaReport report = DiagnoseScenario(s, options);
  ASSERT_TRUE(report.diagnosed);  // LIFS still reproduces
  EXPECT_TRUE(report.degraded);
  ASSERT_FALSE(report.causality.tested.empty());
  // Budget exhaustion must never fabricate a verdict: every flip test is
  // kInconclusive, none benign or root cause.
  for (const TestedRace& t : report.causality.tested) {
    EXPECT_EQ(t.verdict, RaceVerdict::kInconclusive);
    EXPECT_EQ(t.run_status.code(), StatusCode::kCancelled);
  }
  EXPECT_TRUE(report.causality.root_cause_indices.empty());
  EXPECT_EQ(report.causality.inconclusive_count,
            static_cast<int>(report.causality.tested.size()));
  EXPECT_EQ(report.causality.inconclusive_indices.size(), report.causality.tested.size());
  // A run cancelled before it starts costs no enforcer execution.
  EXPECT_EQ(report.causality.budget.attempts, 0);
  EXPECT_EQ(report.causality.budget.exhausted,
            static_cast<int64_t>(report.causality.tested.size()));

  std::string rendered = report.Render(*s.image);
  EXPECT_NE(rendered.find("DEGRADED"), std::string::npos);
  EXPECT_NE(rendered.find("UNCLASSIFIED"), std::string::npos);
  EXPECT_NE(rendered.find("run budget exhausted"), std::string::npos);
}

TEST(SupervisorReportTest, LostSearchRunsDegradeTheReport) {
  BugScenario s = MakeScenario("fig-1");
  AitiaOptions options;
  options.lifs.supervisor.deadline_seconds = 1e-9;  // every search run expires
  options.lifs.max_schedules = 4;

  AitiaReport report = DiagnoseScenario(s, options);
  EXPECT_FALSE(report.diagnosed);
  EXPECT_TRUE(report.degraded);
  // Lost runs are skipped, never learned from: each one is a deadline
  // expiry the budget accounts for.
  EXPECT_GT(report.lifs.aborted_runs, 0);
  EXPECT_EQ(report.lifs.aborted_runs, report.lifs.budget.exhausted);
  EXPECT_EQ(report.lifs.aborted_runs, report.lifs.budget.deadline_expirations);
}

}  // namespace
}  // namespace aitia
