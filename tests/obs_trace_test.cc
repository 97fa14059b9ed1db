// Tests for the span tracer (src/obs/trace): disabled-path cost model, ring
// bounds and drop accounting, Chrome trace-event serialization, and the
// end-to-end guarantee that a traced diagnosis emits spans for every
// pipeline phase while report.metrics stays glued to the authoritative
// pipeline counters, also while other diagnoses run concurrently.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/report.h"
#include "src/ingest/ingest.h"
#include "src/ingest/serialize.h"
#include "src/obs/trace.h"
#include "tests/json_checker.h"

namespace aitia {
namespace obs {
namespace {

// The global tracer persists across tests in this binary; every test that
// records starts its own epoch and stops on exit.
class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Global().Stop(); }
};

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  Tracer::Global().Start(64);
  Tracer::Global().Stop();
  {
    Span span("lifs", "lifs.run");
    span.Arg("k", 1);
    Span("lifs", "lifs.prune", 'i').Arg("reason", "test");
  }
  const TraceDump dump = Tracer::Global().Snapshot();
  EXPECT_TRUE(dump.events.empty());
  EXPECT_EQ(dump.dropped, 0);
}

TEST_F(TracerTest, StartClearsPreviousEvents) {
  Tracer::Global().Start(64);
  Span("cat", "one", 'i');
  EXPECT_EQ(Tracer::Global().Snapshot().events.size(), 1u);
  Tracer::Global().Start(64);
  EXPECT_TRUE(Tracer::Global().Snapshot().events.empty());
}

TEST_F(TracerTest, RingIsBoundedAndCountsDrops) {
  // One ring of 16: the first 16 events survive (first-come-first-kept:
  // early-phase spans are never evicted by later ones), the rest are counted.
  Tracer::Global().Start(16);
  for (int i = 0; i < 100; ++i) {
    Span("cat", i < 16 ? "kept" : "dropped", 'i');
  }
  const TraceDump dump = Tracer::Global().Snapshot();
  ASSERT_EQ(dump.events.size(), 16u);
  for (const TraceEvent& e : dump.events) {
    EXPECT_EQ(e.name, "kept");
  }
  EXPECT_EQ(dump.dropped, 84);
  EXPECT_EQ(dump.capacity, 16u);
}

TEST_F(TracerTest, SpansCarryArgsAndSortByTimestamp) {
  Tracer::Global().Start();
  {
    Span span("lifs", "lifs.run");
    span.Arg("k", 2).Arg("matched", true).Arg("why", "because");
  }
  Span("lifs", "lifs.prune", 'i').Arg("count", int64_t{7});
  const TraceDump dump = Tracer::Global().Snapshot();
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_TRUE(std::is_sorted(dump.events.begin(), dump.events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.ts_us < b.ts_us;
                             }));
  const TraceEvent& run = dump.events[0].name == "lifs.run" ? dump.events[0] : dump.events[1];
  EXPECT_EQ(run.ph, 'X');
  EXPECT_GE(run.dur_us, 0);
  ASSERT_EQ(run.args.size(), 3u);
  EXPECT_EQ(run.args[0].key, "k");
  EXPECT_EQ(run.args[0].value, "2");
  EXPECT_FALSE(run.args[0].quoted);
  EXPECT_EQ(run.args[1].value, "true");
  EXPECT_FALSE(run.args[1].quoted);
  EXPECT_EQ(run.args[2].value, "because");
  EXPECT_TRUE(run.args[2].quoted);
}

TEST_F(TracerTest, ChromeJsonIsValidAndLoadable) {
  Tracer::Global().Start();
  {
    Span span("ingest", "ingest.parse");
    span.Arg("file", std::string("x\"y.ait"));  // forces escaping
  }
  Span("lifs", "lifs.match", 'i').Arg("points", 3);
  const std::string json = ToChromeTraceJson(Tracer::Global().Snapshot());
  std::string why;
  ASSERT_TRUE(testing_json::IsValidJson(json, &why)) << why << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST_F(TracerTest, TracedDiagnosisEmitsSpansForEveryPhase) {
  Tracer::Global().Start();
  BugScenario s = MakeScenario("fig-1");
  // Round-trip through the .ait frontend so the ingest phase runs too.
  StatusOr<BugScenario> loaded = ScenarioFromAitText(ScenarioToAit(s), "fig_1.ait");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  AitiaReport report = DiagnoseScenario(*loaded);
  ASSERT_TRUE(report.diagnosed);
  const TraceDump dump = Tracer::Global().Snapshot();
  Tracer::Global().Stop();

  std::set<std::string> cats;
  std::set<std::string> names;
  for (const TraceEvent& e : dump.events) {
    cats.insert(e.cat);
    names.insert(e.name);
  }
  EXPECT_TRUE(cats.count("ingest")) << "no ingest spans";
  EXPECT_TRUE(cats.count("lifs")) << "no lifs spans";
  EXPECT_TRUE(cats.count("causality")) << "no causality spans";
  EXPECT_TRUE(cats.count("pipeline")) << "no pipeline spans";
  EXPECT_TRUE(names.count("ingest.parse"));
  EXPECT_TRUE(names.count("ingest.assemble"));
  EXPECT_TRUE(names.count("lifs.search"));
  EXPECT_TRUE(names.count("lifs.run"));
  EXPECT_TRUE(names.count("lifs.match"));
  EXPECT_TRUE(names.count("ca.flip"));
  EXPECT_TRUE(names.count("ca.verdict"));
}

TEST_F(TracerTest, ReportMetricsMatchAuthoritativeCounters) {
  BugScenario s = MakeScenario("fig-1");
  AitiaReport report = DiagnoseScenario(s);
  ASSERT_TRUE(report.diagnosed);
  // The flight recorder must not drift from the pipeline's own accounting:
  // report.metrics is cut from the same counters LifsResult publishes.
  EXPECT_EQ(report.metrics.counter("lifs.schedules_executed"),
            report.lifs.schedules_executed);
  EXPECT_EQ(report.metrics.counter("lifs.schedules_pruned"), report.lifs.schedules_pruned);
  EXPECT_EQ(report.metrics.counter("causality.flip_tests"),
            report.causality.schedules_executed);
  EXPECT_EQ(report.metrics.counter("supervisor.attempts"),
            report.lifs.budget.attempts + report.causality.budget.attempts);

  const std::string json = ReportToJson(report, *s.image);
  std::string why;
  ASSERT_TRUE(testing_json::IsValidJson(json, &why)) << why;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"schedules_executed\""), std::string::npos);
}

// Each report counts only its own diagnosis's work, however many other
// diagnoses share the process.
TEST_F(TracerTest, ReportMetricsStayExactUnderConcurrency) {
  constexpr int kThreads = 4;
  std::vector<std::vector<AitiaReport>> reports(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reports, t] {
      for (const ScenarioEntry& entry : AllScenarios()) {
        reports[t].push_back(DiagnoseScenario(entry.make()));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(reports[t].size(), AllScenarios().size());
    for (size_t i = 0; i < reports[t].size(); ++i) {
      SCOPED_TRACE(AllScenarios()[i].id);
      const AitiaReport& r = reports[t][i];
      EXPECT_EQ(r.metrics.counter("lifs.searches"), static_cast<int64_t>(r.slices_tried));
      EXPECT_EQ(r.metrics.counter("lifs.schedules_executed"), r.lifs.schedules_executed);
      EXPECT_EQ(r.metrics.counter("lifs.schedules_pruned"), r.lifs.schedules_pruned);
      EXPECT_EQ(r.metrics.counter("causality.flip_tests"), r.causality.schedules_executed);
      EXPECT_EQ(r.metrics.counter("supervisor.attempts"),
                r.lifs.budget.attempts + r.causality.budget.attempts);
      EXPECT_EQ(r.metrics.counter("supervisor.steps"),
                r.lifs.budget.steps + r.causality.budget.steps);
    }
  }
}

TEST_F(TracerTest, UndiagnosedReportStillCarriesMetrics) {
  BugScenario s = MakeScenario("fig-1");
  AitiaOptions options;
  options.lifs.target_type = FailureType::kDoubleFree;  // unreachable
  options.lifs.max_schedules = 50;
  AitiaReport report = DiagnoseSlice(*s.image, s.slice, s.setup, options);
  ASSERT_FALSE(report.diagnosed);
  EXPECT_EQ(report.metrics.counter("lifs.schedules_executed"),
            report.lifs.schedules_executed);
  const std::string json = ReportToJson(report, *s.image);
  std::string why;
  ASSERT_TRUE(testing_json::IsValidJson(json, &why)) << why;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace aitia
