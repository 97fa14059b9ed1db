// Golden outputs: the bit-identity contract, pinned in ctest.
//
// Every output a user can diff is checked in as full text under
// tests/golden/, so a failure prints the first line that differs:
//
//   corpus/<id>.json         canonical report: ReportToJson with the metrics
//                            delta cleared and the wall-clock seconds zeroed
//   corpus/<id>.sarif        the SARIF log (aitia --sarif)
//   corpus/<id>.ait          the scenario as .ait (aitia --emit)
//   corpus/<id>.explored     the LIFS explored order (keep_explored): one
//                            schedule per line with k and the
//                            failed/matched/equivalent flags
//   generate/<t>-<seed>.ait  aitia --generate template=<t> seed=<seed>, for
//                            every template and seeds 1-8
//   generate/<t>-<seed>.json the canonical report of that text at CLI
//                            defaults
//   sweep-100.json           aitia_sweep --count=100 --jobs=1 --json, compared
//                            by the golden_sweep ctest
//
// The observability planes are write-only: with progress events streaming
// to a live consumer, or with tracing into a ring far too small for a
// diagnosis, the outputs still equal the goldens.
//
// An intended output change regenerates every golden with one command and
// says why in CHANGES.md:
//
//   $ build/tests/golden_test --update

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/report.h"
#include "src/gen/generator.h"
#include "src/ingest/ingest.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"
#include "src/tools/sarif.h"
#include "src/util/strings.h"

namespace {
// Set by main() when --update is given: write the goldens, compare nothing.
bool g_update = false;
}  // namespace

namespace aitia {
namespace {

const std::string kGoldenDir = AITIA_GOLDEN_DIR;

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Where `want` and `got` first part: line, column, and up to 60 characters
// either side on that line (report JSON is one long line).
std::string FirstDifference(const std::string& want, const std::string& got) {
  size_t line = 1;
  size_t line_start = 0;
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) {
    if (want[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
    ++i;
  }
  const size_t from = i - line_start > 60 ? i - 60 : line_start;
  auto excerpt = [&](const std::string& text) {
    size_t to = text.find('\n', from);
    to = std::min(to == std::string::npos ? text.size() : to, i + 60);
    return from < to ? text.substr(from, to - from) : std::string("<end of file>");
  };
  return StrFormat("first difference at line %zu, column %zu\n  golden: %s\n  actual: %s",
                   line, i - line_start + 1, excerpt(want).c_str(), excerpt(got).c_str());
}

// Compares `actual` with tests/golden/<name>; under --update, rewrites it.
void ExpectGolden(const std::string& name, const std::string& actual) {
  const std::string path = kGoldenDir + "/" + name;
  if (g_update) {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << actual;
    if (!out) {
      ADD_FAILURE() << "cannot write " << path;
    }
    return;
  }
  const std::optional<std::string> want = ReadFile(path);
  if (!want.has_value()) {
    ADD_FAILURE() << path << " is missing; regenerate with golden_test --update";
  } else if (*want != actual) {
    ADD_FAILURE() << path << ": " << FirstDifference(*want, actual);
  }
}

// The report without what varies from run to run: the metrics delta and the
// wall-clock seconds.
std::string CanonicalJson(AitiaReport report, const KernelImage& image) {
  report.metrics = obs::MetricsSnapshot{};
  report.lifs.seconds = 0;
  report.causality.seconds = 0;
  return ReportToJson(report, image) + "\n";
}

std::string ExploredOrder(const AitiaReport& report) {
  std::string out;
  for (const ExploredSchedule& es : report.lifs.explored) {
    out += StrFormat("%s k=%d failed=%d matched=%d equivalent=%d\n",
                     es.schedule.ToString().c_str(), es.interleavings, es.failed, es.matched,
                     es.equivalent_to_earlier);
  }
  return out;
}

std::string CorpusGolden(const ScenarioEntry& entry, const char* ext) {
  return std::string("corpus/") + entry.id + ext;
}

// The accounting every diagnosis keeps: one flip run per tested race.
void ExpectAccounting(const AitiaReport& report) {
  EXPECT_EQ(report.causality.schedules_executed,
            static_cast<int64_t>(report.causality.tested.size()));
}

AitiaOptions KeepExplored() {
  AitiaOptions options;
  options.lifs.keep_explored = true;
  return options;
}

TEST(GoldenTest, CorpusReportSarifAndEmit) {
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    const BugScenario s = entry.make();
    const AitiaReport report = DiagnoseScenario(s);
    ExpectAccounting(report);
    ExpectGolden(CorpusGolden(entry, ".json"), CanonicalJson(report, *s.image));
    ExpectGolden(CorpusGolden(entry, ".sarif"), tools::ReportToSarif(s, report) + "\n");
    ExpectGolden(CorpusGolden(entry, ".ait"), ScenarioToAit(s));
  }
}

TEST(GoldenTest, CorpusExploredOrder) {
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    const BugScenario s = entry.make();
    ExpectGolden(CorpusGolden(entry, ".explored"),
                 ExploredOrder(DiagnoseScenario(s, KeepExplored())));
  }
}

TEST(GoldenTest, GeneratedScenarios) {
  for (const gen::GenTemplate tmpl : gen::AllGenTemplates()) {
    for (int seed = 1; seed <= 8; ++seed) {
      const std::string name = StrFormat("%s-%d", gen::GenTemplateName(tmpl), seed);
      SCOPED_TRACE(name);
      const StatusOr<gen::GenOptions> spec = gen::ParseGenSpec(
          {std::string("template=") + gen::GenTemplateName(tmpl), StrFormat("seed=%d", seed)});
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();
      const std::string text = ScenarioToAit(gen::GenerateScenario(*spec).scenario);
      ExpectGolden("generate/" + name + ".ait", text);
      // Diagnose the parsed text, exactly as `aitia <file>.ait --json` does.
      const StatusOr<BugScenario> parsed = ScenarioFromAitText(text, name + ".ait");
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ExpectGolden("generate/" + name + ".json",
                   CanonicalJson(DiagnoseScenario(*parsed), *parsed->image));
    }
  }
}

// Events on, consumed live and concurrently, exactly like the daemon's
// streaming relay: every event arrives, and the outputs equal the goldens.
TEST(GoldenTest, EventsOnEqualsGolden) {
  if (g_update) {
    GTEST_SKIP() << "compares against the goldens the tests above wrote";
  }
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    const BugScenario s = entry.make();
    const uint64_t scope = obs::EventBus::NextScope();
    auto sub = obs::EventBus::Global().Subscribe(scope, /*capacity=*/8192);
    int64_t consumed = 0;
    std::thread consumer([&sub, &consumed] {
      while (sub->Next(1000).has_value()) {
        ++consumed;
      }
    });
    AitiaOptions options;
    options.set_event_scope(scope);
    const AitiaReport report = DiagnoseScenario(s, options);
    sub->Close();
    consumer.join();
    while (sub->Next(0).has_value()) {
      ++consumed;  // close-then-drain stragglers
    }
    EXPECT_EQ(sub->dropped(), 0);
    EXPECT_GT(consumed, 0) << "a scoped diagnosis published no events";
    ExpectGolden(CorpusGolden(entry, ".json"), CanonicalJson(report, *s.image));
    ExpectGolden(CorpusGolden(entry, ".sarif"), tools::ReportToSarif(s, report) + "\n");
  }
}

// Tracing on, into a 512-event ring that every diagnosis overflows, so the
// drop path runs too: the explored order and the report equal the goldens.
TEST(GoldenTest, TracingOnEqualsGolden) {
  if (g_update) {
    GTEST_SKIP() << "compares against the goldens the tests above wrote";
  }
  int64_t dropped = 0;
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    const BugScenario s = entry.make();
    obs::Tracer::Global().Start(512);
    const AitiaReport report = DiagnoseScenario(s, KeepExplored());
    dropped += obs::Tracer::Global().Snapshot().dropped;
    obs::Tracer::Global().Stop();
    ExpectGolden(CorpusGolden(entry, ".explored"), ExploredOrder(report));
    ExpectGolden(CorpusGolden(entry, ".json"), CanonicalJson(report, *s.image));
  }
  EXPECT_GT(dropped, 0) << "the ring never filled, so the drop path did not run";
}

}  // namespace
}  // namespace aitia

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) {
      g_update = true;
    }
  }
  const int rc = RUN_ALL_TESTS();
  if (g_update && rc == 0) {
    const std::string cmd = std::string(AITIA_SWEEP_PATH) +
                            " --count=100 --jobs=1 --json=" + aitia::kGoldenDir +
                            "/sweep-100.json > /dev/null";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "golden_test: '%s' failed\n", cmd.c_str());
      return 1;
    }
  }
  return rc;
}
