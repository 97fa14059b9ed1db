// End-to-end CLI flight-recorder test: runs the real `aitia` binary with
// --trace over every checked-in trace (the corpus texts and the example
// traces) and validates each artifact with the strict JSON checker — plus
// spot checks that all pipeline phases (ingest, lifs, causality) left spans
// in the recording, and that a corpus id loads without an ingest span.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#ifndef _WIN32
#include <sys/wait.h>
#endif
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tests/json_checker.h"

#ifndef AITIA_CLI_PATH
#error "AITIA_CLI_PATH must point at the aitia binary"
#endif
#ifndef AITIA_TRACE_DIR
#error "AITIA_TRACE_DIR must point at examples/traces"
#endif
#ifndef AITIA_CORPUS_DIR
#error "AITIA_CORPUS_DIR must point at src/bugs/corpus"
#endif

namespace aitia {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int RunCli(const std::string& args) {
  const std::string cmd = std::string(AITIA_CLI_PATH) + " " + args;
  const int raw = std::system(cmd.c_str());
#ifdef _WIN32
  return raw;
#else
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#endif
}

TEST(ObsCliTraceTest, EveryCheckedInTraceProducesAValidChromeTrace) {
  std::vector<std::filesystem::path> traces;
  for (const char* dir : {AITIA_CORPUS_DIR, AITIA_TRACE_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".ait") {
        traces.push_back(entry.path());
      }
    }
  }
  ASSERT_GE(traces.size(), 30u) << "checked-in trace set shrank";

  int index = 0;
  for (const std::filesystem::path& trace : traces) {
    SCOPED_TRACE(trace.string());
    const std::string out =
        "obs_cli_trace_" + std::to_string(index++) + ".json";
    std::filesystem::remove(out);
    const int exit_code =
        RunCli("--trace " + out + " --json " + trace.string() + " > /dev/null 2>&1");
    // 0 diagnosed, 3 degraded: both are successful pipeline runs.
    EXPECT_TRUE(exit_code == 0 || exit_code == 3) << "exit=" << exit_code;

    const std::string json = ReadFile(out);
    ASSERT_FALSE(json.empty()) << "no trace artifact written";
    std::string why;
    EXPECT_TRUE(testing_json::IsValidJson(json, &why)) << why;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // At least one span per pipeline phase.
    EXPECT_NE(json.find("\"cat\": \"ingest\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"lifs\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"causality\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"pipeline\""), std::string::npos);
    std::filesystem::remove(out);
  }
}

// The registry assembles its texts without the instrumented ingest entry
// point, so loading a corpus id adds nothing to the ingest spans or counters.
TEST(ObsCliTraceTest, CorpusIdRecordsNoIngestSpan) {
  const std::string out = "obs_cli_trace_corpus_id.json";
  std::filesystem::remove(out);
  const int exit_code = RunCli("--trace " + out + " fig-1 > /dev/null 2>&1");
  EXPECT_EQ(exit_code, 0);
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty()) << "no trace artifact written";
  EXPECT_NE(json.find("\"cat\": \"lifs\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\": \"ingest\""), std::string::npos);
  std::filesystem::remove(out);
}

TEST(ObsCliTraceTest, MetricsFlagPrintsASummary) {
  const std::string out = "obs_cli_metrics.txt";
  const int exit_code = RunCli("--metrics fig-1 > /dev/null 2> " + out);
  EXPECT_EQ(exit_code, 0);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("--- metrics ---"), std::string::npos) << text;
  EXPECT_NE(text.find("lifs.schedules_executed"), std::string::npos) << text;
  std::filesystem::remove(out);
}

TEST(ObsCliTraceTest, ReportJsonCarriesMetricsSection) {
  const std::string out = "obs_cli_report.json";
  const int exit_code = RunCli("--json fig-1 > " + out + " 2> /dev/null");
  EXPECT_EQ(exit_code, 0);
  const std::string json = ReadFile(out);
  std::string why;
  EXPECT_TRUE(testing_json::IsValidJson(json, &why)) << why;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  std::filesystem::remove(out);
}

}  // namespace
}  // namespace aitia
