// Unit tests for JSON report export (src/core/report).
//
// Well-formedness is asserted with a strict recursive-descent JSON checker
// (tests/json_checker.h) rather than substring matching, across the whole
// corpus — diagnosed and undiagnosed reports alike.

#include <gtest/gtest.h>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/report.h"
#include "tests/json_checker.h"

namespace aitia {
namespace {

using testing_json::IsValidJson;

void ExpectValidJson(const std::string& json) {
  std::string why;
  EXPECT_TRUE(IsValidJson(json, &why)) << why << "\nin: " << json;
}

TEST(JsonCheckerTest, AcceptsWellFormedDocuments) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("[1, 2.5, -3, 1e9, \"x\", true, false, null]"));
  EXPECT_TRUE(IsValidJson("{\"a\": {\"b\": [\"c\\n\", \"\\u0001\"]}}"));
  EXPECT_TRUE(IsValidJson("  \"lone string\"  "));
}

TEST(JsonCheckerTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(IsValidJson(""));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{]"));
  EXPECT_FALSE(IsValidJson("{\"a\": }"));
  EXPECT_FALSE(IsValidJson("{\"a\": 1,}"));
  EXPECT_FALSE(IsValidJson("[1 2]"));
  EXPECT_FALSE(IsValidJson("{} extra"));
  EXPECT_FALSE(IsValidJson("{'a': 1}"));
  EXPECT_FALSE(IsValidJson("01"));
  // The failure modes an escaping bug would produce:
  EXPECT_FALSE(IsValidJson("\"raw \n newline\""));     // unescaped control char
  EXPECT_FALSE(IsValidJson("\"bad \\q escape\""));     // unknown escape
  EXPECT_FALSE(IsValidJson("\"bad \\u00zz escape\"")); // malformed \u
  EXPECT_FALSE(IsValidJson("\"unterminated"));
  EXPECT_FALSE(IsValidJson("\"stray quote \" inside\""));
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscapeTest, EveryByteEscapesToValidJson) {
  // Exhaustive: a string of each single byte must embed into a valid
  // document (multi-byte UTF-8 is out of scope for the simulated kernel's
  // ASCII notes, so 0x80.. is only checked not to break framing).
  for (int b = 1; b < 256; ++b) {
    const std::string raw(1, static_cast<char>(b));
    const std::string doc = "{\"k\": \"" + JsonEscape(raw) + "\"}";
    std::string why;
    EXPECT_TRUE(IsValidJson(doc, &why)) << "byte " << b << ": " << why;
  }
}

TEST(ReportJsonTest, DiagnosedReportHasEveryField) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  AitiaReport report = DiagnoseScenario(s);
  ASSERT_TRUE(report.diagnosed);
  std::string json = ReportToJson(report, *s.image);

  EXPECT_NE(json.find("\"diagnosed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"failure\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel BUG (BUG_ON)\""), std::string::npos);
  EXPECT_NE(json.find("\"interleavings\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"races\": ["), std::string::npos);
  EXPECT_NE(json.find("\"root-cause\""), std::string::npos);
  EXPECT_NE(json.find("\"benign\""), std::string::npos);
  EXPECT_NE(json.find("\"chain\""), std::string::npos);
  EXPECT_NE(json.find("B17 => A12"), std::string::npos);
  ExpectValidJson(json);
}

TEST(ReportJsonTest, UndiagnosedReportIsMinimal) {
  BugScenario s = MakeScenario("fig-1");
  AitiaOptions options;
  options.lifs.target_type = FailureType::kDoubleFree;
  options.lifs.max_schedules = 20;
  AitiaReport report = DiagnoseSlice(*s.image, s.slice, s.setup, options);
  ASSERT_FALSE(report.diagnosed);
  std::string json = ReportToJson(report, *s.image);
  EXPECT_NE(json.find("\"diagnosed\": false"), std::string::npos);
  EXPECT_EQ(json.find("\"chain\""), std::string::npos);
  ExpectValidJson(json);
}

TEST(ReportJsonTest, ChainEdgesIndexNodes) {
  BugScenario s = MakeScenario("fig-5");
  AitiaReport report = DiagnoseScenario(s);
  ASSERT_TRUE(report.diagnosed);
  const CausalityChain& chain = report.causality.chain;
  for (const auto& [from, to] : chain.edges()) {
    EXPECT_LT(from, chain.nodes().size());
    EXPECT_LT(to, chain.nodes().size());
  }
  std::string json = ReportToJson(report, *s.image);
  EXPECT_NE(json.find("\"edges\": [[0, 1]]"), std::string::npos) << json;
  ExpectValidJson(json);
}

// Every corpus scenario's report — whatever its shape (ambiguity, IRQ
// threads, degraded flags, punctuation-heavy notes) — must serialize to
// strictly valid JSON.
TEST(ReportJsonTest, WholeCorpusEmitsValidJson) {
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    BugScenario s = entry.make();
    AitiaReport report = DiagnoseScenario(s);
    ExpectValidJson(ReportToJson(report, *s.image));
  }
}

}  // namespace
}  // namespace aitia
