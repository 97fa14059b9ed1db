// Unit tests for the service-layer building blocks beneath the daemon:
// the hostile-input JSON parser, the bounded LRU result cache, and the
// scenario fingerprint the cache is keyed by.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/bugs/registry.h"
#include "src/ingest/ingest.h"
#include "src/ingest/serialize.h"
#include "src/svc/cache.h"
#include "src/svc/jsonv.h"
#include "src/util/strings.h"

namespace aitia {
namespace svc {
namespace {

// --- ParseJson ---------------------------------------------------------------

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_EQ(ParseJson("null").value().kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(ParseJson("true").value().AsBool());
  EXPECT_FALSE(ParseJson("false").value().AsBool(true));
  EXPECT_EQ(ParseJson("42").value().AsInt(), 42);
  EXPECT_EQ(ParseJson("-7").value().AsInt(), -7);
  EXPECT_DOUBLE_EQ(ParseJson("2.5e2").value().AsDouble(), 250.0);
  EXPECT_EQ(ParseJson("\"hi\"").value().AsString(), "hi");
}

TEST(JsonParserTest, AsIntSaturatesOutOfRangeNumbers) {
  // Clients pick these numbers (deadline_ms, hold_ms, a numeric id); the
  // conversion must clamp, not be undefined.
  EXPECT_EQ(ParseJson("1e300").value().AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseJson("1e19").value().AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseJson("-1e300").value().AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ParseJson("2.5").value().AsInt(), 2);
}

TEST(JsonParserTest, ParsesRequestShapedObject) {
  auto parsed = ParseJson(
      R"({"verb":"diagnose","id":"r1","scenario":"fig-1","jobs":2,)"
      R"("deadline_ms":5000,"no_cache":true,"tags":[1,2,3]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue doc = std::move(parsed).value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("verb")->AsString(), "diagnose");
  EXPECT_EQ(doc.Find("id")->AsString(), "r1");
  EXPECT_EQ(doc.Find("jobs")->AsInt(), 2);
  EXPECT_EQ(doc.Find("deadline_ms")->AsInt(), 5000);
  EXPECT_TRUE(doc.Find("no_cache")->AsBool());
  ASSERT_EQ(doc.Find("tags")->items().size(), 3u);
  EXPECT_EQ(doc.Find("tags")->items()[2].AsInt(), 3);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParserTest, DecodesEscapesAndSurrogatePairs) {
  auto parsed = ParseJson(R"("a\"b\\c\n\t\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().AsString(), "a\"b\\c\n\tA\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonParserTest, MalformedInputsYieldStatusNotAbort) {
  const char* bad[] = {
      "",        "{",         "}",          "{\"a\":}",   "{\"a\" 1}",
      "[1,]",    "{,}",       "nul",        "tru",        "+1",
      "01",      "1.",        ".5",         "1e",         "\"unterminated",
      "\"\\x\"", "\"\\u12\"", "\"\\ud800\"", "{\"a\":1}x", "[1 2]",
      "'single'", "{\"a\":1,}",
  };
  for (const char* text : bad) {
    auto parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(JsonParserTest, ErrorsCarryByteOffsets) {
  auto parsed = ParseJson("{\"a\": bad}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonParserTest, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep, /*max_depth=*/32).ok());
  EXPECT_TRUE(ParseJson(deep, /*max_depth=*/64).ok());
  // Depth bombs cannot stack-overflow the daemon regardless of input size.
  std::string bomb(100000, '[');
  EXPECT_FALSE(ParseJson(bomb).ok());
}

TEST(JsonParserTest, RoundTripsDaemonResponses) {
  // The parser must accept what the daemon's own writers emit.
  auto parsed = ParseJson(
      R"({"id":"d1","verb":"diagnose","scenario":"fig-1","status":"ok",)"
      R"("cache":"miss","elapsed_ms":0.959,"report":{"diagnosed":true}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("report")->Find("diagnosed")->AsBool(), true);
}

// --- ResultCache -------------------------------------------------------------

TEST(ResultCacheTest, GetAfterPut) {
  ResultCache cache(4);
  cache.Put(1, {"ok", "{\"r\":1}"});
  auto hit = cache.Get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status_word, "ok");
  EXPECT_EQ(hit->report_json, "{\"r\":1}");
  EXPECT_FALSE(cache.Get(2).has_value());
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(3);
  cache.Put(1, {"ok", "1"});
  cache.Put(2, {"ok", "2"});
  cache.Put(3, {"ok", "3"});
  ASSERT_TRUE(cache.Get(1).has_value());  // 1 is now most-recent
  cache.Put(4, {"ok", "4"});              // evicts 2, the LRU entry
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ResultCacheTest, PutRefreshesExistingKey) {
  ResultCache cache(2);
  cache.Put(1, {"ok", "old"});
  cache.Put(1, {"ok", "new"});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(1)->report_json, "new");
}

TEST(ResultCacheTest, CapacityZeroDisables) {
  ResultCache cache(0);
  cache.Put(1, {"ok", "1"});
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, StaysBoundedUnderChurn) {
  ResultCache cache(8);
  for (uint64_t k = 0; k < 10000; ++k) {
    cache.Put(k, {"ok", "x"});
    ASSERT_LE(cache.size(), 8u);
  }
}

// --- ScenarioFingerprint -----------------------------------------------------

TEST(FingerprintTest, StableAcrossRequestForms) {
  // The same scenario must fingerprint identically whether built from the
  // corpus factory or re-assembled from its own .ait serialization — that is
  // what makes the cache idempotent across request forms.
  const BugScenario direct = MakeScenario("fig-1");
  const uint64_t direct_fp = ScenarioFingerprint(direct);
  const std::string ait = ScenarioToAit(direct);
  auto reparsed = ScenarioFromAitText(ait, "<test>");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(ScenarioFingerprint(reparsed.value()), direct_fp);
}

TEST(FingerprintTest, DistinctAcrossCorpus) {
  std::vector<uint64_t> seen;
  for (const ScenarioEntry& entry : AllScenarios()) {
    const uint64_t fp = ScenarioFingerprint(entry.make());
    for (uint64_t other : seen) {
      EXPECT_NE(fp, other) << "collision at " << entry.id;
    }
    seen.push_back(fp);
  }
}

TEST(FingerprintTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace svc
}  // namespace aitia
