// Generator determinism and serializer round-trip at scale (DESIGN.md §14.3).
//
// The corpus expansion engine's contract: equal GenOptions produce
// byte-identical scenarios, every generated scenario survives
// serialize -> reparse -> reserialize byte-identically through the existing
// .ait pipeline, and a sweep plan's prefix is independent of its length.
// 200 seeded scenarios per template (1400 total) pin this far beyond the
// curated corpus's 29 hand-written entries.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/gen/generator.h"
#include "src/ingest/ingest.h"
#include "src/ingest/serialize.h"

namespace aitia {
namespace {

constexpr int kScenariosPerTemplate = 200;

// Deterministic per-template knob sampling: the test's own seeds, distinct
// from CorpusPlan's stream, so both stay covered.
gen::GenOptions NthOptions(gen::GenTemplate tmpl, int n) {
  gen::GenOptions options;
  options.tmpl = tmpl;
  options.seed = static_cast<uint64_t>(n) * 7 + 1;
  Rng rng(options.seed ^ 0x67656e726f756e64ULL);
  options.knobs = gen::SampleKnobs(tmpl, rng);
  return options;
}

class GenRoundtripTest : public testing::TestWithParam<gen::GenTemplate> {};

TEST_P(GenRoundtripTest, SerializeReparseReserializeBytesIdentical) {
  for (int n = 0; n < kScenariosPerTemplate; ++n) {
    const gen::GenOptions options = NthOptions(GetParam(), n);
    const gen::GeneratedScenario g = gen::GenerateScenario(options);
    const std::string ait = ScenarioToAit(g.scenario);

    StatusOr<BugScenario> reparsed = ScenarioFromAitText(ait, g.scenario.id + ".ait");
    ASSERT_TRUE(reparsed.ok()) << g.scenario.id << "\n"
                               << reparsed.status().ToString() << "\n"
                               << ait;
    EXPECT_EQ(ScenarioToAit(*reparsed), ait) << g.scenario.id;
    EXPECT_EQ(ScenarioFingerprint(*reparsed), ScenarioFingerprint(g.scenario))
        << g.scenario.id;
  }
}

TEST_P(GenRoundtripTest, EqualOptionsGenerateIdenticalScenarios) {
  for (int n = 0; n < kScenariosPerTemplate; n += 10) {
    const gen::GenOptions options = NthOptions(GetParam(), n);
    const gen::GeneratedScenario a = gen::GenerateScenario(options);
    const gen::GeneratedScenario b = gen::GenerateScenario(options);
    EXPECT_EQ(ScenarioToAit(a.scenario), ScenarioToAit(b.scenario)) << a.scenario.id;
    EXPECT_EQ(a.benign_globals, b.benign_globals);
    EXPECT_EQ(a.expect_failure, b.expect_failure);
  }
}

TEST_P(GenRoundtripTest, GroundTruthSurvivesTheRoundTrip) {
  const gen::GenOptions options = NthOptions(GetParam(), 3);
  const gen::GeneratedScenario g = gen::GenerateScenario(options);
  StatusOr<BugScenario> reparsed =
      ScenarioFromAitText(ScenarioToAit(g.scenario), "rt.ait");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->truth.failure_type, g.scenario.truth.failure_type);
  EXPECT_EQ(reparsed->truth.racing_globals, g.scenario.truth.racing_globals);
  EXPECT_EQ(reparsed->slice.size(), g.scenario.slice.size());
  EXPECT_EQ(reparsed->irq_lines.size(), g.scenario.irq_lines.size());
  EXPECT_EQ(reparsed->slice_resources, g.scenario.slice_resources);
  EXPECT_EQ(reparsed->setup_resources, g.scenario.setup_resources);
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, GenRoundtripTest,
                         testing::ValuesIn(gen::AllGenTemplates()),
                         [](const testing::TestParamInfo<gen::GenTemplate>& param_info) {
                           return std::string(gen::GenTemplateName(param_info.param));
                         });

TEST(CorpusPlanTest, PrefixIsIndependentOfCount) {
  const std::vector<gen::GenOptions> small = gen::CorpusPlan(30, 9);
  const std::vector<gen::GenOptions> big = gen::CorpusPlan(100, 9);
  ASSERT_EQ(small.size(), 30u);
  ASSERT_EQ(big.size(), 100u);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(ScenarioToAit(gen::GenerateScenario(small[i]).scenario),
              ScenarioToAit(gen::GenerateScenario(big[i]).scenario))
        << "plan slot " << i;
  }
}

TEST(CorpusPlanTest, IdsAreUniqueAcrossAPlan) {
  std::set<std::string> ids;
  for (const gen::GenOptions& options : gen::CorpusPlan(140, 9)) {
    EXPECT_TRUE(ids.insert(gen::GenerateScenario(options).scenario.id).second);
  }
  EXPECT_EQ(ids.size(), 140u);
}

TEST(CorpusPlanTest, TemplateSubsetIsHonored) {
  const std::vector<gen::GenTemplate> subset = {gen::GenTemplate::kAbba,
                                                gen::GenTemplate::kBenign};
  for (const gen::GenOptions& options : gen::CorpusPlan(10, 3, subset)) {
    EXPECT_TRUE(options.tmpl == gen::GenTemplate::kAbba ||
                options.tmpl == gen::GenTemplate::kBenign);
  }
}

TEST(ParseGenSpecTest, AcceptsFullSpecAndRejectsBadKnobs) {
  StatusOr<gen::GenOptions> ok = gen::ParseGenSpec(
      {"template=abba", "seed=7", "window=2", "salt=1", "extra_threads=0",
       "lock_depth=3", "irq=1"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->tmpl, gen::GenTemplate::kAbba);
  EXPECT_EQ(ok->seed, 7u);
  EXPECT_EQ(ok->knobs.window, 2);
  EXPECT_EQ(ok->knobs.lock_depth, 3);
  EXPECT_TRUE(ok->knobs.irq);

  EXPECT_FALSE(gen::ParseGenSpec({}).ok());                            // no template
  EXPECT_FALSE(gen::ParseGenSpec({"template=bogus"}).ok());            // unknown name
  EXPECT_FALSE(gen::ParseGenSpec({"template=rcu", "window=9"}).ok());  // out of range
  EXPECT_FALSE(gen::ParseGenSpec({"template=rcu", "depth=2"}).ok());   // unknown key
  EXPECT_FALSE(gen::ParseGenSpec({"template=rcu", "seed"}).ok());      // not key=value
}

}  // namespace
}  // namespace aitia
