// Salted-benign-race soundness on the generated corpus (DESIGN.md §14.2).
//
// Every buggy template can be salted with benign races (racy counters,
// silent same-value store pairs, dead reads). This test pins the soundness
// contract beyond the curated counterexamples: salted races flip benign and
// never appear in a causality chain. The benign template pins the other
// half: a scenario with *only* salted races never produces a failure, under
// LIFS or under the fuzzer — LIFS does not fabricate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/core/aitia.h"
#include "src/fuzz/fuzzer.h"
#include "src/gen/generator.h"

namespace aitia {
namespace {

// Deterministic search caps (the sweep's budgets): the planted bugs need
// <= 2 preemptions, and the benign searches must not walk the full default
// frontier.
AitiaOptions CappedOptions() {
  AitiaOptions options;
  options.lifs.max_interleavings = 2;
  options.lifs.max_schedules = 2500;
  return options;
}

TEST(GenBenignTest, SaltedRacesNeverAppearInAChain) {
  // Maximum salt across every buggy template, three seeds each.
  int salted_races_seen = 0;
  for (gen::GenTemplate tmpl : gen::AllGenTemplates()) {
    if (tmpl == gen::GenTemplate::kBenign) continue;
    for (uint64_t seed : {2, 13, 31}) {
      gen::GenOptions options;
      options.tmpl = tmpl;
      options.seed = seed;
      options.knobs.salt = 2;
      options.knobs.window = 1;
      const gen::GeneratedScenario g = gen::GenerateScenario(options);
      ASSERT_FALSE(g.benign_globals.empty());

      AitiaReport report = DiagnoseScenario(g.scenario, CappedOptions());
      ASSERT_TRUE(report.diagnosed) << g.scenario.id;

      std::vector<Addr> benign_addrs;
      for (const std::string& name : g.benign_globals) {
        const Addr addr = g.scenario.image->FindGlobal(name);
        if (addr != 0) benign_addrs.push_back(addr);
      }
      // Salted races that were tested must flip benign — and must never be
      // in the chain.
      for (const TestedRace& t : report.causality.tested) {
        for (Addr addr : benign_addrs) {
          if (t.race.first.addr == addr || t.race.second.addr == addr) {
            ++salted_races_seen;
            EXPECT_NE(t.verdict, RaceVerdict::kRootCause)
                << g.scenario.id << " " << RaceLabel(*g.scenario.image, t.race);
            EXPECT_NE(t.verdict, RaceVerdict::kAmbiguous)
                << g.scenario.id << " " << RaceLabel(*g.scenario.image, t.race);
          }
        }
      }
      for (const ChainNode& node : report.causality.chain.nodes()) {
        for (const RacePair& race : node.races) {
          for (Addr addr : benign_addrs) {
            EXPECT_NE(race.first.addr, addr)
                << g.scenario.id << " " << RaceLabel(*g.scenario.image, race);
            EXPECT_NE(race.second.addr, addr)
                << g.scenario.id << " " << RaceLabel(*g.scenario.image, race);
          }
        }
      }
      // Accounting invariant: one flip run per tested race.
      EXPECT_EQ(report.causality.schedules_executed,
                static_cast<int64_t>(report.causality.tested.size()))
          << g.scenario.id;
    }
  }
  // The salt actually generated cross-thread races.
  EXPECT_GT(salted_races_seen, 0);
}

TEST(GenBenignTest, BenignTemplateNeverReproducesUnderLifs) {
  const std::vector<gen::GenTemplate> only_benign = {gen::GenTemplate::kBenign};
  for (const gen::GenOptions& options : gen::CorpusPlan(8, 77, only_benign)) {
    const gen::GeneratedScenario g = gen::GenerateScenario(options);
    ASSERT_FALSE(g.expect_failure);
    AitiaReport report = DiagnoseScenario(g.scenario, CappedOptions());
    EXPECT_FALSE(report.lifs.reproduced) << g.scenario.id << " fabricated a failure";
    EXPECT_FALSE(report.diagnosed) << g.scenario.id;
  }
}

TEST(GenBenignTest, BenignTemplateNeverFailsUnderTheFuzzer) {
  const std::vector<gen::GenTemplate> only_benign = {gen::GenTemplate::kBenign};
  for (const gen::GenOptions& options : gen::CorpusPlan(4, 101, only_benign)) {
    const gen::GeneratedScenario g = gen::GenerateScenario(options);
    FuzzOptions fuzz;
    fuzz.max_attempts = 150;
    const FuzzOutcome outcome = FuzzUntilFailure(g.scenario.MakeWorkload(), fuzz);
    EXPECT_FALSE(outcome.found)
        << g.scenario.id << " failed under random preemption: "
        << (outcome.run.failure ? outcome.run.failure->ToString() : "");
  }
}

}  // namespace
}  // namespace aitia
