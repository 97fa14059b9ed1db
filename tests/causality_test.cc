// Unit tests for Causality Analysis (src/core/causality).

#include <gtest/gtest.h>

#include "src/bugs/registry.h"
#include "src/core/causality.h"
#include "src/sim/builder.h"

namespace aitia {
namespace {

struct Diagnosis {
  LifsResult lifs;
  CausalityResult causality;
};

Diagnosis DiagnoseScenario(const BugScenario& s) {
  LifsOptions lo;
  lo.target_type = s.truth.failure_type;
  Lifs lifs(s.image.get(), s.slice, s.setup, lo);
  Diagnosis d;
  d.lifs = lifs.Run();
  EXPECT_TRUE(d.lifs.reproduced);
  CausalityAnalysis ca(s.image.get(), s.slice, s.setup, &d.lifs, CausalityOptions{});
  d.causality = ca.Run();
  return d;
}

TEST(CausalityTest, RootCauseFlipsPreventFailure) {
  Diagnosis d = DiagnoseScenario(MakeScenario("fig-1"));
  int roots = 0;
  for (const TestedRace& t : d.causality.tested) {
    if (t.verdict == RaceVerdict::kRootCause) {
      ++roots;
      EXPECT_FALSE(t.flip_still_failed);
      EXPECT_TRUE(t.flip_took_effect);
    }
  }
  EXPECT_EQ(roots, 2);
}

TEST(CausalityTest, BenignFlipsStillFail) {
  Diagnosis d = DiagnoseScenario(MakeScenario("fig-1"));
  int benign = 0;
  for (const TestedRace& t : d.causality.tested) {
    if (t.verdict == RaceVerdict::kBenign) {
      ++benign;
      EXPECT_TRUE(t.flip_still_failed);
    }
  }
  EXPECT_GT(benign, 0);
  EXPECT_EQ(benign, d.causality.benign_count);
}

TEST(CausalityTest, TestedBackwardFromTheFailure) {
  Diagnosis d = DiagnoseScenario(MakeScenario("CVE-2017-15649"));
  for (size_t i = 1; i < d.causality.tested.size(); ++i) {
    EXPECT_GE(d.causality.tested[i - 1].race.second.seq,
              d.causality.tested[i].race.second.seq);
  }
}

TEST(CausalityTest, PhantomRaceTestedAndChained) {
  Diagnosis d = DiagnoseScenario(MakeScenario("CVE-2017-15649"));
  bool phantom_root = false;
  for (const TestedRace& t : d.causality.tested) {
    if (t.phantom && t.verdict == RaceVerdict::kRootCause) {
      phantom_root = true;
    }
  }
  EXPECT_TRUE(phantom_root);  // B17 => A12
}

TEST(CausalityTest, DisappearanceEdgesFeedTheChain) {
  Diagnosis d = DiagnoseScenario(MakeScenario("fig-5"));
  // Flipping A1 => B1 makes the kworker (and its race) disappear.
  bool steering_edge = false;
  for (const TestedRace& t : d.causality.tested) {
    if (t.verdict == RaceVerdict::kRootCause && !t.disappeared.empty()) {
      steering_edge = true;
    }
  }
  EXPECT_TRUE(steering_edge);
  EXPECT_EQ(d.causality.chain.nodes().size(), 2u);
}

TEST(CausalityTest, AmbiguityReportedForSurroundedRaces) {
  Diagnosis d = DiagnoseScenario(MakeScenario("fig-7"));
  EXPECT_TRUE(d.causality.ambiguous);
  int ambiguous = 0;
  for (const TestedRace& t : d.causality.tested) {
    if (t.verdict == RaceVerdict::kAmbiguous) {
      ++ambiguous;
      EXPECT_FALSE(t.nested.empty());
    }
  }
  EXPECT_EQ(ambiguous, 1);
}

// Critical sections flip as a unit (§3.4 "Liveness"): the failing order of
// two lock-protected sections is tested by reordering whole sections, never
// by splitting them (which would deadlock).
TEST(CausalityTest, CriticalSectionPairFlipsAsUnit) {
  auto image = std::make_shared<KernelImage>();
  const Addr lock = image->AddGlobal("lock", 0);
  const Addr flag = image->AddGlobal("flag", 0);
  {
    ProgramBuilder a("setter");
    a.Lea(R1, lock)
        .Lock(R1)
        .Lea(R2, flag)
        .StoreImm(R2, 1)
        .Note("A1: flag = 1 (in cs)")
        .Unlock(R1)
        .Exit();
    image->AddProgram(a.Build());
  }
  {
    ProgramBuilder b("checker");
    b.Lea(R1, lock)
        .Lock(R1)
        .Lea(R2, flag)
        .Load(R3, R2)
        .Note("B1: r = flag (in cs)")
        .Unlock(R1)
        .Beqz(R3, "ok")
        .MovImm(R4, 0)
        .BugOn(R4)
        .Note("B2: BUG when flag was set first")
        .Label("ok")
        .Exit();
    image->AddProgram(b.Build());
  }
  std::vector<ThreadSpec> slice = {{"setter", 0, 0, ThreadKind::kSyscall},
                                   {"checker", 1, 0, ThreadKind::kSyscall}};

  LifsOptions lo;
  lo.target_type = FailureType::kAssertViolation;
  Lifs lifs(image.get(), slice, {}, lo);
  LifsResult lr = lifs.Run();
  ASSERT_TRUE(lr.reproduced);
  ASSERT_FALSE(lr.races.cs_pairs.empty());

  CausalityAnalysis ca(image.get(), slice, {}, &lr, {});
  CausalityResult cr = ca.Run();
  bool cs_root = false;
  for (const TestedRace& t : cr.tested) {
    if (t.race.cs_pair) {
      // Reordering the critical sections prevents the BUG.
      EXPECT_EQ(t.verdict, RaceVerdict::kRootCause);
      cs_root = true;
    }
  }
  EXPECT_TRUE(cs_root);
  // The chain carries the critical-section pair.
  std::string rendered = cr.chain.Render(*image);
  EXPECT_NE(rendered.find("cs{"), std::string::npos) << rendered;
}

TEST(CausalityTest, ConsolidationKeepsMinimalRepresentatives) {
  // CVE-2019-6974 has refput+free adjacent to each other conflicting with the
  // same refcount_inc: consolidation must keep one representative, so the
  // chain stays at its designed two races.
  Diagnosis d = DiagnoseScenario(MakeScenario("CVE-2019-6974"));
  EXPECT_EQ(d.causality.chain.race_count(), 2u);
  EXPECT_FALSE(d.causality.ambiguous);
}

TEST(CausalityTest, ScheduleCountMatchesTestSetSize) {
  Diagnosis d = DiagnoseScenario(MakeScenario("fig-1"));
  EXPECT_EQ(d.causality.schedules_executed, static_cast<int64_t>(d.causality.tested.size()));
}

}  // namespace
}  // namespace aitia
