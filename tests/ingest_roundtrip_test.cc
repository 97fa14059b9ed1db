// Corpus-wide .ait round-trip tests (src/ingest).
//
// Every registered scenario, itself assembled from its src/bugs/corpus text,
// is serialized to the trace language, re-parsed, re-assembled, and compared
// against the registry's copy: first structurally (image, threads, truth),
// then behaviorally: the re-ingested scenario must diagnose to the same
// causality chain.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/ingest/ingest.h"

namespace aitia {
namespace {

void ExpectSameImage(const KernelImage& want, const KernelImage& got, const std::string& id) {
  ASSERT_EQ(want.globals().size(), got.globals().size()) << id;
  for (size_t i = 0; i < want.globals().size(); ++i) {
    EXPECT_EQ(want.globals()[i].name, got.globals()[i].name) << id;
    EXPECT_EQ(want.globals()[i].addr, got.globals()[i].addr) << id;
    EXPECT_EQ(want.globals()[i].init, got.globals()[i].init) << id;
  }
  ASSERT_EQ(want.programs().size(), got.programs().size()) << id;
  for (size_t p = 0; p < want.programs().size(); ++p) {
    const Program& a = want.programs()[p];
    const Program& b = got.programs()[p];
    EXPECT_EQ(a.name, b.name) << id;
    ASSERT_EQ(a.code.size(), b.code.size()) << id << " program " << a.name;
    for (size_t pc = 0; pc < a.code.size(); ++pc) {
      const Instr& x = a.code[pc];
      const Instr& y = b.code[pc];
      const std::string where = id + " " + a.name + "+" + std::to_string(pc);
      EXPECT_EQ(x.op, y.op) << where;
      EXPECT_EQ(x.rd, y.rd) << where;
      EXPECT_EQ(x.rs, y.rs) << where;
      EXPECT_EQ(x.rt, y.rt) << where;
      EXPECT_EQ(x.imm, y.imm) << where;
      EXPECT_EQ(x.imm2, y.imm2) << where;
      EXPECT_EQ(x.note, y.note) << where;
    }
  }
}

void ExpectSameThreads(const std::vector<ThreadSpec>& want, const std::vector<ThreadSpec>& got,
                       const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].name, got[i].name) << where;
    EXPECT_EQ(want[i].prog, got[i].prog) << where;
    EXPECT_EQ(want[i].arg, got[i].arg) << where;
    EXPECT_EQ(want[i].kind, got[i].kind) << where;
  }
}

void ExpectSameScenario(const BugScenario& want, const BugScenario& got) {
  const std::string& id = want.id;
  EXPECT_EQ(want.id, got.id);
  EXPECT_EQ(want.subsystem, got.subsystem) << id;
  EXPECT_EQ(want.bug_kind, got.bug_kind) << id;
  ExpectSameImage(*want.image, *got.image, id);
  ExpectSameThreads(want.slice, got.slice, id + " slice");
  ExpectSameThreads(want.setup, got.setup, id + " setup");
  ExpectSameThreads(want.noise, got.noise, id + " noise");
  EXPECT_EQ(want.slice_resources, got.slice_resources) << id;
  EXPECT_EQ(want.setup_resources, got.setup_resources) << id;
  ASSERT_EQ(want.irq_lines.size(), got.irq_lines.size()) << id;
  for (size_t i = 0; i < want.irq_lines.size(); ++i) {
    EXPECT_EQ(want.irq_lines[i].handler, got.irq_lines[i].handler) << id;
    EXPECT_EQ(want.irq_lines[i].arg, got.irq_lines[i].arg) << id;
  }
  const GroundTruth& wt = want.truth;
  const GroundTruth& gt = got.truth;
  EXPECT_EQ(wt.failure_type, gt.failure_type) << id;
  EXPECT_EQ(wt.multi_variable, gt.multi_variable) << id;
  EXPECT_EQ(wt.loosely_correlated, gt.loosely_correlated) << id;
  EXPECT_EQ(wt.paper_chain_races, gt.paper_chain_races) << id;
  EXPECT_EQ(wt.paper_interleavings, gt.paper_interleavings) << id;
  EXPECT_EQ(wt.expected_chain_races, gt.expected_chain_races) << id;
  EXPECT_EQ(wt.expected_interleavings, gt.expected_interleavings) << id;
  EXPECT_EQ(wt.racing_globals, gt.racing_globals) << id;
  EXPECT_EQ(wt.muvi_assumption_holds, gt.muvi_assumption_holds) << id;
  EXPECT_EQ(wt.single_variable_pattern, gt.single_variable_pattern) << id;
  EXPECT_EQ(wt.expect_ambiguity, gt.expect_ambiguity) << id;
}

// serialize -> parse -> assemble reproduces the exact scenario structure for
// the whole corpus. This is the cheap (no diagnosis) half of the round trip.
TEST(IngestRoundTripTest, CorpusSerializeParseIsStructurallyLossless) {
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    BugScenario original = entry.make();
    const std::string ait = ScenarioToAit(original);
    StatusOr<BugScenario> reparsed =
        ScenarioFromAitText(ait, std::string(entry.id) + ".ait");
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << ait;
    ExpectSameScenario(original, *reparsed);
  }
}

// The behavioral half: the re-ingested scenario must diagnose to the same
// causality chain as the registry's copy, for every corpus scenario.
TEST(IngestRoundTripTest, CorpusDiagnosisMatchesAfterRoundTrip) {
  for (const ScenarioEntry& entry : AllScenarios()) {
    SCOPED_TRACE(entry.id);
    BugScenario original = entry.make();
    StatusOr<BugScenario> reparsed =
        ScenarioFromAitText(ScenarioToAit(original), std::string(entry.id) + ".ait");
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();

    AitiaReport want = DiagnoseScenario(original);
    AitiaReport got = DiagnoseScenario(*reparsed);
    EXPECT_EQ(want.diagnosed, got.diagnosed);
    EXPECT_EQ(want.causality.chain.race_count(), got.causality.chain.race_count());
    EXPECT_EQ(want.causality.chain.Render(*original.image),
              got.causality.chain.Render(*reparsed->image));
  }
}

}  // namespace
}  // namespace aitia
