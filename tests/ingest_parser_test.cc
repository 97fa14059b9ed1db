// Malformed-input and good-path tests for the .ait parser + assembler
// (src/ingest). Every malformed trace must produce a Status diagnostic of
// the form "<file>:<line>:<col>: message" — never a crash or abort — so the
// suite is also run under -DAITIA_SANITIZE=ON in CI.

#include <gtest/gtest.h>

#include <string>

#include "src/ingest/ingest.h"
#include "src/ingest/parser.h"
#include "src/sim/types.h"

namespace aitia {
namespace {

// A minimal well-formed trace the malformed cases are mutations of.
constexpr char kGoodTrace[] = R"ait(ait 1
scenario "good"
global flag 0
global box &flag
program writer
  lea r1, flag
  store_imm r1, 1 note "A1: flag = 1"
  exit
end
program reader
  lea r1, flag
  load r2, r1
  beqz r2, out
  mov_imm r3, 7
  label out
  exit
end
slice "write()" writer
slice "read()" reader arg 2 kind kworker resource "fd"
truth failure null-deref
truth racing_globals flag
)ait";

// Expects a parse (or assembly) failure whose diagnostic carries the given
// file:line:col prefix and mentions `needle`.
void ExpectError(const std::string& text, const std::string& pos_prefix,
                 const std::string& needle) {
  StatusOr<BugScenario> got = ScenarioFromAitText(text, "test.ait");
  ASSERT_FALSE(got.ok()) << "expected failure mentioning: " << needle;
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << got.status().ToString();
  const std::string msg = got.status().ToString();
  EXPECT_NE(msg.find(pos_prefix), std::string::npos)
      << "want position '" << pos_prefix << "' in: " << msg;
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "want '" << needle << "' in: " << msg;
}

TEST(IngestGoodPathTest, MinimalTraceAssembles) {
  StatusOr<BugScenario> got = ScenarioFromAitText(kGoodTrace, "good.ait");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const BugScenario& s = *got;
  EXPECT_EQ(s.id, "good");
  ASSERT_EQ(s.image->globals().size(), 2u);
  EXPECT_EQ(s.image->globals()[0].name, "flag");
  // `&flag` initializer resolves to flag's address.
  EXPECT_EQ(static_cast<Addr>(s.image->globals()[1].init), s.image->globals()[0].addr);
  ASSERT_EQ(s.image->programs().size(), 2u);
  EXPECT_EQ(s.image->programs()[0].name, "writer");
  EXPECT_EQ(s.image->programs()[0].code[1].note, "A1: flag = 1");
  ASSERT_EQ(s.slice.size(), 2u);
  EXPECT_EQ(s.slice[1].arg, 2);
  EXPECT_EQ(s.slice[1].kind, ThreadKind::kKworker);
  ASSERT_EQ(s.slice_resources.size(), 2u);
  EXPECT_EQ(s.slice_resources[0], "");
  EXPECT_EQ(s.slice_resources[1], "fd");
  EXPECT_EQ(s.truth.failure_type, FailureType::kNullDeref);
  ASSERT_EQ(s.truth.racing_globals.size(), 1u);
  EXPECT_EQ(s.truth.racing_globals[0], "flag");
}

TEST(IngestGoodPathTest, BranchTargetResolvesToLabelPc) {
  StatusOr<BugScenario> got = ScenarioFromAitText(kGoodTrace, "good.ait");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const Program& reader = got->image->programs()[1];
  ASSERT_EQ(reader.code[2].op, Op::kBeqz);
  EXPECT_EQ(reader.code[2].imm, 4);  // pc of "label out"
}

TEST(IngestGoodPathTest, CommentsAndBlankLinesIgnored) {
  std::string text = std::string("# header comment\n\n") + kGoodTrace + "\n# trailing\n";
  EXPECT_TRUE(ScenarioFromAitText(text, "c.ait").ok());
}

// --- lexical errors ---------------------------------------------------------

TEST(IngestMalformedTest, UnterminatedString) {
  ExpectError("ait 1\nscenario \"oops\n", "test.ait:2:10:", "unterminated string");
}

TEST(IngestMalformedTest, BadEscapeInString) {
  ExpectError("ait 1\nscenario \"a\\qb\"\n", "test.ait:2:", "escape");
}

TEST(IngestMalformedTest, MalformedNumber) {
  ExpectError("ait 1\nscenario \"x\"\nglobal g 0xg\n", "test.ait:3:10:", "malformed number");
}

TEST(IngestMalformedTest, StrayCharacter) {
  ExpectError("ait 1\nscenario \"x\"\nglobal g 0 @\n", "test.ait:3:12:", "unexpected character");
}

// --- header / structure errors ----------------------------------------------

TEST(IngestMalformedTest, EmptyInput) {
  ExpectError("", "test.ait:1:1:", "missing 'ait <version>'");
}

TEST(IngestMalformedTest, MissingHeader) {
  ExpectError("scenario \"x\"\n", "test.ait:1:1:", "must start with 'ait");
}

TEST(IngestMalformedTest, UnsupportedVersion) {
  ExpectError("ait 99\n", "test.ait:1:5:", "unsupported ait version 99");
}

TEST(IngestMalformedTest, MissingScenarioDeclaration) {
  ExpectError("ait 1\nglobal g 0\n", "test.ait:", "missing 'scenario'");
}

TEST(IngestMalformedTest, DuplicateScenarioDeclaration) {
  ExpectError("ait 1\nscenario \"a\"\nscenario \"b\"\n", "test.ait:3:1:",
              "duplicate 'scenario'");
}

TEST(IngestMalformedTest, UnknownDirective) {
  ExpectError("ait 1\nscenario \"x\"\nfrobnicate 3\n", "test.ait:3:1:",
              "unknown directive 'frobnicate'");
}

TEST(IngestMalformedTest, TruncatedProgramNoEnd) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  exit\n", "test.ait:",
              "not closed by 'end'");
}

TEST(IngestMalformedTest, EndOutsideProgram) {
  ExpectError("ait 1\nscenario \"x\"\nend\n", "test.ait:3:1:", "outside of a program");
}

TEST(IngestMalformedTest, DuplicateProgram) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\nend\nprogram p\nend\n", "test.ait:5:9:",
              "duplicate program 'p'");
}

TEST(IngestMalformedTest, DuplicateGlobal) {
  ExpectError("ait 1\nscenario \"x\"\nglobal g 0\nglobal g 1\n", "test.ait:4:8:",
              "duplicate global 'g'");
}

TEST(IngestMalformedTest, GlobalMissingInitializer) {
  ExpectError("ait 1\nscenario \"x\"\nglobal g\n", "test.ait:3:9:", "initial value");
}

// One global more than the global region holds: refused at the first global
// that does not fit, never an abort in KernelImage::AddGlobal.
TEST(IngestMalformedTest, MoreGlobalsThanTheGlobalRegionHolds) {
  const size_t capacity = static_cast<size_t>(kGlobalEnd - kGlobalBase);
  std::string text = "ait 1\nscenario \"x\"\n";
  for (size_t i = 0; i <= capacity; ++i) {
    text += "global g" + std::to_string(i) + " 0\n";
  }
  text += "program p\nend\nslice \"t\" p\n";
  ExpectError(text, "test.ait:" + std::to_string(capacity + 3) + ":8:", "too many globals");
}

// --- instruction-level errors -----------------------------------------------

// An alloc above kmalloc's per-object cap is refused at assembly, never
// backed with memory (one such line used to exhaust the process).
TEST(IngestMalformedTest, AllocAboveThePerObjectCap) {
  const std::string text =
      "ait 1\nscenario \"x\"\nprogram p\n  alloc r1, 9223372036854775807\n  exit\nend\n"
      "slice \"t\" p\n";
  ExpectError(text, "test.ait:4:3:", "exceeds the per-object cap");
  const std::string at_cap = "ait 1\nscenario \"x\"\nprogram p\n  alloc r1, " +
                             std::to_string(kMaxAllocCells) + "\n  exit\nend\nslice \"t\" p\n";
  EXPECT_TRUE(ScenarioFromAitText(at_cap, "test.ait").ok());
}

TEST(IngestMalformedTest, UnknownMnemonic) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  frob r1\nend\n", "test.ait:4:3:",
              "unknown mnemonic 'frob'");
}

TEST(IngestMalformedTest, BadRegisterName) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  mov_imm rx, 1\nend\n", "test.ait:4:11:",
              "bad register name 'rx'");
}

TEST(IngestMalformedTest, RegisterOutOfRange) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  mov_imm r16, 1\nend\n", "test.ait:4:11:",
              "bad register name 'r16'");
}

TEST(IngestMalformedTest, MissingOperand) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  mov_imm r1\nend\n", "test.ait:4:13:",
              "expected ','");
}

TEST(IngestMalformedTest, TrailingGarbageAfterInstruction) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  exit now\nend\n", "test.ait:4:8:",
              "unexpected trailing 'now'");
}

TEST(IngestMalformedTest, NoteWithoutString) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  nop note\nend\n", "test.ait:4:11:",
              "quoted string after 'note'");
}

TEST(IngestMalformedTest, DanglingLabelUse) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  jmp nowhere\nend\n", "test.ait:4:7:",
              "undefined label 'nowhere'");
}

TEST(IngestMalformedTest, DuplicateLabelDefinition) {
  ExpectError(
      "ait 1\nscenario \"x\"\nprogram p\n  label twice\n  nop\n  label twice\nend\n",
      "test.ait:6:9:", "duplicate label 'twice'");
}

TEST(IngestMalformedTest, NoteOnLabelLine) {
  ExpectError(
      "ait 1\nscenario \"x\"\nprogram p\n  label a note \"no\"\n  jmp a\nend\n"
      "slice \"t\" p\n",
      "test.ait:4:3:", "'label' line cannot carry a note");
}

// --- name-resolution (assembly) errors ---------------------------------------

TEST(IngestMalformedTest, UnknownGlobalInLea) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\n  lea r1, ghost\nend\nslice \"t\" p\n",
              "test.ait:4:11:", "unknown global 'ghost'");
}

TEST(IngestMalformedTest, UnknownGlobalInAmpInitializer) {
  ExpectError("ait 1\nscenario \"x\"\nglobal g &ghost\nprogram p\nend\nslice \"t\" p\n",
              "test.ait:3:11:", "unknown global 'ghost'");
}

TEST(IngestMalformedTest, UnknownProgramInQueueWork) {
  ExpectError(
      "ait 1\nscenario \"x\"\nprogram p\n  queue_work ghost, r1\nend\nslice \"t\" p\n",
      "test.ait:4:14:", "unknown program 'ghost'");
}

TEST(IngestMalformedTest, UnknownProgramInSliceThread) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\nend\nslice \"t\" ghost\n", "test.ait:5:11:",
              "unknown program 'ghost'");
}

TEST(IngestMalformedTest, UnknownProgramInIrqLine) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\nend\nslice \"t\" p\nirq ghost\n",
              "test.ait:6:5:", "unknown program 'ghost'");
}

TEST(IngestMalformedTest, EmptySlice) {
  StatusOr<BugScenario> got =
      ScenarioFromAitText("ait 1\nscenario \"x\"\nprogram p\nend\n", "test.ait");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().ToString().find("no 'slice' threads"), std::string::npos);
}

// --- thread / truth clause errors --------------------------------------------

TEST(IngestMalformedTest, UnknownThreadKind) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\nend\nslice \"t\" p kind daemon\n",
              "test.ait:5:18:", "unknown thread kind 'daemon'");
}

TEST(IngestMalformedTest, UnknownThreadClause) {
  ExpectError("ait 1\nscenario \"x\"\nprogram p\nend\nslice \"t\" p nice 5\n",
              "test.ait:5:13:", "unknown clause 'nice'");
}

TEST(IngestMalformedTest, UnknownTruthKey) {
  ExpectError("ait 1\nscenario \"x\"\ntruth flavor vanilla\n", "test.ait:3:7:",
              "unknown truth key 'flavor'");
}

TEST(IngestMalformedTest, UnknownFailureTypeToken) {
  ExpectError("ait 1\nscenario \"x\"\ntruth failure meltdown\n", "test.ait:3:15:",
              "unknown failure type 'meltdown'");
}

TEST(IngestMalformedTest, TruthBoolNotBool) {
  ExpectError("ait 1\nscenario \"x\"\ntruth multi_variable maybe\n", "test.ait:3:22:",
              "'true' or 'false'");
}

TEST(IngestMalformedTest, UnknownRacingGlobalInTruth) {
  ExpectError(
      "ait 1\nscenario \"x\"\nprogram p\nend\nslice \"t\" p\ntruth racing_globals ghost\n",
      "test.ait:6:22:", "unknown global 'ghost'");
}

// --- file-level entry point ---------------------------------------------------

TEST(IngestFileTest, MissingFileIsNotFound) {
  StatusOr<BugScenario> got = ScenarioFromAitFile("/nonexistent/trace.ait");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

// The parser itself (before assembly) also reports structured positions.
TEST(IngestParserTest, ParseTraceTextReportsDocShape) {
  StatusOr<TraceDoc> doc = ParseTraceText(kGoodTrace, "good.ait");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->scenario_id, "good");
  EXPECT_EQ(doc->globals.size(), 2u);
  EXPECT_EQ(doc->programs.size(), 2u);
  EXPECT_EQ(doc->threads.size(), 2u);
}

}  // namespace
}  // namespace aitia
