// Unit tests for the program assembler (src/sim/builder).

#include <gtest/gtest.h>

#include "src/sim/builder.h"

namespace aitia {
namespace {

TEST(BuilderTest, ForwardLabelResolves) {
  ProgramBuilder b("p");
  b.MovImm(R1, 0).Beqz(R1, "target").MovImm(R2, 1).Label("target").Exit();
  Program p = b.Build();
  EXPECT_EQ(p.code[1].op, Op::kBeqz);
  EXPECT_EQ(p.code[1].imm, 3);  // pc of "target"
}

TEST(BuilderTest, BackwardLabelResolves) {
  ProgramBuilder b("p");
  b.Label("top").MovImm(R1, 1).Jmp("top");
  Program p = b.Build();
  EXPECT_EQ(p.code[1].op, Op::kJmp);
  EXPECT_EQ(p.code[1].imm, 0);
}

TEST(BuilderTest, AutoAppendsExitWhenFallingOffTheEnd) {
  ProgramBuilder b("p");
  b.MovImm(R1, 5);
  Program p = b.Build();
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(p.code.back().op, Op::kExit);
}

TEST(BuilderTest, NoExitAppendedAfterRetOrJmp) {
  ProgramBuilder b("p");
  b.Label("x").Jmp("x");
  EXPECT_EQ(b.Build().size(), 1);

  ProgramBuilder b2("q");
  b2.Ret();
  EXPECT_EQ(b2.Build().size(), 1);
}

TEST(BuilderTest, LabelPastTheLastInstructionBindsTheImplicitExit) {
  ProgramBuilder b("p");
  b.Jmp("end").Exit().Label("end");
  Program p = b.Build();
  ASSERT_EQ(p.size(), 3);
  EXPECT_EQ(p.code[0].imm, 2);  // the jump lands on the appended exit
  EXPECT_EQ(p.code.back().op, Op::kExit);
}

TEST(BuilderTest, NoteAttachesToLastInstruction) {
  ProgramBuilder b("p");
  b.MovImm(R1, 1).Note("first").MovImm(R2, 2).Note("second");
  Program p = b.Build();
  EXPECT_EQ(p.code[0].note, "first");
  EXPECT_EQ(p.code[1].note, "second");
}

TEST(BuilderTest, NextPcTracksEmission) {
  ProgramBuilder b("p");
  EXPECT_EQ(b.NextPc(), 0);
  b.MovImm(R1, 1);
  EXPECT_EQ(b.NextPc(), 1);
  b.Lea(R2, kGlobalBase).Load(R3, R2);
  EXPECT_EQ(b.NextPc(), 3);
}

TEST(BuilderTest, OperandEncodingRoundTrips) {
  ProgramBuilder b("p");
  b.StoreImm(R4, 99, 2).Alloc(R5, 7, true).ListDel(R6, R7, R8, 1);
  Program p = b.Build();
  EXPECT_EQ(p.code[0].op, Op::kStoreImm);
  EXPECT_EQ(p.code[0].rd, R4);
  EXPECT_EQ(p.code[0].imm, 2);
  EXPECT_EQ(p.code[0].imm2, 99);
  EXPECT_EQ(p.code[1].op, Op::kAlloc);
  EXPECT_EQ(p.code[1].imm, 7);
  EXPECT_EQ(p.code[1].imm2, 1);
  EXPECT_EQ(p.code[2].op, Op::kListDel);
  EXPECT_EQ(p.code[2].rd, R6);
  EXPECT_EQ(p.code[2].rs, R7);
  EXPECT_EQ(p.code[2].rt, R8);
}

TEST(BuilderTest, DisassembleMentionsOpAndNote) {
  Instr instr{.op = Op::kStore, .rd = R1, .rs = R2, .imm = 3, .note = "X: write"};
  std::string text = Disassemble(instr);
  EXPECT_NE(text.find("store"), std::string::npos);
  EXPECT_NE(text.find("X: write"), std::string::npos);
}

TEST(BuilderDeathTest, UndefinedLabelAborts) {
  EXPECT_DEATH(
      {
        ProgramBuilder b("p");
        b.Jmp("nowhere");
        b.Build();
      },
      "undefined label");
}

TEST(BuilderDeathTest, DuplicateLabelAborts) {
  EXPECT_DEATH(
      {
        ProgramBuilder b("p");
        b.Label("x").Label("x");
      },
      "duplicate label");
}

TEST(BuilderDeathTest, NoteBeforeAnyInstructionAborts) {
  EXPECT_DEATH(
      {
        ProgramBuilder b("p");
        b.Note("orphan");
      },
      "Note");
}

TEST(ImageTest, GlobalAddressesAreSequentialAndNamed) {
  KernelImage image;
  Addr a = image.AddGlobal("a", 1);
  Addr b = image.AddGlobal("b", 2);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(image.GlobalName(a), "a");
  EXPECT_EQ(image.GlobalName(b), "b");
  EXPECT_EQ(image.GlobalName(b + 1), "");
  EXPECT_EQ(image.GlobalAddr("b"), b);
}

TEST(ImageTest, ProgramLookupByName) {
  KernelImage image;
  ProgramBuilder b("alpha");
  b.Exit();
  ProgramId id = image.AddProgram(b.Build());
  EXPECT_EQ(image.ProgramByName("alpha"), id);
  EXPECT_EQ(image.program(id).name, "alpha");
}

TEST(ImageTest, DescribeUsesNotes) {
  KernelImage image;
  ProgramBuilder b("p");
  b.MovImm(R1, 1).Note("A1: set flag");
  image.AddProgram(b.Build());
  EXPECT_NE(image.Describe({0, 0}).find("A1: set flag"), std::string::npos);
}

TEST(ImageDeathTest, DuplicateGlobalAborts) {
  EXPECT_DEATH(
      {
        KernelImage image;
        image.AddGlobal("x", 0);
        image.AddGlobal("x", 0);
      },
      "duplicate global");
}

}  // namespace
}  // namespace aitia
