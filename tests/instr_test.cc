// ISA-level properties (src/sim/instr) and a randomized interpreter smoke
// test: arbitrary straight-line programs under arbitrary schedules must
// never wedge or corrupt the simulator — only report modeled failures.

#include <gtest/gtest.h>

#include "src/analysis/races.h"
#include "src/sim/builder.h"
#include "src/sim/policy.h"
#include "src/util/rng.h"

namespace aitia {
namespace {

const Op kAllOps[] = {
    Op::kNop,     Op::kResched,  Op::kTlbFlush, Op::kMovImm,       Op::kMov,
    Op::kAddImm,  Op::kAdd,      Op::kSub,      Op::kLea,          Op::kLoad,
    Op::kStore,   Op::kStoreImm, Op::kBeqz,     Op::kBnez,         Op::kBeq,
    Op::kBne,     Op::kJmp,      Op::kCall,     Op::kRet,          Op::kExit,
    Op::kAlloc,   Op::kFree,     Op::kLock,     Op::kUnlock,       Op::kAssert,
    Op::kQueueWork, Op::kCallRcu, Op::kListAdd, Op::kListDel,      Op::kListContains,
    Op::kListPop, Op::kListLen,  Op::kRefGet,   Op::kRefPut,
};

TEST(InstrTest, EveryOpHasAName) {
  for (Op op : kAllOps) {
    EXPECT_STRNE(OpName(op), "?");
  }
}

TEST(InstrTest, WritesAreASubsetOfAccesses) {
  for (Op op : kAllOps) {
    if (IsWriteAccess(op)) {
      EXPECT_TRUE(IsMemoryAccess(op)) << OpName(op);
    }
  }
}

TEST(InstrTest, ExpectedAccessClassification) {
  EXPECT_TRUE(IsMemoryAccess(Op::kLoad));
  EXPECT_FALSE(IsWriteAccess(Op::kLoad));
  EXPECT_TRUE(IsWriteAccess(Op::kStore));
  EXPECT_TRUE(IsWriteAccess(Op::kFree));
  EXPECT_TRUE(IsWriteAccess(Op::kListAdd));
  EXPECT_FALSE(IsWriteAccess(Op::kListContains));
  EXPECT_FALSE(IsMemoryAccess(Op::kLea));
  EXPECT_FALSE(IsMemoryAccess(Op::kLock));
  EXPECT_FALSE(IsMemoryAccess(Op::kTlbFlush));
}

// Generates a random straight-line program over a few shared globals; every
// generated program is valid by construction (registers always initialized,
// addresses always taken from globals or fresh allocations).
Program RandomProgram(Rng& rng, const std::vector<Addr>& globals, int length,
                      const std::string& name) {
  ProgramBuilder b(name);
  // R1 always holds a valid global address; R2 a valid heap base.
  b.Lea(R1, globals[rng.PickIndex(globals.size())]);
  b.Alloc(R2, 2);
  for (int i = 0; i < length; ++i) {
    switch (rng.NextBelow(10)) {
      case 0:
        b.Lea(R1, globals[rng.PickIndex(globals.size())]);
        break;
      case 1:
        b.Load(R3, R1);
        break;
      case 2:
        b.StoreImm(R1, static_cast<Word>(rng.NextBelow(100)));
        break;
      case 3:
        b.Load(R4, R2, static_cast<Word>(rng.NextBelow(2)));
        break;
      case 4:
        b.StoreImm(R2, 7, static_cast<Word>(rng.NextBelow(2)));
        break;
      case 5:
        b.AddImm(R5, R3, 1);
        break;
      case 6:
        b.ListAdd(R1, R5);
        break;
      case 7:
        b.ListPop(R6, R1);
        break;
      case 8:
        b.Nop();
        break;
      case 9:
        b.MovImm(R7, static_cast<Word>(rng.NextBelow(50)));
        break;
    }
  }
  b.Exit();
  return b.Build();
}

TEST(InterpreterFuzzTest, RandomProgramsUnderRandomSchedulesAlwaysTerminate) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    KernelImage image;
    std::vector<Addr> globals;
    for (int g = 0; g < 4; ++g) {
      globals.push_back(image.AddGlobal("g" + std::to_string(g), 0));
    }
    std::vector<ThreadSpec> threads;
    for (int t = 0; t < 3; ++t) {
      image.AddProgram(RandomProgram(rng, globals, 12, "p" + std::to_string(t)));
      threads.push_back({"t" + std::to_string(t), t, 0, ThreadKind::kSyscall});
    }
    KernelSim kernel(&image, threads);
    RandomPolicy policy(seed * 7 + 1, 1, 2);
    RunResult r = RunToCompletion(kernel, policy, {.max_steps = 20000});
    // Straight-line programs always finish; the only legal outcome is a
    // clean exit (no modeled failure is reachable by construction).
    EXPECT_TRUE(r.all_exited) << "seed " << seed;
    EXPECT_FALSE(r.failed()) << "seed " << seed << ": " << r.failure->ToString();
    // The trace must be well-formed: strictly increasing seq, valid tids.
    for (size_t i = 1; i < r.trace.size(); ++i) {
      EXPECT_EQ(r.trace[i].seq, r.trace[i - 1].seq + 1);
    }
    // And race extraction must not choke on arbitrary traces.
    RaceAnalysis races = ExtractRaces(r);
    EXPECT_GE(races.conflicting_pairs_total,
              static_cast<int64_t>(races.races.size()));
  }
}

TEST(InterpreterFuzzTest, RandomScheduleOutcomesAreSchedulIndependentForStores) {
  // Commutativity sanity: the multiset of list elements pushed by the three
  // threads is schedule-independent even though their order is not.
  Rng rng(99);
  KernelImage image;
  Addr head = image.AddGlobal("head", 0);
  for (int t = 0; t < 3; ++t) {
    ProgramBuilder b("p" + std::to_string(t));
    b.Lea(R1, head).MovImm(R2, t + 1).ListAdd(R1, R2).ListAdd(R1, R2).Exit();
    image.AddProgram(b.Build());
  }
  std::multiset<Word> expected = {1, 1, 2, 2, 3, 3};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    KernelSim kernel(&image,
                     {{"a", 0, 0, ThreadKind::kSyscall},
                      {"b", 1, 0, ThreadKind::kSyscall},
                      {"c", 2, 0, ThreadKind::kSyscall}});
    RandomPolicy policy(seed, 1, 2);
    RunResult r = RunToCompletion(kernel, policy);
    ASSERT_FALSE(r.failed());
    auto& list = kernel.memory().ListAt(head);
    std::multiset<Word> got(list.begin(), list.end());
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aitia
