// Unit tests for happens-before analysis and race extraction (src/analysis/races).

#include <gtest/gtest.h>

#include "src/analysis/races.h"
#include "src/sim/builder.h"
#include "src/sim/policy.h"

namespace aitia {
namespace {

// Two threads write the same global with no synchronization.
TEST(HbTest, UnsynchronizedConflictIsARace) {
  KernelImage image;
  Addr g = image.AddGlobal("g", 0);
  for (const char* name : {"w0", "w1"}) {
    ProgramBuilder b(name);
    b.Lea(R1, g).StoreImm(R1, 1).Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 0, ThreadKind::kSyscall},
                            {"b", 1, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0, 1});
  RunResult r = RunToCompletion(kernel, policy);
  RaceAnalysis races = ExtractRaces(r);
  ASSERT_EQ(races.races.size(), 1u);
  EXPECT_EQ(races.races[0].first.di.tid, 0);
  EXPECT_EQ(races.races[0].second.di.tid, 1);
  EXPECT_TRUE(races.cs_pairs.empty());
}

TEST(HbTest, ReadReadDoesNotConflict) {
  KernelImage image;
  Addr g = image.AddGlobal("g", 5);
  for (const char* name : {"r0", "r1"}) {
    ProgramBuilder b(name);
    b.Lea(R1, g).Load(R2, R1).Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 0, ThreadKind::kSyscall},
                            {"b", 1, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0, 1});
  RaceAnalysis races = ExtractRaces(RunToCompletion(kernel, policy));
  EXPECT_TRUE(races.races.empty());
  EXPECT_EQ(races.conflicting_pairs_total, 0);
}

TEST(HbTest, CommonLockMakesCriticalSectionPairNotRace) {
  KernelImage image;
  Addr lock = image.AddGlobal("lock", 0);
  Addr g = image.AddGlobal("g", 0);
  for (const char* name : {"c0", "c1"}) {
    ProgramBuilder b(name);
    b.Lea(R1, lock).Lock(R1).Lea(R2, g).StoreImm(R2, 1).Unlock(R1).Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 0, ThreadKind::kSyscall},
                            {"b", 1, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0, 1});
  RaceAnalysis races = ExtractRaces(RunToCompletion(kernel, policy));
  EXPECT_TRUE(races.races.empty());
  ASSERT_EQ(races.cs_pairs.size(), 1u);
  EXPECT_TRUE(races.cs_pairs[0].cs_pair);
  EXPECT_EQ(races.cs_pairs[0].lock, lock);
  EXPECT_LT(races.cs_pairs[0].first_cs_begin, races.cs_pairs[0].first_cs_end);
  EXPECT_LT(races.cs_pairs[0].second_cs_begin, races.cs_pairs[0].second_cs_end);
  // Still counted as a conflicting pair for the raw statistics.
  EXPECT_EQ(races.conflicting_pairs_total, 1);
}

TEST(HbTest, OneSidedLockingIsStillARace) {
  KernelImage image;
  Addr lock = image.AddGlobal("lock", 0);
  Addr g = image.AddGlobal("g", 0);
  {
    ProgramBuilder b("locked");
    b.Lea(R1, lock).Lock(R1).Lea(R2, g).StoreImm(R2, 1).Unlock(R1).Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("unlocked");
    b.Lea(R2, g).StoreImm(R2, 2).Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 0, ThreadKind::kSyscall},
                            {"b", 1, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0, 1});
  RaceAnalysis races = ExtractRaces(RunToCompletion(kernel, policy));
  EXPECT_EQ(races.races.size(), 1u);
  EXPECT_TRUE(races.cs_pairs.empty());
}

TEST(HbTest, SpawnEdgeOrdersParentPrefixBeforeChild) {
  KernelImage image;
  Addr g = image.AddGlobal("g", 0);
  ProgramBuilder w("worker");
  w.Lea(R1, g).StoreImm(R1, 2).Exit();
  ProgramId worker = image.AddProgram(w.Build());
  ProgramBuilder p("parent");
  p.Lea(R1, g).StoreImm(R1, 1).QueueWork(worker, R0).Exit();
  image.AddProgram(p.Build());

  KernelSim kernel(&image, {{"t", image.ProgramByName("parent"), 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy);
  // Parent's store happens-before the spawned worker's store: no race.
  RaceAnalysis races = ExtractRaces(r);
  EXPECT_TRUE(races.races.empty());
}

TEST(HbTest, AccessAfterSpawnPointRacesWithChild) {
  KernelImage image;
  Addr g = image.AddGlobal("g", 0);
  ProgramBuilder w("worker");
  w.Lea(R1, g).StoreImm(R1, 2).Exit();
  ProgramId worker = image.AddProgram(w.Build());
  ProgramBuilder p("parent");
  p.QueueWork(worker, R0).Lea(R1, g).StoreImm(R1, 1).Exit();
  image.AddProgram(p.Build());

  KernelSim kernel(&image, {{"t", image.ProgramByName("parent"), 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy);
  RaceAnalysis races = ExtractRaces(r);
  // Parent store after queue_work is unordered with the worker's store.
  EXPECT_EQ(races.races.size(), 1u);
}

TEST(HbTest, LockHandoffCreatesHappensBefore) {
  KernelImage image;
  Addr lock = image.AddGlobal("lock", 0);
  Addr g = image.AddGlobal("g", 0);
  {
    ProgramBuilder b("first");
    b.Lea(R1, lock).Lock(R1).Lea(R2, g).StoreImm(R2, 1).Unlock(R1).Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("second");
    // Store *outside* its own critical section, but after acquiring the same
    // lock: the release->acquire edge orders it after thread 0's store.
    b.Lea(R1, lock).Lock(R1).Unlock(R1).Lea(R2, g).StoreImm(R2, 2).Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 0, ThreadKind::kSyscall},
                            {"b", 1, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0, 1});
  RaceAnalysis races = ExtractRaces(RunToCompletion(kernel, policy));
  EXPECT_TRUE(races.races.empty());
  EXPECT_TRUE(races.cs_pairs.empty());
}

TEST(HbTest, FreeConflictsWithInteriorAccess) {
  KernelImage image;
  Addr slot = image.AddGlobal("slot", 0);
  {
    ProgramBuilder b("user");
    b.Lea(R1, slot).Load(R2, R1).Load(R3, R2, 1).Exit();  // read obj[1]
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("freer");
    b.Lea(R1, slot).Load(R2, R1).Free(R2).Exit();
    image.AddProgram(b.Build());
  }
  ProgramBuilder setup("setup");
  setup.Alloc(R1, 3).Lea(R2, slot).Store(R2, R1).Exit();
  image.AddProgram(setup.Build());

  KernelSim kernel(&image,
                   {{"a", 0, 0, ThreadKind::kSyscall}, {"b", 1, 0, ThreadKind::kSyscall}},
                   {{"s", 2, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0, 1});
  RunResult r = RunToCompletion(kernel, policy);
  ASSERT_FALSE(r.failed());  // user ran before freer
  RaceAnalysis races = ExtractRaces(r);
  // The free (covering the whole object) conflicts with the interior read.
  bool found = false;
  for (const RacePair& race : races.races) {
    if (race.second.op == Op::kFree || race.first.op == Op::kFree) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(HbTest, HbRelationIsTransitiveThroughLocks) {
  KernelImage image;
  Addr lock = image.AddGlobal("lock", 0);
  for (const char* name : {"t0", "t1", "t2"}) {
    ProgramBuilder b(name);
    b.Lea(R1, lock).Lock(R1).Nop().Unlock(R1).Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 0, ThreadKind::kSyscall},
                            {"b", 1, 0, ThreadKind::kSyscall},
                            {"c", 2, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0, 1, 2});
  RunResult r = RunToCompletion(kernel, policy);
  HbRelation hb(r);
  // First event of thread 0 happens-before last event of thread 2 via the
  // chained lock hand-offs.
  EXPECT_TRUE(hb.HappensBefore(r.trace.front().seq, r.trace.back().seq));
  // And never the other way.
  EXPECT_FALSE(hb.HappensBefore(r.trace.back().seq, r.trace.front().seq));
}

}  // namespace
}  // namespace aitia
