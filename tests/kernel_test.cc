// Unit tests for the kernel simulator core (src/sim/kernel).

#include <gtest/gtest.h>

#include "src/sim/builder.h"
#include "src/sim/kernel.h"
#include "src/sim/policy.h"

namespace aitia {
namespace {

// Runs a single-thread program to completion and returns the result.
RunResult RunSingle(KernelImage& image, const char* prog_name) {
  std::vector<ThreadSpec> threads = {
      {"t", image.ProgramByName(prog_name), 0, ThreadKind::kSyscall}};
  KernelSim kernel(&image, threads);
  SeqPolicy policy({0});
  return RunToCompletion(kernel, policy);
}

TEST(KernelTest, ArithmeticAndBranches) {
  KernelImage image;
  Addr out = image.AddGlobal("out", 0);
  ProgramBuilder b("p");
  b.MovImm(R1, 5)
      .AddImm(R2, R1, 3)   // 8
      .Add(R3, R1, R2)     // 13
      .Sub(R4, R3, R1)     // 8
      .Beq(R4, R2, "ok")
      .Lea(R5, out)
      .StoreImm(R5, -1)
      .Exit()
      .Label("ok")
      .Lea(R5, out)
      .Store(R5, R4)
      .Exit();
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(kernel.memory().Peek(out), 8);
}

TEST(KernelTest, CallAndRetNest) {
  KernelImage image;
  Addr out = image.AddGlobal("out", 0);
  ProgramBuilder b("p");
  b.Call("f").Lea(R2, out).Store(R2, R1).Exit()
      .Label("f").Call("g").AddImm(R1, R1, 1).Ret()
      .Label("g").MovImm(R1, 10).Ret();
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy);
  EXPECT_FALSE(r.failed());
  // g sets 10, f adds 1 -> 11 stored.
  EXPECT_EQ(kernel.memory().Peek(out), 11);
  EXPECT_EQ(r.trace.back().op, Op::kExit);
}

TEST(KernelTest, RetAtDepthZeroExitsThread) {
  KernelImage image;
  ProgramBuilder b("p");
  b.MovImm(R1, 1).Ret();
  image.AddProgram(b.Build());
  RunResult r = RunSingle(image, "p");
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.all_exited);
}

TEST(KernelTest, ThreadArgArrivesInR0) {
  KernelImage image;
  Addr out = image.AddGlobal("out", 0);
  ProgramBuilder b("p");
  b.Lea(R1, out).Store(R1, R0).Exit();
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 1234, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunToCompletion(kernel, policy);
  EXPECT_EQ(kernel.memory().Peek(out), 1234);
}

TEST(KernelTest, AssertPassAndFail) {
  KernelImage image;
  ProgramBuilder ok("ok");
  ok.MovImm(R1, 1).BugOn(R1).Exit();
  image.AddProgram(ok.Build());
  ProgramBuilder bad("bad");
  bad.MovImm(R1, 0).BugOn(R1).Exit();
  image.AddProgram(bad.Build());
  ProgramBuilder warn("warn");
  warn.MovImm(R1, 0).WarnOn(R1).Exit();
  image.AddProgram(warn.Build());

  EXPECT_FALSE(RunSingle(image, "ok").failed());
  RunResult r_bad = RunSingle(image, "bad");
  ASSERT_TRUE(r_bad.failed());
  EXPECT_EQ(r_bad.failure->type, FailureType::kAssertViolation);
  RunResult r_warn = RunSingle(image, "warn");
  ASSERT_TRUE(r_warn.failed());
  EXPECT_EQ(r_warn.failure->type, FailureType::kWarning);
}

TEST(KernelTest, RefcountSemantics) {
  KernelImage image;
  Addr ref = image.AddGlobal("ref", 1);
  Addr hit = image.AddGlobal("hit_zero", 99);
  ProgramBuilder b("p");
  b.Lea(R1, ref)
      .RefGet(R1)   // 1 -> 2
      .RefPut(R2, R1)  // 2 -> 1, rd = 0
      .RefPut(R3, R1)  // 1 -> 0, rd = 1
      .Lea(R4, hit)
      .Store(R4, R3)
      .Exit();
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(kernel.memory().Peek(ref), 0);
  EXPECT_EQ(kernel.memory().Peek(hit), 1);
}

TEST(KernelTest, RefcountIncFromZeroWarns) {
  KernelImage image;
  Addr ref = image.AddGlobal("ref", 0);
  ProgramBuilder b("p");
  b.Lea(R1, ref).RefGet(R1).Exit();
  image.AddProgram(b.Build());
  RunResult r = RunSingle(image, "p");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.failure->type, FailureType::kRefcountWarning);
}

TEST(KernelTest, ListOperations) {
  KernelImage image;
  Addr head = image.AddGlobal("head", 0);
  Addr out = image.AddGlobal("out", 0);
  ProgramBuilder b("p");
  b.Lea(R1, head)
      .MovImm(R2, 7)
      .ListAdd(R1, R2)
      .MovImm(R3, 8)
      .ListAdd(R1, R3)
      .ListContains(R4, R1, R2)  // 1
      .ListLen(R5, R1)           // 2
      .ListDel(R6, R1, R2)       // removed -> 1
      .ListPop(R7, R1)           // 8
      .Add(R8, R4, R5)
      .Add(R8, R8, R6)
      .Add(R8, R8, R7)           // 1+2+1+8 = 12
      .Lea(R9, out)
      .Store(R9, R8)
      .Exit();
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(kernel.memory().Peek(out), 12);
  EXPECT_EQ(kernel.memory().Peek(head), 0);  // head mirrors length (now 0)
}

TEST(KernelTest, LocksBlockAndWake) {
  KernelImage image;
  Addr lock = image.AddGlobal("lock", 0);
  Addr order = image.AddGlobal("order", 0);
  // Each thread: lock; order = order * 10 + id; unlock.
  for (const char* name : {"p0", "p1"}) {
    ProgramBuilder b(name);
    b.Lea(R1, lock)
        .Lock(R1)
        .Lea(R2, order)
        .Load(R3, R2)
        .MovImm(R4, 10)
        .Add(R5, R3, R3)  // 2x
        .Add(R5, R5, R5)  // 4x
        .Add(R5, R5, R3)  // 5x
        .Add(R5, R5, R5)  // 10x
        .Add(R5, R5, R0)  // + id
        .Store(R2, R5)
        .Unlock(R1)
        .Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 1, ThreadKind::kSyscall},
                            {"b", 1, 2, ThreadKind::kSyscall}});
  // Round-robin-ish: alternate picks so the second thread tries the lock
  // while the first holds it.
  RandomPolicy policy(7, 1, 2);
  RunResult r = RunToCompletion(kernel, policy);
  EXPECT_FALSE(r.failed());
  Word order_val = kernel.memory().Peek(order);
  EXPECT_TRUE(order_val == 12 || order_val == 21) << order_val;
}

TEST(KernelTest, SelfDeadlockDetected) {
  KernelImage image;
  Addr lock = image.AddGlobal("lock", 0);
  ProgramBuilder b("p");
  b.Lea(R1, lock).Lock(R1).Lock(R1).Unlock(R1).Exit();
  image.AddProgram(b.Build());
  RunResult r = RunSingle(image, "p");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.failure->type, FailureType::kDeadlock);
}

TEST(KernelTest, AbbaDeadlockDetected) {
  KernelImage image;
  Addr l1 = image.AddGlobal("l1", 0);
  Addr l2 = image.AddGlobal("l2", 0);
  {
    ProgramBuilder b("ab");
    b.Lea(R1, l1).Lock(R1).Lea(R2, l2).Lock(R2).Unlock(R2).Unlock(R1).Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("ba");
    b.Lea(R1, l2).Lock(R1).Lea(R2, l1).Lock(R2).Unlock(R2).Unlock(R1).Exit();
    image.AddProgram(b.Build());
  }
  KernelSim kernel(&image, {{"a", 0, 0, ThreadKind::kSyscall},
                            {"b", 1, 0, ThreadKind::kSyscall}});
  // Strict alternation drives both into the cross-acquire.
  RandomPolicy policy(3, 1, 1);
  RunResult r = RunToCompletion(kernel, policy);
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.failure->type, FailureType::kDeadlock);
}

TEST(KernelTest, QueueWorkSpawnsRunnableKworker) {
  KernelImage image;
  Addr out = image.AddGlobal("out", 0);
  ProgramBuilder w("worker");
  w.Lea(R1, out).Store(R1, R0).Exit();
  ProgramId worker = image.AddProgram(w.Build());
  ProgramBuilder b("p");
  b.MovImm(R1, 55).QueueWork(worker, R1).Exit();
  image.AddProgram(b.Build());

  KernelSim kernel(&image, {{"t", image.ProgramByName("p"), 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy);
  EXPECT_FALSE(r.failed());
  ASSERT_EQ(r.threads.size(), 2u);
  EXPECT_EQ(r.threads[1].kind, ThreadKind::kKworker);
  EXPECT_EQ(r.threads[1].parent, 0);
  EXPECT_EQ(kernel.memory().Peek(out), 55);
  ASSERT_EQ(r.spawns.size(), 1u);
  EXPECT_EQ(r.spawns[0].arg, 55);
}

TEST(KernelTest, OccurrenceCountsDisambiguateLoopIterations) {
  KernelImage image;
  Addr g = image.AddGlobal("g", 0);
  ProgramBuilder b("p");
  b.MovImm(R1, 3)
      .Lea(R2, g)
      .Label("top")
      .Load(R3, R2)
      .AddImm(R3, R3, 1)
      .Store(R2, R3)
      .AddImm(R1, R1, -1)
      .Bnez(R1, "top")
      .Exit();
  image.AddProgram(b.Build());
  RunResult r = RunSingle(image, "p");
  int occurrences[3] = {};
  for (const ExecEvent& e : r.trace) {
    if (e.op == Op::kLoad && e.di.occurrence < 3) {
      occurrences[e.di.occurrence]++;
    }
  }
  EXPECT_EQ(occurrences[0], 1);
  EXPECT_EQ(occurrences[1], 1);
  EXPECT_EQ(occurrences[2], 1);
}

TEST(KernelTest, ParkedThreadIsNotRunnableAndNotDeadlocked) {
  KernelImage image;
  ProgramBuilder b("p");
  b.Nop().Exit();
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 0, ThreadKind::kSyscall}});
  kernel.Park(0);
  EXPECT_TRUE(kernel.RunnableThreads().empty());
  EXPECT_TRUE(kernel.Done());
  kernel.Unpark(0);
  ASSERT_EQ(kernel.RunnableThreads().size(), 1u);
}

TEST(KernelTest, PeekAccessMatchesExecutedAccess) {
  KernelImage image;
  Addr g = image.AddGlobal("g", 0);
  ProgramBuilder b("p");
  b.Lea(R1, g).Store(R1, R0, 0).Exit();
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 0, ThreadKind::kSyscall}});
  EXPECT_FALSE(kernel.PeekAccess(0).has_value());  // lea is not an access
  kernel.Step(0);
  auto peek = kernel.PeekAccess(0);
  ASSERT_TRUE(peek.has_value());
  EXPECT_EQ(peek->addr, g);
  EXPECT_TRUE(peek->is_write);
  kernel.Step(0);
  const ExecEvent& e = kernel.trace().back();
  EXPECT_EQ(e.addr, g);
  EXPECT_TRUE(e.is_write);
}

TEST(KernelTest, SetupPhaseRunsUnrecorded) {
  KernelImage image;
  Addr g = image.AddGlobal("g", 0);
  ProgramBuilder setup("setup");
  setup.Lea(R1, g).StoreImm(R1, 42).Exit();
  image.AddProgram(setup.Build());
  ProgramBuilder main_prog("main");
  main_prog.Lea(R1, g).Load(R2, R1).Exit();
  image.AddProgram(main_prog.Build());

  std::vector<ThreadSpec> setup_specs = {{"s", 0, 0, ThreadKind::kSyscall}};
  std::vector<ThreadSpec> initial = {{"m", 1, 0, ThreadKind::kSyscall}};
  KernelSim kernel(&image, initial, setup_specs);
  EXPECT_EQ(kernel.memory().Peek(g), 42);     // effects visible
  EXPECT_TRUE(kernel.trace().empty());        // no events recorded
  EXPECT_EQ(kernel.first_initial_thread(), 1);
  SeqPolicy policy({1});
  RunResult r = RunToCompletion(kernel, policy);
  EXPECT_FALSE(r.failed());
  // Only the main thread's events appear, and it reads the setup's store.
  for (const ExecEvent& e : r.trace) {
    EXPECT_EQ(e.di.tid, 1);
  }
}

// A setup program that takes the same lock twice blocks for good: the sim
// refuses it as an input error instead of leaving a stuck setup thread for
// the run to report as a deadlock.
TEST(KernelTest, SetupPhaseThatBlocksIsAnInputError) {
  KernelImage image;
  Addr lk = image.AddGlobal("lk", 0);
  ProgramBuilder setup("setup");
  setup.Lea(R1, lk).Lock(R1).Lock(R1).Exit();
  image.AddProgram(setup.Build());
  ProgramBuilder main_prog("main");
  main_prog.Exit();
  image.AddProgram(main_prog.Build());

  KernelSim kernel(&image, {{"m", 1, 0, ThreadKind::kSyscall}},
                   {{"s", 0, 0, ThreadKind::kSyscall}});
  EXPECT_EQ(kernel.setup_status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kernel.setup_status().message().find("setup phase blocked"), std::string::npos)
      << kernel.setup_status().ToString();
  EXPECT_FALSE(kernel.failure().has_value());
}

TEST(KernelTest, WatchdogFiresOnInfiniteLoop) {
  KernelImage image;
  ProgramBuilder b("spin");
  b.Label("top").Jmp("top");
  image.AddProgram(b.Build());
  KernelSim kernel(&image, {{"t", 0, 0, ThreadKind::kSyscall}});
  SeqPolicy policy({0});
  RunResult r = RunToCompletion(kernel, policy, {.max_steps = 1000});
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.failure->type, FailureType::kWatchdog);
}

}  // namespace
}  // namespace aitia
