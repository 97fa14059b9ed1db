// Microbenchmarks (google-benchmark): raw substrate throughput.
//
// These quantify why the simulator substitution keeps the experiments cheap:
// one enforced schedule costs microseconds, versus seconds-to-minutes for a
// VM-backed run with reboot in the original system.

#include <benchmark/benchmark.h>

#include "src/analysis/races.h"
#include "src/bugs/registry.h"
#include "src/core/causality.h"
#include "src/core/lifs.h"
#include "src/hv/enforcer.h"
#include "src/sim/builder.h"
#include "src/sim/policy.h"

namespace {

using namespace aitia;

// A counting loop exercising loads/stores/branches.
KernelImage MakeLoopImage(Word iterations) {
  KernelImage image;
  Addr counter = image.AddGlobal("counter", 0);
  ProgramBuilder b("loop");
  b.MovImm(R1, iterations)
      .Lea(R2, counter)
      .Label("top")
      .Load(R3, R2)
      .AddImm(R3, R3, 1)
      .Store(R2, R3)
      .AddImm(R1, R1, -1)
      .Bnez(R1, "top")
      .Exit();
  image.AddProgram(b.Build());
  return image;
}

void BM_InterpreterSteps(benchmark::State& state) {
  KernelImage image = MakeLoopImage(state.range(0));
  std::vector<ThreadSpec> threads = {{"loop", 0, 0, ThreadKind::kSyscall}};
  int64_t steps = 0;
  for (auto _ : state) {
    KernelSim kernel(&image, threads);
    SeqPolicy policy({0});
    RunResult r = RunToCompletion(kernel, policy, {.max_steps = 10000000});
    steps += r.steps;
    benchmark::DoNotOptimize(r.trace.data());
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_InterpreterSteps)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EnforcedTotalOrderReplay(benchmark::State& state) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  LifsOptions lo;
  lo.target_type = s.truth.failure_type;
  Lifs lifs(s.image.get(), s.slice, s.setup, lo);
  LifsResult lr = lifs.Run();
  TotalOrderSchedule schedule;
  schedule.base_order = lr.failing_schedule.base_order;
  for (const ExecEvent& e : lr.failing_run.trace) {
    schedule.sequence.push_back(e.di);
  }
  for (auto _ : state) {
    Enforcer enforcer(s.image.get());
    EnforceResult er = enforcer.RunTotalOrder(s.slice, schedule, s.setup);
    benchmark::DoNotOptimize(er.run.trace.data());
  }
}
BENCHMARK(BM_EnforcedTotalOrderReplay);

void BM_LifsEndToEnd(benchmark::State& state) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  for (auto _ : state) {
    LifsOptions lo;
    lo.target_type = s.truth.failure_type;
    Lifs lifs(s.image.get(), s.slice, s.setup, lo);
    LifsResult lr = lifs.Run();
    benchmark::DoNotOptimize(lr.reproduced);
  }
}
BENCHMARK(BM_LifsEndToEnd);

void BM_CausalityAnalysis(benchmark::State& state) {
  BugScenario s = MakeScenario("CVE-2017-15649");
  LifsOptions lo;
  lo.target_type = s.truth.failure_type;
  Lifs lifs(s.image.get(), s.slice, s.setup, lo);
  LifsResult lr = lifs.Run();
  for (auto _ : state) {
    CausalityAnalysis ca(s.image.get(), s.slice, s.setup, &lr, CausalityOptions{});
    CausalityResult cr = ca.Run();
    benchmark::DoNotOptimize(cr.tested.data());
  }
}
BENCHMARK(BM_CausalityAnalysis);

void BM_RaceExtraction(benchmark::State& state) {
  BugScenario s = MakeScenario("syz-08");
  LifsOptions lo;
  lo.target_type = s.truth.failure_type;
  Lifs lifs(s.image.get(), s.slice, s.setup, lo);
  LifsResult lr = lifs.Run();
  for (auto _ : state) {
    RaceAnalysis analysis = ExtractRaces(lr.failing_run);
    benchmark::DoNotOptimize(analysis.races.data());
  }
}
BENCHMARK(BM_RaceExtraction);

}  // namespace

BENCHMARK_MAIN();
