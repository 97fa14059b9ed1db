// Workload `sweep`: the aitia_sweep plan (gen::CorpusPlan, seven templates
// in equal shares) at aitia_sweep's search budgets, diagnosed on one thread.
// Set-up generates the plan and round-trips every scenario through .ait
// text, so the timed phase diagnoses exactly what a .ait file on disk would
// give.
//
// The benign template's searches never reproduce and walk the whole
// frontier up to the budget, so they dominate the time: LIFS and the
// checkpoint engine are used the opposite way from `corpus` (exhaust the
// frontier instead of stopping at the first failure) and CA hardly at all.
//
// The plan is pinned to aitia_sweep's default sweep seed; the benchmark seed
// orders each pass over it. Generated scenarios differ up to 200x in cost
// (13 ms to 3 s for benign ones), so a plan drawn from the benchmark seed
// would let the draw, not the program, set the figures: with knobs pinned
// and only the generator seeds drawn, a 70-scenario pass still ranged
// 4.2-5.4 s over seven seeds. A block is one whole pass, so every block has
// the same composition. With 77 scenarios (11 per template) latency_ms_p90
// sits inside one benign scenario's samples, and latency_ms_p99 inside the
// slowest one's.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/bugs/diagnose.h"
#include "src/gen/generator.h"
#include "src/ingest/ingest.h"

namespace perfbench {
namespace {

// aitia_sweep's default --seed, and template cycles in the plan.
constexpr uint64_t kPlanSeed = 9;
constexpr int kPlanCycles = 11;
// Set-up repetitions before the timed phase; two more run between each of
// its blocks. setup_s is the median of all of them, so it is not set by the
// first few, which run while the CPU is still ramping up.
constexpr int kSetupRuns = 3;

// aitia_sweep's budgets: every planted failure is reachable within two
// preemptions, and the schedule cap bounds the searches that find nothing.
aitia::AitiaOptions SweepOptions() {
  aitia::AitiaOptions options;
  options.lifs.max_interleavings = 2;
  options.lifs.max_schedules = 2500;
  return options;
}

struct PlannedScenario {
  aitia::gen::GenTemplate tmpl = aitia::gen::GenTemplate::kOrder;
  aitia::BugScenario scenario;  // re-parsed from its own .ait text
  bool expect_failure = true;
  std::vector<aitia::Addr> benign_addrs;  // salted benign globals
  std::vector<std::pair<aitia::Addr, aitia::Addr>> racing;   // planted racing state
  std::vector<std::pair<aitia::Addr, aitia::Addr>> trigger;  // racing_globals[0] alone
};

// aitia_sweep's invariants for one diagnosis; empty when they hold.
std::string Check(const PlannedScenario& p, const aitia::AitiaReport& report) {
  const aitia::BugScenario& s = p.scenario;
  if (!p.expect_failure) {
    return report.lifs.reproduced || report.diagnosed
               ? s.id + ": fabricated failure: benign scenario reproduced"
               : "";
  }
  if (!report.diagnosed || report.degraded || !report.status.ok()) {
    return s.id + ": planted failure not diagnosed cleanly";
  }
  if (!report.lifs.failure.has_value() || report.lifs.failure->type != s.truth.failure_type) {
    return s.id + ": reproduced failure type != planted symptom";
  }
  if (report.causality.schedules_executed + report.causality.flips_skipped !=
      static_cast<int64_t>(report.causality.tested.size())) {
    return s.id + ": schedules_executed + flips_skipped != tested races";
  }
  bool trigger_hit = false;
  for (const aitia::ChainNode& node : report.causality.chain.nodes()) {
    for (const aitia::RacePair& race : node.races) {
      const aitia::Addr a = race.first.addr;
      const aitia::Addr b = race.second.addr;
      if (!aitia::InRanges(p.racing, a) && !aitia::InRanges(p.racing, b)) {
        return s.id + ": chain race outside the planted racing state";
      }
      for (aitia::Addr benign : p.benign_addrs) {
        if (a == benign || b == benign) {
          return s.id + ": salted benign race appeared in the chain";
        }
      }
      trigger_hit = trigger_hit || aitia::InRanges(p.trigger, a) || aitia::InRanges(p.trigger, b);
    }
  }
  return trigger_hit ? "" : s.id + ": chain misses the planted trigger";
}

// One set-up: generate the plan, round-trip every scenario through .ait
// text, and warm up on the first cycle's buggy scenarios (cheap; the benign
// one is left for the timed phase). Every failed check lands in `errors`,
// and `checks` counts the checks made. Traced runs pass `spans`.
struct SetUpResult {
  std::vector<PlannedScenario> plan;
  std::vector<std::string> errors;
  int64_t checks = 0;
  double gen_s = 0;
  double serialize_s = 0;
  double parse_s = 0;
};

SetUpResult SetUp(const aitia::AitiaOptions& options, SpanRecorder* spans) {
  SetUpResult r;
  const int cycle = static_cast<int>(aitia::gen::AllGenTemplates().size());
  for (const aitia::gen::GenOptions& opt : aitia::gen::CorpusPlan(cycle * kPlanCycles, kPlanSeed)) {
    const Clock::time_point t0 = Clock::now();
    aitia::gen::GeneratedScenario g = aitia::gen::GenerateScenario(opt);
    const Clock::time_point t1 = Clock::now();
    const std::string ait = aitia::ScenarioToAit(g.scenario);
    const Clock::time_point t2 = Clock::now();
    aitia::StatusOr<aitia::BugScenario> parsed =
        aitia::ScenarioFromAitText(ait, g.scenario.id + ".ait");
    const Clock::time_point t3 = Clock::now();
    r.gen_s += Seconds(t0, t1);
    r.serialize_s += Seconds(t1, t2);
    r.parse_s += Seconds(t2, t3);
    if (spans != nullptr) {
      const int64_t op = -1 - static_cast<int64_t>(r.plan.size());  // set-up, not timed
      spans->Add("gen", op, -1, t0, t1);
      spans->Add("ingest.serialize", op, -1, t1, t2);
      spans->Add("ingest.parse", op, -1, t2, t3);
    }
    ++r.checks;
    if (!parsed.ok() || aitia::ScenarioToAit(*parsed) != ait) {
      r.errors.push_back(g.scenario.id + ": .ait round trip not byte-identical");
      continue;
    }
    PlannedScenario p;
    p.tmpl = opt.tmpl;
    p.scenario = *std::move(parsed);
    p.expect_failure = g.expect_failure;
    for (const std::string& name : g.benign_globals) {
      const aitia::Addr addr = p.scenario.image->FindGlobal(name);
      if (addr != 0) p.benign_addrs.push_back(addr);
    }
    p.racing = aitia::RacingAddressRanges(p.scenario);
    if (!p.scenario.truth.racing_globals.empty()) {
      aitia::BugScenario probe = p.scenario;
      probe.truth.racing_globals = {p.scenario.truth.racing_globals.front()};
      p.trigger = aitia::RacingAddressRanges(probe);
    }
    r.plan.push_back(std::move(p));
  }
  for (int i = 0; i < cycle && i < static_cast<int>(r.plan.size()); ++i) {
    if (!r.plan[i].expect_failure) continue;
    const aitia::AitiaReport report = aitia::DiagnoseScenario(r.plan[i].scenario, options);
    ++r.checks;
    const std::string error = Check(r.plan[i], report);
    if (!error.empty()) r.errors.push_back("warm-up " + error);
  }
  return r;
}

}  // namespace

Outcome RunSweep(const Config& config) {
  Outcome out;
  const aitia::AitiaOptions options = SweepOptions();
  const std::vector<aitia::gen::GenTemplate>& templates = aitia::gen::AllGenTemplates();
  const int64_t cycle = static_cast<int64_t>(templates.size());
  SpanRecorder spans;
  SetUpResult setup;
  const auto timed_setup = [&](SpanRecorder* to) {
    const Clock::time_point start = Clock::now();
    SetUpResult r = SetUp(options, to);
    out.setup_s.push_back(Seconds(start, Clock::now()));
    return r;
  };
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    const bool last = rep + 1 == kSetupRuns;  // the repetition whose plan is kept
    setup = timed_setup(config.trace && last ? &spans : nullptr);
  }
  out.attempted += setup.checks;
  for (std::string& error : setup.errors) out.Fail(std::move(error));
  const std::vector<PlannedScenario>& plan = setup.plan;
  if (plan.size() != static_cast<size_t>(cycle * kPlanCycles)) {
    out.Fail("sweep plan lost scenarios in set-up");
    return out;
  }

  // Each pass visits the whole plan in its own order, drawn from the seed.
  const int64_t block = static_cast<int64_t>(plan.size());
  std::mt19937_64 rng(config.seed);
  std::vector<std::vector<size_t>> orders;
  const auto at = [&](int64_t op) -> const PlannedScenario& {
    while (static_cast<int64_t>(orders.size()) <= op / block) {
      std::vector<size_t> order(plan.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      orders.push_back(std::move(order));
    }
    return plan[orders[static_cast<size_t>(op / block)][static_cast<size_t>(op % block)]];
  };
  std::vector<int64_t> per_template(templates.size(), 0);
  DiagTally tally;
  RunSerialLoop(
      config, block, [&](int64_t op) { return SerialOp{&at(op).scenario, &options}; },
      [&](int64_t op, const aitia::AitiaReport& report) {
        const PlannedScenario& p = at(op);
        ++per_template[static_cast<size_t>(p.tmpl)];
        return Check(p, report);
      },
      [&] {
        timed_setup(nullptr);
        timed_setup(nullptr);
      },
      out, tally, spans);

  // Operations per template (equal shares when every pass completed).
  std::string shares = "{";
  for (size_t t = 0; t < templates.size(); ++t) {
    shares += (t == 0 ? "\"" : ", \"") + std::string(aitia::gen::GenTemplateName(templates[t])) +
              "\": " + std::to_string(per_template[static_cast<size_t>(templates[t])]);
  }
  out.detail.push_back({"template_ops", shares + "}"});
  out.detail.push_back({"plan_scenarios", std::to_string(plan.size())});

  if (config.trace) {
    const double n = static_cast<double>(plan.size());
    out.layers.push_back({"gen.ms_per_scenario", setup.gen_s * 1e3 / n, "ms"});
    out.layers.push_back({"ingest.serialize_ms_per_op", setup.serialize_s * 1e3 / n, "ms"});
    out.layers.push_back({"ingest.parse_ms_per_op", setup.parse_s * 1e3 / n, "ms"});
    if (!config.trace_out.empty() && !spans.WriteChromeTrace(config.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", config.trace_out.c_str());
    }
  }
  return out;
}

}  // namespace perfbench
