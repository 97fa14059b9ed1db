// Workload `corpus`: the 28 curated scenarios (10 CVEs, 12 syzkaller bugs,
// 6 paper figures) diagnosed back to back through DiagnoseScenario on one
// thread, with default options. Every search reproduces its bug and Causality
// Analysis follows, so sim, hv, LIFS, CA and the checkpoint engine do nearly
// all the work; ingest and svc do none.
//
// A block is one pass over all 28 scenarios in an order drawn from the seed,
// so every scenario has exactly the same share (3.6%) of the operations.
// CVE-2017-15649 is the slowest scenario by far; latency_ms_p99 sits inside
// its share.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"

namespace perfbench {
namespace {

// What the warm-up pass established for one scenario; every timed
// diagnosis of it must match.
struct Reference {
  aitia::FailureType failure = aitia::FailureType::kNone;
  size_t chain_races = 0;
  std::string chain;
};

// Set-up repetitions before the timed phase; more run between its blocks.
// setup_s is the median of all of them.
constexpr int kSetupRuns = 5;

// One set-up: build every scenario and diagnose each once (the warm-up pass
// that also fixes each scenario's reference chain).
void SetUp(const aitia::AitiaOptions& options, std::vector<aitia::BugScenario>& scenarios,
           std::vector<Reference>& refs) {
  scenarios.clear();
  refs.clear();
  for (const aitia::ScenarioEntry& entry : aitia::AllScenarios()) {
    scenarios.push_back(entry.make());
  }
  for (const aitia::BugScenario& s : scenarios) {
    const aitia::AitiaReport report = aitia::DiagnoseScenario(s, options);
    refs.push_back({report.lifs.failure.has_value() ? report.lifs.failure->type
                                                    : aitia::FailureType::kNone,
                    report.causality.chain.race_count(),
                    report.causality.chain.Render(*s.image)});
  }
}

}  // namespace

Outcome RunCorpus(const Config& config) {
  Outcome out;
  const aitia::AitiaOptions options;  // shipped defaults: one thread, triage, replay cache
  std::vector<aitia::BugScenario> scenarios;
  std::vector<Reference> refs;
  const auto timed_setup = [&](std::vector<aitia::BugScenario>& s, std::vector<Reference>& r) {
    const Clock::time_point start = Clock::now();
    SetUp(options, s, r);
    out.setup_s.push_back(Seconds(start, Clock::now()));
  };
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    timed_setup(scenarios, refs);
  }

  // The warm-up itself is checked against ground truth: the planted symptom
  // and a chain of the size the scenario is designed to produce (any
  // non-empty chain where the scenario does not pin one).
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const aitia::BugScenario& s = scenarios[i];
    const size_t want = static_cast<size_t>(s.truth.expected_chain_races);
    ++out.attempted;
    if (refs[i].failure != s.truth.failure_type ||
        (want == 0 ? refs[i].chain_races == 0 : refs[i].chain_races != want)) {
      out.Fail(s.id + ": warm-up diagnosis does not match ground truth");
    }
  }

  // Per-pass scenario orders, drawn from the seed.
  std::mt19937_64 rng(config.seed);
  std::vector<std::vector<size_t>> orders;
  const auto order_of = [&](int64_t pass) -> const std::vector<size_t>& {
    while (static_cast<int64_t>(orders.size()) <= pass) {
      std::vector<size_t> order(scenarios.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      orders.push_back(std::move(order));
    }
    return orders[static_cast<size_t>(pass)];
  };
  const int64_t block = static_cast<int64_t>(scenarios.size());
  const auto index_of = [&](int64_t op) { return order_of(op / block)[op % block]; };

  DiagTally tally;
  SpanRecorder spans;
  RunSerialLoop(
      config, block,
      [&](int64_t op) { return SerialOp{&scenarios[index_of(op)], &options}; },
      [&](int64_t op, const aitia::AitiaReport& report) -> std::string {
        const size_t i = index_of(op);
        const aitia::BugScenario& s = scenarios[i];
        if (!report.diagnosed || report.degraded || !report.status.ok()) {
          return s.id + ": not diagnosed cleanly";
        }
        if (!report.lifs.failure.has_value() || report.lifs.failure->type != refs[i].failure) {
          return s.id + ": failure type differs from ground truth";
        }
        if (report.causality.chain.Render(*s.image) != refs[i].chain) {
          return s.id + ": chain differs from the warm-up pass";
        }
        return "";
      },
      [&] {
        std::vector<aitia::BugScenario> s;
        std::vector<Reference> r;
        timed_setup(s, r);
      },
      out, tally, spans);

  if (config.trace && !config.trace_out.empty() && !spans.WriteChromeTrace(config.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.trace_out.c_str());
  }
  return out;
}

}  // namespace perfbench
