// aitia_sweep — the generated-corpus correctness sweep (DESIGN.md §14.4).
//
// Drives fuzz → LIFS → Causality Analysis over a seed-deterministic
// generated corpus (src/gen) with per-template pass/fail accounting, and
// asserts the property-based invariants the curated differential tests pin,
// at three orders of magnitude more scenarios:
//
//   * no fabricated failures: benign-template scenarios never reproduce or
//     diagnose, under LIFS or under the fuzzer;
//   * planted root cause diagnosed: buggy scenarios reproduce the planted
//     symptom type and their causality chain touches the planted trigger
//     state, never a salted benign global, never anything outside the
//     scenario's racing address ranges;
//   * serializer round-trip: every scenario re-parses and re-serializes
//     byte-identically;
//   * triage purity (differential stride): re-diagnosing with the
//     pre-filter off yields bit-identical semantics;
//   * accounting: schedules_executed + flips_skipped == tested races.
//
// Output is a deterministic JSON summary (stdout and/or --json=FILE): equal
// seeds produce byte-identical reports, so CI can diff reruns. Wall-clock
// goes to stderr only.
//
//   $ aitia_sweep --count=1000 --seed=9
//   $ aitia_sweep --count=50 --seed=7 --templates=abba,benign --json=out.json
//
// Exit codes: 0 all invariants hold and the root-cause hit rate is >= 95%,
// 1 violations (details in the JSON), 2 usage/input error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/bugs/diagnose.h"
#include "src/core/aitia.h"
#include "src/fuzz/fuzzer.h"
#include "src/gen/generator.h"
#include "src/ingest/ingest.h"
#include "src/ingest/serialize.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace {

using namespace aitia;

constexpr int kExitOk = 0;
constexpr int kExitViolations = 1;
constexpr int kExitUsage = 2;

// Every Nth scenario gets the expensive extra passes.
constexpr int kDifferentialStride = 10;
constexpr int kFuzzStride = 10;
constexpr int kFuzzAttempts = 500;
// Fuzz attempts granted to benign scenarios when proving the *absence* of a
// failure (kept smaller: every attempt must come up clean).
constexpr int kBenignFuzzAttempts = 120;

// Deterministic search budget applied to every diagnosis in the sweep. The
// template contract guarantees each planted failure is reachable within 2
// preemptions, so the caps never mask a planted bug; they bound the cost of
// the searches that (correctly) find nothing — benign scenarios and
// non-reproducing slice candidates — which would otherwise walk the full
// default frontier. Budgets are schedule counts, not wall-clock, so equal
// seeds still give byte-identical output.
AitiaOptions SweepOptions() {
  AitiaOptions options;
  options.lifs.max_interleavings = 2;
  options.lifs.max_schedules = 2500;
  options.max_slices = 8;
  return options;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : text) {
    if (ch == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  out.push_back(cur);
  return out;
}

int Usage(FILE* to) {
  std::fprintf(to,
               "usage: aitia_sweep [--count=N] [--seed=S] [--templates=a,b,..]\n"
               "                   [--jobs=N] [--json=FILE]\n"
               "\n"
               "  --count=N       scenarios to generate and diagnose (default 1000)\n"
               "  --seed=S        sweep seed; equal seeds give byte-identical JSON\n"
               "                  (default 9)\n"
               "  --templates=..  comma-separated template subset (default: all of\n"
               "                  order,atomicity,rcu,workqueue,refcount,abba,benign)\n"
               "  --jobs=N        scenario-level parallelism (0 = hardware, default)\n"
               "  --json=FILE     also write the JSON summary to FILE\n"
               "\n"
               "exit codes: 0 all invariants hold, 1 violations, 2 usage error\n");
  return to == stdout ? kExitOk : kExitUsage;
}

// Semantically observable diagnosis state, comparable across pipeline
// configurations (mirrors tests/prefilter_differential_test.cc).
std::string Semantics(const BugScenario& s, const AitiaReport& r) {
  std::string out;
  out += "diagnosed=" + std::to_string(r.diagnosed);
  out += " degraded=" + std::to_string(r.degraded);
  out += "\nchain:\n" + r.causality.chain.Render(*s.image);
  out += "roots:";
  for (size_t i : r.causality.root_cause_indices) {
    out += " " + std::to_string(i);
  }
  out += "\n";
  for (const TestedRace& t : r.causality.tested) {
    out += RaceLabel(*s.image, t.race);
    out += " verdict=" + std::string(RaceVerdictName(t.verdict));
    out += " phantom=" + std::to_string(t.phantom);
    out += " cs=" + std::to_string(t.race.cs_pair);
    out += " took_effect=" + std::to_string(t.flip_took_effect);
    out += " still_failed=" + std::to_string(t.flip_still_failed);
    out += "\n";
  }
  return out;
}

// Outcome of one generated scenario.
struct ScenarioResult {
  gen::GenTemplate tmpl = gen::GenTemplate::kOrder;
  bool diagnosed = false;
  bool degraded = false;
  bool root_cause_hit = false;  // buggy only: chain touches the trigger
  bool fuzzed = false;
  bool fuzz_found = false;
  int64_t flips_skipped = 0;
  // Invariant violations (empty = clean). Each entry names the scenario and
  // the broken property.
  std::vector<std::string> violations;
};

void AddViolation(ScenarioResult& r, const std::string& id, const char* what) {
  r.violations.push_back(id + ": " + what);
}

// Address ranges of the planted trigger global (racing_globals[0]) alone —
// the root-cause hit criterion. For kAbba this is the racy `registered`
// handshake, excluding the lock-guarded state that is legitimately racy but
// not the planted cause.
std::vector<std::pair<Addr, Addr>> TriggerRanges(const BugScenario& scenario) {
  if (scenario.truth.racing_globals.empty()) return {};
  BugScenario probe = scenario;
  probe.truth.racing_globals = {scenario.truth.racing_globals.front()};
  return RacingAddressRanges(probe);
}

void CheckBuggy(const gen::GeneratedScenario& g, const AitiaReport& report,
                ScenarioResult& out) {
  const BugScenario& s = g.scenario;
  out.diagnosed = report.diagnosed;
  out.degraded = report.degraded;
  out.flips_skipped = report.causality.flips_skipped;
  if (!report.diagnosed) {
    return;  // a miss (counts against the hit rate), not a violation
  }
  if (!report.lifs.failure.has_value() ||
      report.lifs.failure->type != s.truth.failure_type) {
    AddViolation(out, s.id, "reproduced failure type != planted symptom");
    return;
  }
  if (report.causality.schedules_executed + report.causality.flips_skipped !=
      static_cast<int64_t>(report.causality.tested.size())) {
    AddViolation(out, s.id, "schedules_executed + flips_skipped != tested races");
  }
  const auto ranges = RacingAddressRanges(s);
  const auto trigger = TriggerRanges(s);
  // Benign salted globals occupy one cell each.
  std::vector<Addr> benign_addrs;
  for (const std::string& name : g.benign_globals) {
    const Addr addr = s.image->FindGlobal(name);
    if (addr != 0) benign_addrs.push_back(addr);
  }
  bool trigger_hit = false;
  for (const ChainNode& node : report.causality.chain.nodes()) {
    for (const RacePair& race : node.races) {
      const Addr a = race.first.addr;
      const Addr b = race.second.addr;
      if (!InRanges(ranges, a) && !InRanges(ranges, b)) {
        AddViolation(out, s.id, "chain race outside the planted racing state");
      }
      if (InRanges(trigger, a) || InRanges(trigger, b)) {
        trigger_hit = true;
      }
      for (Addr benign : benign_addrs) {
        if (a == benign || b == benign) {
          AddViolation(out, s.id, "salted benign race appeared in the chain");
        }
      }
    }
  }
  out.root_cause_hit = trigger_hit && report.causality.chain.race_count() > 0;
}

void CheckBenign(const gen::GeneratedScenario& g, const AitiaReport& report,
                 ScenarioResult& out) {
  const BugScenario& s = g.scenario;
  out.diagnosed = report.diagnosed;
  if (report.lifs.reproduced || report.diagnosed) {
    AddViolation(out, s.id, "fabricated failure: benign scenario reproduced");
  }
  // The fuzzer must also come up clean: every attempt is a random
  // interleaving of a scenario with no failing interleaving.
  FuzzOptions fuzz;
  fuzz.max_attempts = kBenignFuzzAttempts;
  const FuzzOutcome outcome = FuzzUntilFailure(s.MakeWorkload(), fuzz);
  out.fuzzed = true;
  out.fuzz_found = outcome.found;
  if (outcome.found) {
    AddViolation(out, s.id, "fabricated failure: benign scenario failed under fuzzing");
  }
}

ScenarioResult RunOne(const gen::GenOptions& options, int index) {
  ScenarioResult out;
  out.tmpl = options.tmpl;
  const gen::GeneratedScenario g = gen::GenerateScenario(options);
  const BugScenario& s = g.scenario;

  // Serializer round-trip: emit -> reparse -> emit must be byte-identical.
  const std::string ait = ScenarioToAit(s);
  StatusOr<BugScenario> reparsed = ScenarioFromAitText(ait, s.id + ".ait");
  if (!reparsed.ok()) {
    AddViolation(out, s.id, "generated scenario failed to re-parse");
    return out;
  }
  if (ScenarioToAit(*reparsed) != ait) {
    AddViolation(out, s.id, "serializer round-trip not byte-identical");
    return out;
  }

  // Diagnose the *reparsed* scenario: the sweep exercises exactly what a
  // .ait file on disk would, not generator-internal state.
  AitiaReport report = DiagnoseScenario(*reparsed, SweepOptions());
  if (g.expect_failure) {
    CheckBuggy(g, report, out);
  } else {
    CheckBenign(g, report, out);
    return out;
  }

  if (index % kDifferentialStride == 0) {
    // Differential pass: the pre-filter off must not change semantics
    // (purity of triage).
    AitiaOptions alt = SweepOptions();
    alt.set_prefilter(false);
    AitiaReport other = DiagnoseScenario(*reparsed, alt);
    if (Semantics(*reparsed, other) != Semantics(*reparsed, report)) {
      AddViolation(out, s.id, "differential mismatch (prefilter off)");
    }
  }
  if (index % kFuzzStride == 0) {
    // Front-end pass: the random-preemption fuzzer should stumble onto the
    // planted bug, and the history-driven pipeline should diagnose it.
    FuzzOptions fuzz;
    fuzz.max_attempts = kFuzzAttempts;
    fuzz.first_seed = options.seed;
    const FuzzOutcome outcome = FuzzUntilFailure(s.MakeWorkload(), fuzz);
    out.fuzzed = true;
    out.fuzz_found = outcome.found;
    if (outcome.found) {
      // The planted bug may manifest as a different (still genuine) symptom
      // under random scheduling — e.g. the refcount race surfacing as a
      // use-after-free read when the getter loses by a wider margin. The
      // invariant is that whatever the fuzzer reported, the history-driven
      // pipeline reproduces and diagnoses it.
      AitiaReport from_history =
          DiagnoseHistory(*s.image, outcome.history, SweepOptions());
      if (!from_history.diagnosed) {
        AddViolation(out, s.id, "fuzz-found failure not diagnosed from history");
      }
    }
    // Not finding the bug within the attempt budget is fuzz-elusiveness,
    // not a correctness violation: LIFS exists precisely because random
    // search misses narrow windows.
  }
  return out;
}

struct TemplateStats {
  int generated = 0;
  int diagnosed = 0;
  int degraded = 0;
  int root_cause_hits = 0;
  int fuzzed = 0;
  int fuzz_found = 0;
  int64_t flips_skipped = 0;
  int violations = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int count = 1000;
  uint64_t seed = 9;
  size_t jobs = 0;
  std::string json_path;
  std::vector<gen::GenTemplate> templates;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--count=", 0) == 0) {
      count = std::atoi(arg.c_str() + 8);
      if (count <= 0) {
        std::fprintf(stderr, "aitia_sweep: --count must be positive\n");
        return kExitUsage;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = static_cast<size_t>(std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--templates=", 0) == 0) {
      for (const std::string& name : SplitCommas(arg.substr(12))) {
        gen::GenTemplate t;
        if (!gen::ParseGenTemplate(name, &t)) {
          std::fprintf(stderr, "aitia_sweep: unknown template '%s'\n", name.c_str());
          return kExitUsage;
        }
        templates.push_back(t);
      }
    } else if (arg == "--help" || arg == "-h") {
      return Usage(stdout);
    } else {
      std::fprintf(stderr, "aitia_sweep: unknown argument '%s'\n", arg.c_str());
      return Usage(stderr);
    }
  }

  const std::vector<gen::GenOptions> plan = gen::CorpusPlan(count, seed, templates);
  std::vector<ScenarioResult> results(plan.size());

  Stopwatch watch;
  {
    ThreadPool pool(jobs);
    for (size_t i = 0; i < plan.size(); ++i) {
      pool.Submit([&plan, &results, i] {
        results[i] = RunOne(plan[i], static_cast<int>(i));
      });
    }
    pool.Wait();
  }
  std::fprintf(stderr, "aitia_sweep: %d scenario(s) in %.1fs\n", count,
               watch.ElapsedSeconds());

  // Aggregate per template, in the canonical template order (deterministic
  // JSON regardless of worker scheduling).
  const std::vector<gen::GenTemplate>& order =
      templates.empty() ? gen::AllGenTemplates() : templates;
  std::vector<TemplateStats> stats(order.size());
  std::vector<std::string> violations;
  int buggy_total = 0;
  int buggy_hits = 0;
  for (const ScenarioResult& r : results) {
    size_t slot = 0;
    for (size_t t = 0; t < order.size(); ++t) {
      if (order[t] == r.tmpl) slot = t;
    }
    TemplateStats& ts = stats[slot];
    ++ts.generated;
    ts.diagnosed += r.diagnosed ? 1 : 0;
    ts.degraded += r.degraded ? 1 : 0;
    ts.root_cause_hits += r.root_cause_hit ? 1 : 0;
    ts.fuzzed += r.fuzzed ? 1 : 0;
    ts.fuzz_found += r.fuzz_found ? 1 : 0;
    ts.flips_skipped += r.flips_skipped;
    ts.violations += static_cast<int>(r.violations.size());
    if (r.tmpl != gen::GenTemplate::kBenign) {
      ++buggy_total;
      buggy_hits += r.root_cause_hit ? 1 : 0;
    }
    for (const std::string& v : r.violations) {
      violations.push_back(v);
    }
  }
  const double hit_rate = buggy_total == 0 ? 1.0 : double(buggy_hits) / buggy_total;
  const bool ok = violations.empty() && hit_rate >= 0.95;

  std::string json = "{\n";
  json += StrFormat("  \"count\": %d,\n  \"seed\": %llu,\n", count,
                    static_cast<unsigned long long>(seed));
  json += StrFormat("  \"root_cause_hit_rate\": %.4f,\n", hit_rate);
  json += StrFormat("  \"violation_count\": %d,\n", static_cast<int>(violations.size()));
  json += "  \"templates\": {\n";
  for (size_t t = 0; t < order.size(); ++t) {
    const TemplateStats& ts = stats[t];
    json += StrFormat(
        "    \"%s\": {\"generated\": %d, \"diagnosed\": %d, \"degraded\": %d, "
        "\"root_cause_hits\": %d, \"fuzzed\": %d, \"fuzz_found\": %d, "
        "\"flips_skipped\": %lld, \"violations\": %d}%s\n",
        gen::GenTemplateName(order[t]), ts.generated, ts.diagnosed, ts.degraded,
        ts.root_cause_hits, ts.fuzzed, ts.fuzz_found,
        static_cast<long long>(ts.flips_skipped), ts.violations,
        t + 1 < order.size() ? "," : "");
  }
  json += "  },\n";
  json += "  \"violations\": [\n";
  const size_t kMaxListed = 50;
  for (size_t i = 0; i < violations.size() && i < kMaxListed; ++i) {
    std::string escaped;
    for (char ch : violations[i]) {
      if (ch == '"' || ch == '\\') escaped += '\\';
      escaped += ch;
    }
    json += "    \"" + escaped + "\"";
    json += (i + 1 < std::min(violations.size(), kMaxListed)) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += StrFormat("  \"ok\": %s\n}\n", ok ? "true" : "false");

  std::fputs(json.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << json;
    if (!out) {
      std::fprintf(stderr, "aitia_sweep: cannot write %s\n", json_path.c_str());
      return kExitUsage;
    }
  }
  return ok ? kExitOk : kExitViolations;
}
