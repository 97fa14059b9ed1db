// Parallel LIFS frontier exploration — worker-count × triage-pre-filter
// sweep (DESIGN.md §9, §13).
//
// Runs LIFS on the multi-interleaving corpus scenarios at several worker
// counts, follows each with a Causality Analysis pass with the static triage
// pre-filter off and on, verifies that every cell is identical to the serial
// prefilter-off one (the §9/§13 determinism contract), and writes the sweep
// to BENCH_parallel_lifs.json:
//
//   $ bench_parallel_lifs                              # defaults below
//   $ bench_parallel_lifs --workers=1,2,4 --repeat=9 \
//         --scenarios=CVE-2017-15649,syz-02 --out=sweep.json
//   $ bench_parallel_lifs --baseline=old_sweep.json    # regression check
//
// Per (scenario, workers, prefilter) cell the minimum wall time over --repeat
// runs is reported (minimum, not mean: scheduling noise only ever adds time).
// Speedups are relative to the measured workers=1 cell of the same binary;
// hardware_concurrency is recorded so single-CPU CI hosts are readable as
// such.
//
// --baseline=FILE compares this sweep against an archived one: schedule
// counts must match bit-exactly (hard failure — the search semantics
// changed), and any matched cell more than 20% slower is flagged on stderr
// (soft: CI hosts are noisy, so drift warns rather than fails).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/bugs/registry.h"
#include "src/core/causality.h"
#include "src/core/lifs.h"
#include "src/svc/jsonv.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace {

using namespace aitia;

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    if (comma > start) {
      out.push_back(text.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return out;
}

// The fields the serial/parallel contract pins down, flattened for
// equality. budget.steps stays out: parallel batches legitimately overshoot.
std::string ResultKey(const LifsResult& r) {
  return StrFormat("reproduced=%d k=%d executed=%lld pruned=%lld schedule=%s", r.reproduced ? 1 : 0,
                   r.interleaving_count, static_cast<long long>(r.schedules_executed),
                   static_cast<long long>(r.schedules_pruned),
                   r.failing_schedule.ToString().c_str());
}

// Causality-side identity: the verdict sequence and root-cause set must be
// bit-equal in every cell, whatever the pre-filter skipped.
std::string CaKey(const CausalityResult& r) {
  std::string key = "verdicts=";
  for (const TestedRace& t : r.tested) {
    key += RaceVerdictName(t.verdict);
    key += ";";
  }
  key += " roots=";
  for (size_t i : r.root_cause_indices) {
    key += StrFormat("%zu,", i);
  }
  return key;
}

struct Cell {
  size_t workers = 0;
  bool prefilter = false;
  double seconds = 0;
  // Causality Analysis pass over the same failing run: wall time and the
  // dynamic-vs-static flip split (flips_skipped is 0 with the pre-filter
  // off; with it on, every skip is a supervised re-execution not paid).
  double ca_seconds = 0;
  int64_t flips_executed = 0;
  int64_t flips_skipped = 0;
  // Per-phase split of the best rep's wall time (LifsResult's breakdown of
  // the discovery passes vs the depth-k frontier passes).
  double discovery_seconds = 0;
  double depth_seconds = 0;
  int64_t schedules = 0;
  int64_t speculative = 0;
  bool identical = false;
};

// One archived cell from a --baseline file.
struct BaselineCell {
  size_t workers = 0;
  bool prefilter = false;
  double seconds = 0;
};

struct BaselineScenario {
  int64_t schedules = 0;
  std::vector<BaselineCell> cells;
};

bool LoadBaseline(const std::string& path,
                  std::vector<std::pair<std::string, BaselineScenario>>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_parallel_lifs: cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = svc::ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_parallel_lifs: baseline %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  const svc::JsonValue doc = std::move(parsed).value();
  const svc::JsonValue* scenarios = doc.Find("scenarios");
  if (scenarios == nullptr || scenarios->kind() != svc::JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_parallel_lifs: baseline %s has no scenarios array\n",
                 path.c_str());
    return false;
  }
  for (const svc::JsonValue& s : scenarios->items()) {
    const svc::JsonValue* id = s.Find("id");
    if (id == nullptr || !id->is_string()) {
      continue;
    }
    BaselineScenario bs;
    if (const svc::JsonValue* n = s.Find("schedules"); n != nullptr) {
      bs.schedules = n->AsInt();
    }
    if (const svc::JsonValue* sweep = s.Find("sweep");
        sweep != nullptr && sweep->kind() == svc::JsonValue::Kind::kArray) {
      for (const svc::JsonValue& c : sweep->items()) {
        BaselineCell cell;
        if (const svc::JsonValue* w = c.Find("workers"); w != nullptr) {
          cell.workers = static_cast<size_t>(w->AsInt());
        }
        // Pre-prefilter baselines have no "prefilter" field; treat them as
        // the prefilter-off cells they were.
        if (const svc::JsonValue* pf = c.Find("prefilter"); pf != nullptr) {
          cell.prefilter = pf->AsBool();
        }
        if (const svc::JsonValue* sec = c.Find("seconds"); sec != nullptr) {
          cell.seconds = sec->AsDouble();
        }
        bs.cells.push_back(cell);
      }
    }
    out.emplace_back(id->AsString(), std::move(bs));
  }
  return true;
}

#ifndef AITIA_GIT_REVISION
#define AITIA_GIT_REVISION "unknown"
#endif

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> workers = {1, 2, 4, 8};
  std::vector<std::string> scenario_ids;
  int repeat = 5;
  std::string out_path = "BENCH_parallel_lifs.json";
  std::string baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      workers.clear();
      for (const std::string& w : SplitCsv(arg.substr(10))) {
        workers.push_back(static_cast<size_t>(std::strtoull(w.c_str(), nullptr, 10)));
      }
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      scenario_ids = SplitCsv(arg.substr(12));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel_lifs [--workers=1,2,4,8] [--scenarios=id,...]\n"
                   "                           [--repeat=N] [--out=FILE.json]\n"
                   "                           [--baseline=OLD.json]\n");
      return 2;
    }
  }
  if (repeat < 1) {
    repeat = 1;
  }
  if (scenario_ids.empty()) {
    // Default to the bugs that need k >= 2: their frontiers are the widest,
    // so they are where parallel exploration can help.
    for (const ScenarioEntry& e : AllScenarios()) {
      if (e.make().truth.expected_interleavings >= 2) {
        scenario_ids.push_back(e.id);
      }
    }
    // Plus the scenario with statically dischargeable flips, so the sweep
    // exercises the prefilter dimension's skip accounting end to end.
    scenario_ids.push_back("syz-09");
  }

  std::vector<std::pair<std::string, BaselineScenario>> baseline;
  if (!baseline_path.empty() && !LoadBaseline(baseline_path, baseline)) {
    return 2;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== Parallel LIFS sweep (hardware_concurrency=%u) ===\n\n", hw);

  std::string json = StrFormat("{\n  \"git_revision\": \"%s\",\n"
                               "  \"hardware_concurrency\": %u,\n  \"repeat\": %d,\n"
                               "  \"scenario_count\": %zu,\n"
                               "  \"scenarios\": [\n",
                               AITIA_GIT_REVISION, hw, repeat, scenario_ids.size());
  bool all_identical = true;
  bool baseline_schedules_match = true;
  int drift_flags = 0;
  for (size_t si = 0; si < scenario_ids.size(); ++si) {
    const std::string& id = scenario_ids[si];
    const ScenarioEntry* entry = FindScenario(id);
    if (entry == nullptr) {
      std::fprintf(stderr, "bench_parallel_lifs: unknown scenario '%s'\n", id.c_str());
      return 2;
    }
    BugScenario s = entry->make();

    std::vector<Cell> cells;
    std::string serial_key;
    double serial_seconds = 0;
    for (size_t w : workers) {
      for (const bool prefilter : {false, true}) {
        Cell cell;
        cell.workers = w;
        cell.prefilter = prefilter;
        cell.seconds = -1;
        cell.ca_seconds = -1;
        for (int rep = 0; rep < repeat; ++rep) {
          LifsOptions options;
          options.target_type = s.truth.failure_type;
          options.workers = w;
          Lifs lifs(s.image.get(), s.slice, s.setup, options);
          Stopwatch watch;
          LifsResult r = lifs.Run();
          const double elapsed = watch.ElapsedSeconds();
          if (cell.seconds < 0 || elapsed < cell.seconds) {
            cell.seconds = elapsed;
            cell.discovery_seconds = r.discovery_seconds;
            cell.depth_seconds = r.depth_seconds;
          }
          cell.schedules = r.schedules_executed;
          cell.speculative = r.speculative_runs;

          CausalityOptions co;
          co.workers = w;
          if (!prefilter) {
            co.stages.clear();
          }
          CausalityAnalysis ca(s.image.get(), s.slice, s.setup, &r, co);
          Stopwatch ca_watch;
          CausalityResult cr = ca.Run();
          const double ca_elapsed = ca_watch.ElapsedSeconds();
          if (cell.ca_seconds < 0 || ca_elapsed < cell.ca_seconds) {
            cell.ca_seconds = ca_elapsed;
          }
          cell.flips_executed = cr.schedules_executed;
          cell.flips_skipped = cr.flips_skipped;

          const std::string key = ResultKey(r) + " " + CaKey(cr);
          if (w == workers.front() && !prefilter && rep == 0) {
            serial_key = key;
          }
          cell.identical = key == serial_key;
          all_identical = all_identical && cell.identical;
        }
        if (w == workers.front() && !prefilter) {
          serial_seconds = cell.seconds;
        }
        cells.push_back(cell);
      }
    }

    std::printf("%-18s\n", id.c_str());
    for (const Cell& c : cells) {
      std::printf("  w=%zu prefilter=%-3s %8.3fms (x%.2f)  flips=%lld skipped=%lld%s\n",
                  c.workers, c.prefilter ? "on" : "off", c.seconds * 1e3,
                  c.seconds > 0 ? serial_seconds / c.seconds : 0.0,
                  static_cast<long long>(c.flips_executed),
                  static_cast<long long>(c.flips_skipped), c.identical ? "" : "  DIFF!");
    }

    // Regression check against the archived sweep: bit-equal schedule counts
    // (semantics), flagged wall-clock drift (performance).
    for (const auto& [bid, bs] : baseline) {
      if (bid != id) {
        continue;
      }
      if (bs.schedules != cells.front().schedules) {
        std::fprintf(stderr,
                     "bench_parallel_lifs: %s schedule count changed vs baseline "
                     "(%lld -> %lld)\n",
                     id.c_str(), static_cast<long long>(bs.schedules),
                     static_cast<long long>(cells.front().schedules));
        baseline_schedules_match = false;
      }
      for (const BaselineCell& bc : bs.cells) {
        for (const Cell& c : cells) {
          if (c.workers == bc.workers && c.prefilter == bc.prefilter && bc.seconds > 0 &&
              c.seconds > bc.seconds * 1.2) {
            std::fprintf(stderr,
                         "bench_parallel_lifs: DRIFT %s w=%zu prefilter=%s %.3fms -> %.3fms "
                         "(+%.0f%%)\n",
                         id.c_str(), c.workers, c.prefilter ? "on" : "off", bc.seconds * 1e3,
                         c.seconds * 1e3, (c.seconds / bc.seconds - 1.0) * 100.0);
            ++drift_flags;
          }
        }
      }
    }

    json += StrFormat("    {\"id\": \"%s\", \"schedules\": %lld, \"sweep\": [", id.c_str(),
                      static_cast<long long>(cells.front().schedules));
    for (size_t ci = 0; ci < cells.size(); ++ci) {
      const Cell& c = cells[ci];
      json += StrFormat("%s{\"workers\": %zu, \"prefilter\": %s, "
                        "\"seconds\": %.6f, "
                        "\"speedup\": %.3f, "
                        "\"phases\": {\"discovery_seconds\": %.6f, \"depth_seconds\": %.6f}, "
                        "\"speculative_runs\": %lld, "
                        "\"ca_seconds\": %.6f, "
                        "\"flips\": {\"executed\": %lld, \"skipped\": %lld}, "
                        "\"identical_to_serial\": %s}",
                        ci == 0 ? "" : ", ", c.workers, c.prefilter ? "true" : "false",
                        c.seconds, c.seconds > 0 ? serial_seconds / c.seconds : 0.0,
                        c.discovery_seconds, c.depth_seconds,
                        static_cast<long long>(c.speculative), c.ca_seconds,
                        static_cast<long long>(c.flips_executed),
                        static_cast<long long>(c.flips_skipped),
                        c.identical ? "true" : "false");
    }
    json += StrFormat("]}%s\n", si + 1 == scenario_ids.size() ? "" : ",");
  }
  json += "  ]\n}\n";

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_parallel_lifs: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (drift_flags > 0) {
    std::fprintf(stderr, "bench_parallel_lifs: %d cell(s) drifted >20%% vs baseline (soft)\n",
                 drift_flags);
  }
  if (!all_identical) {
    std::fprintf(stderr, "bench_parallel_lifs: RESULT DIVERGED FROM SERIAL RUN\n");
    return 1;
  }
  if (!baseline_schedules_match) {
    return 1;
  }
  return 0;
}
