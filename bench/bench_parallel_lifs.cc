// LIFS + Causality Analysis timing sweep (DESIGN.md §9). The name predates
// the removal of the parallel search and of the static pre-filter; it is
// kept so archived BENCH_parallel_lifs.json artifacts still fold in
// bench_drift.
//
// Runs LIFS on the multi-interleaving corpus scenarios, follows each with a
// Causality Analysis pass, and writes the sweep to BENCH_parallel_lifs.json,
// one cell per scenario:
//
//   $ bench_parallel_lifs                              # defaults below
//   $ bench_parallel_lifs --repeat=9 --scenarios=CVE-2017-15649,syz-02 --out=sweep.json
//   $ bench_parallel_lifs --baseline=old_sweep.json    # regression check
//
// Each cell reports the minimum wall time over --repeat runs (minimum, not
// mean: scheduling noise only ever adds time). hardware_concurrency is
// recorded so runs from different hosts stay readable as such.
//
// --baseline=FILE compares this sweep against an archived one: schedule
// counts must match bit-exactly (hard failure — the search semantics
// changed), and a cell more than 20% slower is flagged on stderr (soft: CI
// hosts are noisy, so drift warns rather than fails). Of an older archive's
// cells only the one-thread, pre-filter-off cell compares: a cell without a
// "workers" field is a one-thread cell, one without "prefilter" is off.

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

struct Cell {
  double seconds = 0;
  // Causality Analysis pass over the same failing run: wall time and flips.
  double ca_seconds = 0;
  int64_t flips_executed = 0;
  // Per-phase split of the best rep's wall time (LifsResult's breakdown of
  // the discovery passes vs the depth-k frontier passes).
  double discovery_seconds = 0;
  double depth_seconds = 0;
  int64_t schedules = 0;
};

// One archived scenario from a --baseline file; seconds is 0 when it has no
// comparable cell.
struct BaselineScenario {
  int64_t schedules = 0;
  double seconds = 0;
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
        if (const svc::JsonValue* w = c.Find("workers"); w != nullptr && w->AsInt() != 1) {
          continue;  // a parallel-search cell from an older archive
        }
        if (const svc::JsonValue* pf = c.Find("prefilter"); pf != nullptr && pf->AsBool()) {
          continue;  // a pre-filter-on cell from an older archive
        }
        if (const svc::JsonValue* sec = c.Find("seconds"); sec != nullptr) {
          bs.seconds = sec->AsDouble();
          break;
        }
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
  std::vector<std::string> scenario_ids;
  int repeat = 5;
  std::string out_path = "BENCH_parallel_lifs.json";
  std::string baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scenarios=", 0) == 0) {
      scenario_ids = SplitCsv(arg.substr(12));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel_lifs [--scenarios=id,...] [--repeat=N]\n"
                   "                           [--out=FILE.json] [--baseline=OLD.json]\n");
      return 2;
    }
  }
  if (repeat < 1) {
    repeat = 1;
  }
  if (scenario_ids.empty()) {
    // Default to the bugs that need k >= 2: their frontiers are the widest,
    // so they dominate the search cost.
    for (const ScenarioEntry& e : AllScenarios()) {
      if (e.make().truth.expected_interleavings >= 2) {
        scenario_ids.push_back(e.id);
      }
    }
    // Plus syz-09, a one-interleaving bug whose Causality Analysis flips five
    // races, as many as any corpus bug.
    scenario_ids.push_back("syz-09");
  }

  std::vector<std::pair<std::string, BaselineScenario>> baseline;
  if (!baseline_path.empty() && !LoadBaseline(baseline_path, baseline)) {
    return 2;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== LIFS + CA sweep (hardware_concurrency=%u) ===\n\n", hw);

  std::string json = StrFormat("{\n  \"git_revision\": \"%s\",\n"
                               "  \"hardware_concurrency\": %u,\n  \"repeat\": %d,\n"
                               "  \"scenario_count\": %zu,\n"
                               "  \"scenarios\": [\n",
                               AITIA_GIT_REVISION, hw, repeat, scenario_ids.size());
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

    Cell cell;
    cell.seconds = -1;
    cell.ca_seconds = -1;
    for (int rep = 0; rep < repeat; ++rep) {
      LifsOptions options;
      options.target_type = s.truth.failure_type;
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

      CausalityAnalysis ca(s.image.get(), s.slice, s.setup, &r, CausalityOptions{});
      Stopwatch ca_watch;
      CausalityResult cr = ca.Run();
      const double ca_elapsed = ca_watch.ElapsedSeconds();
      if (cell.ca_seconds < 0 || ca_elapsed < cell.ca_seconds) {
        cell.ca_seconds = ca_elapsed;
      }
      cell.flips_executed = cr.schedules_executed;
    }

    std::printf("%-18s %8.3fms  flips=%lld\n", id.c_str(), cell.seconds * 1e3,
                static_cast<long long>(cell.flips_executed));

    // Regression check against the archived sweep: bit-equal schedule counts
    // (semantics), flagged wall-clock drift (performance).
    for (const auto& [bid, bs] : baseline) {
      if (bid != id) {
        continue;
      }
      if (bs.schedules != cell.schedules) {
        std::fprintf(stderr,
                     "bench_parallel_lifs: %s schedule count changed vs baseline "
                     "(%lld -> %lld)\n",
                     id.c_str(), static_cast<long long>(bs.schedules),
                     static_cast<long long>(cell.schedules));
        baseline_schedules_match = false;
      }
      if (bs.seconds > 0 && cell.seconds > bs.seconds * 1.2) {
        std::fprintf(stderr, "bench_parallel_lifs: DRIFT %s %.3fms -> %.3fms (+%.0f%%)\n",
                     id.c_str(), bs.seconds * 1e3, cell.seconds * 1e3,
                     (cell.seconds / bs.seconds - 1.0) * 100.0);
        ++drift_flags;
      }
    }

    json += StrFormat(
        "    {\"id\": \"%s\", \"schedules\": %lld, \"sweep\": [{\"seconds\": %.6f, "
        "\"phases\": {\"discovery_seconds\": %.6f, \"depth_seconds\": %.6f}, "
        "\"ca_seconds\": %.6f, \"flips\": {\"executed\": %lld}}]}%s\n",
        id.c_str(), static_cast<long long>(cell.schedules), cell.seconds,
        cell.discovery_seconds, cell.depth_seconds, cell.ca_seconds,
        static_cast<long long>(cell.flips_executed), si + 1 == scenario_ids.size() ? "" : ",");
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
  if (!baseline_schedules_match) {
    return 1;
  }
  return 0;
}
