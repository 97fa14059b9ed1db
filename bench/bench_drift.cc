// bench_drift — cross-revision drift tracker for the LIFS + CA sweep.
//
// Folds a set of archived BENCH_parallel_lifs.json artifacts (one per
// revision, produced by `bench_parallel_lifs --json`) into a per-revision
// time series and fails when the series drifts:
//
//   * schedule-count change — a scenario's `schedules` differs between two
//     consecutive revisions. The explored-schedule set is deterministic, so
//     any change means the diagnosis pipeline's behaviour changed, not just
//     its speed. Always an error.
//   * sustained wall-clock regression — a sweep cell (scenario × workers ×
//     replay × prefilter) runs more than --threshold percent (default 20)
//     slower than its baseline (the first revision that recorded the cell)
//     for --sustain consecutive revisions (default 2). One slow revision is
//     treated as machine noise; two in a row is drift. Only archives from
//     before the checkpoint engine's removal carry a "replay" field, and
//     only archives from before the parallel search's removal carry a
//     "workers" field; a cell without them keys as replay-off and one
//     worker, so that history lines up.
//   * identical_to_serial false anywhere — a sweep cell diverged from its
//     reference cell at archive time. Always an error.
//
// Artifacts are folded in lexicographic *filename* order, so archives named
// 0001-<rev>.json, 0002-<rev>.json, ... replay history correctly; scenarios
// or cells that appear or disappear between revisions are reported but are
// not errors (the corpus grows).
//
//   $ bench_drift ci-archive/           # every *.json in the directory
//   $ bench_drift a.json b.json c.json  # explicit files (same filename sort)
//
// Exit codes: 0 no drift, 1 drift detected, 2 input/usage error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/svc/jsonv.h"

namespace {

using aitia::svc::JsonValue;
using aitia::svc::ParseJson;

struct Cell {
  double seconds = 0;
  bool identical = true;
};

struct Scenario {
  long long schedules = 0;
  // "w4 replay+prefilter" -> timing; the key is stable across revisions.
  std::map<std::string, Cell> cells;
};

struct Artifact {
  std::string file;      // basename, the sort key
  std::string revision;  // git_revision recorded at archive time
  std::map<std::string, Scenario> scenarios;
};

std::string CellKey(long long workers, bool replay, bool prefilter) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "w%lld %sreplay %sprefilter", workers, replay ? "+" : "-",
                prefilter ? "+" : "-");
  return buf;
}

bool LoadArtifact(const std::string& path, Artifact* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_drift: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  auto parsed = ParseJson(text, 32);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_drift: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue& doc = *parsed;
  if (!doc.is_object()) {
    std::fprintf(stderr, "bench_drift: %s: not a JSON object\n", path.c_str());
    return false;
  }
  out->file = std::filesystem::path(path).filename().string();
  if (const JsonValue* rev = doc.Find("git_revision"); rev != nullptr && rev->is_string()) {
    out->revision = rev->AsString();
  } else {
    out->revision = "unknown";
  }
  const JsonValue* scenarios = doc.Find("scenarios");
  if (scenarios == nullptr || scenarios->kind() != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_drift: %s: missing \"scenarios\" array\n", path.c_str());
    return false;
  }
  for (const JsonValue& s : scenarios->items()) {
    const JsonValue* id = s.Find("id");
    const JsonValue* schedules = s.Find("schedules");
    const JsonValue* sweep = s.Find("sweep");
    if (id == nullptr || !id->is_string() || schedules == nullptr || sweep == nullptr ||
        sweep->kind() != JsonValue::Kind::kArray) {
      std::fprintf(stderr, "bench_drift: %s: malformed scenario entry\n", path.c_str());
      return false;
    }
    Scenario& sc = out->scenarios[id->AsString()];
    sc.schedules = schedules->AsInt();
    for (const JsonValue& c : sweep->items()) {
      const JsonValue* seconds = c.Find("seconds");
      if (seconds == nullptr) {
        continue;  // tolerate older artifacts with fewer fields
      }
      Cell cell;
      cell.seconds = seconds->AsDouble();
      if (const JsonValue* ident = c.Find("identical_to_serial"); ident != nullptr) {
        cell.identical = ident->AsBool(true);
      }
      const JsonValue* workers = c.Find("workers");
      const JsonValue* replay = c.Find("replay");
      const JsonValue* prefilter = c.Find("prefilter");
      sc.cells[CellKey(workers != nullptr ? workers->AsInt() : 1,
                       replay != nullptr && replay->AsBool(),
                       prefilter != nullptr && prefilter->AsBool())] = cell;
    }
  }
  return true;
}

int Usage(FILE* to) {
  std::fprintf(to,
               "usage: bench_drift [--threshold PCT] [--sustain N]\n"
               "                   <artifact.json ... | directory>\n"
               "\n"
               "  --threshold PCT  wall-clock regression tolerance vs the cell's\n"
               "                   baseline revision (default 20)\n"
               "  --sustain N      consecutive over-threshold revisions before a\n"
               "                   regression counts as drift (default 2)\n"
               "\n"
               "exit codes: 0 no drift, 1 drift detected, 2 input error\n");
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold_pct = 20.0;
  int sustain = 2;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_drift: --threshold needs a value\n");
        return Usage(stderr);
      }
      threshold_pct = std::atof(argv[++i]);
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold_pct = std::atof(arg.c_str() + 12);
    } else if (arg == "--sustain") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_drift: --sustain needs a value\n");
        return Usage(stderr);
      }
      sustain = std::atoi(argv[++i]);
    } else if (arg.rfind("--sustain=", 0) == 0) {
      sustain = std::atoi(arg.c_str() + 10);
    } else if (arg == "--help" || arg == "-h") {
      return Usage(stdout);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_drift: unknown flag '%s'\n", arg.c_str());
      return Usage(stderr);
    } else {
      inputs.push_back(arg);
    }
  }
  if (threshold_pct <= 0 || sustain < 1) {
    std::fprintf(stderr, "bench_drift: --threshold must be > 0 and --sustain >= 1\n");
    return 2;
  }
  if (inputs.empty()) {
    return Usage(stderr);
  }

  // A single directory argument expands to its *.json entries.
  std::vector<std::string> files;
  std::error_code ec;
  if (inputs.size() == 1 && std::filesystem::is_directory(inputs[0], ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(inputs[0], ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "bench_drift: cannot list %s: %s\n", inputs[0].c_str(),
                   ec.message().c_str());
      return 2;
    }
  } else {
    files = inputs;
  }
  // Lexicographic basename order defines the revision series regardless of
  // how the shell globbed or the caller listed the files.
  std::sort(files.begin(), files.end(), [](const std::string& a, const std::string& b) {
    return std::filesystem::path(a).filename().string() <
           std::filesystem::path(b).filename().string();
  });
  if (files.empty()) {
    std::fprintf(stderr, "bench_drift: no artifacts to fold\n");
    return 2;
  }

  std::vector<Artifact> series;
  for (const std::string& file : files) {
    Artifact a;
    if (!LoadArtifact(file, &a)) {
      return 2;
    }
    series.push_back(std::move(a));
  }

  std::printf("bench_drift: %zu revision(s), threshold %.0f%%, sustain %d\n\n", series.size(),
              threshold_pct, sustain);

  // Union of scenario ids across the whole series, in map order.
  std::map<std::string, bool> all_ids;
  for (const Artifact& a : series) {
    for (const auto& [id, sc] : a.scenarios) {
      all_ids[id] = true;
    }
  }

  int drift_flags = 0;
  const double limit = 1.0 + threshold_pct / 100.0;
  for (const auto& [id, unused] : all_ids) {
    std::printf("%s\n", id.c_str());
    // Per-cell state for the sustained-regression check: the baseline is the
    // first revision that recorded the cell; `over` counts the current run of
    // consecutive over-threshold revisions.
    std::map<std::string, double> baseline;
    std::map<std::string, int> over;
    const Scenario* prev = nullptr;
    const Artifact* prev_art = nullptr;
    for (const Artifact& a : series) {
      const auto it = a.scenarios.find(id);
      if (it == a.scenarios.end()) {
        std::printf("  %-24s %-12s (absent)\n", a.file.c_str(), a.revision.c_str());
        continue;
      }
      const Scenario& sc = it->second;
      std::string cells_text;
      for (const auto& [key, cell] : sc.cells) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "  [%s %.3fs]", key.c_str(), cell.seconds);
        cells_text += buf;
        if (!cell.identical) {
          std::printf("  DRIFT: %s %s: cell diverged from its reference cell\n",
                      a.file.c_str(), key.c_str());
          ++drift_flags;
        }
        const auto base = baseline.find(key);
        if (base == baseline.end()) {
          baseline[key] = cell.seconds;
          over[key] = 0;
        } else if (base->second > 0 && cell.seconds > base->second * limit) {
          if (++over[key] >= sustain) {
            std::printf("  DRIFT: %s %s: %.3fs is %.0f%% over baseline %.3fs "
                        "(%d consecutive revisions)\n",
                        a.file.c_str(), key.c_str(), cell.seconds,
                        (cell.seconds / base->second - 1.0) * 100.0, base->second, over[key]);
            ++drift_flags;
          }
        } else {
          over[key] = 0;
        }
      }
      std::printf("  %-24s %-12s schedules=%lld%s\n", a.file.c_str(), a.revision.c_str(),
                  sc.schedules, cells_text.c_str());
      if (prev != nullptr && prev->schedules != sc.schedules) {
        std::printf("  DRIFT: %s -> %s: schedule count changed %lld -> %lld\n",
                    prev_art->file.c_str(), a.file.c_str(), prev->schedules, sc.schedules);
        ++drift_flags;
      }
      prev = &sc;
      prev_art = &a;
    }
    std::printf("\n");
  }

  if (drift_flags > 0) {
    std::printf("bench_drift: %d drift flag(s) raised\n", drift_flags);
    return 1;
  }
  std::printf("bench_drift: no drift\n");
  return 0;
}
