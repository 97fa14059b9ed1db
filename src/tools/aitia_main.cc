// aitia — the trace-driven diagnosis CLI.
//
// Reads an AITIA trace (.ait) file — or a bundled corpus scenario id — and
// runs the full LIFS + Causality pipeline under the supervisor, printing the
// rendered diagnosis (or JSON with --json).
//
//   $ aitia src/bugs/corpus/CVE-2017-15649.ait
//   $ aitia --json examples/traces/gen_abba.ait
//   $ aitia CVE-2017-15649              # corpus id: the same text, built in
//   $ aitia --trace out.json fig-1      # Chrome trace-event flight record
//   $ aitia --metrics fig-1             # metrics summary on stderr
//   $ aitia --sarif out.sarif fig-1     # SARIF 2.1.0 log for CI annotation
//   $ aitia --metrics-json m.json fig-1 # metrics snapshot as nested JSON
//   $ aitia --emit syz-04               # serialize a corpus scenario to .ait
//   $ aitia --list                      # list corpus ids
//
// Exit codes (scriptable, CI-friendly):
//   0  diagnosis complete (causality chain produced, supervision healthy)
//   1  failure did not reproduce / no diagnosis
//   2  input error: unreadable file, parse or assembly error, a setup phase
//      that faults or never finishes, bad usage, unwritable --trace path
//   3  diagnosis completed degraded (some flip tests exhausted their budget)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <vector>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/core/report.h"
#include "src/gen/generator.h"
#include "src/ingest/ingest.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tools/options.h"
#include "src/tools/sarif.h"
#include "src/util/log.h"

namespace {

constexpr int kExitDiagnosed = 0;
constexpr int kExitNotDiagnosed = 1;
constexpr int kExitInputError = 2;
constexpr int kExitDegraded = 3;

int Usage(FILE* to) {
  std::fprintf(to,
               "usage: aitia [--json] [--trace FILE] [--metrics]\n"
               "             [--sarif FILE] [--metrics-json FILE]\n"
               "             [--log-level LEVEL] <trace.ait | scenario-id>\n"
               "       aitia --emit <scenario-id>   # print a corpus scenario as .ait\n"
               "       aitia --list                 # list corpus scenario ids\n"
               "       aitia --generate template=NAME [seed=N] [window=N] [salt=N]\n"
               "             [extra_threads=N] [lock_depth=N] [irq=0|1]\n"
               "                                    # print a generated scenario as .ait\n"
               "                                    # (templates: order atomicity rcu\n"
               "                                    #  workqueue refcount abba benign)\n"
               "\n"
               "  --trace FILE      write a Chrome trace-event JSON flight record of\n"
               "                    the run (open in about:tracing or Perfetto)\n"
               "  --metrics         print the diagnosis metrics summary to stderr\n"
               "  --metrics-json F  write the diagnosis metrics snapshot to F as nested\n"
               "                    JSON (the same shape as aitiad --metrics-json)\n"
               "  --sarif FILE      write the diagnosis as a SARIF 2.1.0 log\n"
               "%s"
               "\n"
               "exit codes: 0 diagnosed, 1 not diagnosed, 2 input error, 3 degraded\n",
               aitia::tools::SharedFlagsHelp());
  return to == stdout ? kExitDiagnosed : kExitInputError;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aitia;

  InitLogLevelFromEnv();

  bool json = false;
  bool emit = false;
  bool generate = false;
  bool metrics = false;
  std::string trace_path;
  std::string sarif_path;
  std::string metrics_json_path;
  std::string input;
  std::vector<std::string> gen_tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const tools::ParseResult pr = tools::ParseSharedFlag("aitia", argc, argv, i);
    if (pr == tools::ParseResult::kError) {
      return kExitInputError;
    }
    if (pr == tools::ParseResult::kParsed) {
      continue;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--emit") {
      emit = true;
    } else if (arg == "--generate") {
      generate = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aitia: --trace needs a file path\n");
        return Usage(stderr);
      }
      trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aitia: --sarif needs a file path\n");
        return Usage(stderr);
      }
      sarif_path = argv[++i];
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg == "--metrics-json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aitia: --metrics-json needs a file path\n");
        return Usage(stderr);
      }
      metrics_json_path = argv[++i];
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json_path = arg.substr(15);
    } else if (arg == "--list") {
      for (const ScenarioEntry& e : AllScenarios()) {
        std::printf("%s\n", e.id);
      }
      return kExitDiagnosed;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(stdout);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "aitia: unknown flag '%s'\n", arg.c_str());
      return Usage(stderr);
    } else if (generate) {
      gen_tokens.push_back(arg);
    } else if (input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "aitia: more than one input ('%s' and '%s')\n", input.c_str(),
                   arg.c_str());
      return Usage(stderr);
    }
  }

  if (generate) {
    // --generate before positional args is the documented order; a stray
    // positional parsed into `input` first is forwarded as a spec token.
    if (!input.empty()) {
      gen_tokens.insert(gen_tokens.begin(), input);
    }
    StatusOr<gen::GenOptions> spec = gen::ParseGenSpec(gen_tokens);
    if (!spec.ok()) {
      std::fprintf(stderr, "aitia: %s\n", spec.status().ToString().c_str());
      return kExitInputError;
    }
    std::fputs(ScenarioToAit(gen::GenerateScenario(*spec).scenario).c_str(), stdout);
    return kExitDiagnosed;
  }

  if (input.empty() && trace_path.empty()) {
    return Usage(stderr);
  }
  if (input.empty()) {
    std::fprintf(stderr, "aitia: --trace needs a scenario to run\n");
    return Usage(stderr);
  }

  if (emit) {
    const ScenarioEntry* entry = FindScenario(input);
    if (entry == nullptr) {
      std::fprintf(stderr, "aitia: unknown scenario id '%s' (try --list)\n", input.c_str());
      return kExitInputError;
    }
    std::fputs(ScenarioToAit(entry->make()).c_str(), stdout);
    return kExitDiagnosed;
  }

  // Probe the trace destination *before* spending minutes in the pipeline:
  // an unwritable path is an input error (exit 2) reported as a Status, not
  // an abort after the work is done.
  std::ofstream trace_out;
  if (!trace_path.empty()) {
    trace_out.open(trace_path, std::ios::binary | std::ios::trunc);
    if (!trace_out) {
      const Status st = Status::Unavailable("cannot open trace output file: " + trace_path);
      std::fprintf(stderr, "aitia: %s\n", st.ToString().c_str());
      return kExitInputError;
    }
    // Tracing starts before the scenario load so ingest spans are captured.
    obs::Tracer::Global().Start();
  }
  // Same probe-then-write discipline for the SARIF and metrics destinations.
  std::ofstream sarif_out;
  if (!sarif_path.empty()) {
    sarif_out.open(sarif_path, std::ios::binary | std::ios::trunc);
    if (!sarif_out) {
      const Status st = Status::Unavailable("cannot open sarif output file: " + sarif_path);
      std::fprintf(stderr, "aitia: %s\n", st.ToString().c_str());
      return kExitInputError;
    }
  }
  std::ofstream metrics_json_out;
  if (!metrics_json_path.empty()) {
    metrics_json_out.open(metrics_json_path, std::ios::binary | std::ios::trunc);
    if (!metrics_json_out) {
      const Status st =
          Status::Unavailable("cannot open metrics output file: " + metrics_json_path);
      std::fprintf(stderr, "aitia: %s\n", st.ToString().c_str());
      return kExitInputError;
    }
  }
  auto write_trace = [&]() -> Status {
    if (trace_path.empty()) {
      return OkStatus();
    }
    const obs::TraceDump dump = obs::Tracer::Global().Snapshot();
    obs::Tracer::Global().Stop();
    trace_out << obs::ToChromeTraceJson(dump);
    trace_out.flush();
    if (!trace_out) {
      return Status::Unavailable("failed writing trace output file: " + trace_path);
    }
    if (dump.dropped > 0) {
      std::fprintf(stderr, "aitia: trace ring full, dropped %lld event(s)\n",
                   static_cast<long long>(dump.dropped));
    }
    return OkStatus();
  };

  // A corpus id is accepted wherever a trace file is: ids never name
  // readable files, so the file path wins when both could apply. The id is
  // looked up only then, so a file input never assembles the corpus.
  BugScenario scenario;
  StatusOr<BugScenario> loaded = ScenarioFromAitFile(input);
  const ScenarioEntry* entry =
      loaded.status().code() == StatusCode::kNotFound ? FindScenario(input) : nullptr;
  if (loaded.ok()) {
    scenario = *std::move(loaded);
  } else if (entry != nullptr) {
    scenario = entry->make();
  } else {
    std::fprintf(stderr, "aitia: %s\n", loaded.status().ToString().c_str());
    (void)write_trace();
    return kExitInputError;
  }

  if (!json) {
    std::fprintf(stderr, "scenario   : %s (%s, %s)\n", scenario.id.c_str(),
                 scenario.subsystem.c_str(), scenario.bug_kind.c_str());
  }
  AitiaReport report = DiagnoseScenario(scenario);
  if (report.status.code() == StatusCode::kInvalidArgument) {
    std::fprintf(stderr, "aitia: %s\n", report.status.ToString().c_str());
    (void)write_trace();
    return kExitInputError;
  }

  if (const Status st = write_trace(); !st.ok()) {
    std::fprintf(stderr, "aitia: %s\n", st.ToString().c_str());
    return kExitInputError;
  }
  if (metrics) {
    std::fprintf(stderr, "--- metrics ---\n%s", report.metrics.ToText().c_str());
  }
  if (!sarif_path.empty()) {
    sarif_out << tools::ReportToSarif(scenario, report) << "\n";
    if (!sarif_out.flush()) {
      std::fprintf(stderr, "aitia: failed writing sarif output file: %s\n", sarif_path.c_str());
      return kExitInputError;
    }
  }
  if (!metrics_json_path.empty()) {
    // This diagnosis's counts, the report's "metrics" section (the daemon's
    // --metrics-json dumps the whole process registry instead).
    metrics_json_out << report.metrics.ToJson() << "\n";
    if (!metrics_json_out.flush()) {
      std::fprintf(stderr, "aitia: failed writing metrics output file: %s\n",
                   metrics_json_path.c_str());
      return kExitInputError;
    }
  }

  std::printf("%s\n", json ? ReportToJson(report, *scenario.image).c_str()
                           : report.Render(*scenario.image).c_str());
  if (!report.diagnosed) {
    return kExitNotDiagnosed;
  }
  return (report.degraded || !report.status.ok()) ? kExitDegraded : kExitDiagnosed;
}
