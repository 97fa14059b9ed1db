// perfbench — the repository's end-to-end benchmark binary.
//
//   perfbench --workload corpus|sweep|daemon --seed N --seconds S --trace 0|1
//             [--git-revision REV] [--source-digest HEX] [--trace-out FILE]
//
// Runs one workload in this process (so set-up time and peak RSS belong to
// that workload alone), checks the output of every operation, and prints two
// lines on stdout: a detail object (provenance, sample counts, layer
// coverage) and, last, the result object
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// whose metrics are the end-to-end set with --trace 0 and the per-layer set
// with --trace 1. Exit status: 0 when every operation passed its check, 1
// when any failed (the result is still printed), 2 on a usage error.
// perfbench/README.md says why each workload and metric exists.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0, on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_per_s", "1/s"}, {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},  {"latency_ms_p99", "ms"},    {"peak_rss_mb", "MB"},
};

// Printed with --trace 1, on every workload. A layer the workload does not
// reach reads 0 and is named under "not_exercised" in the detail line.
constexpr MetricSpec kPerLayer[] = {
    {"sim.steps_per_op", "count"},
    {"hv.runs_per_op", "count"},
    {"sim.steps_per_s", "1/s"},
    {"hv.us_per_run", "us"},
    {"lifs.ms_per_op", "ms"},
    {"lifs.schedules_per_op", "count"},
    {"lifs.pruned_share", "ratio"},
    {"lifs.schedules_per_s", "1/s"},
    {"lifs.exhaustive_share", "ratio"},
    {"ca.ms_per_op", "ms"},
    {"ca.flips_per_op", "count"},
    {"ca.flips_per_s", "1/s"},
    {"triage.skip_share", "ratio"},
    {"ckpt.hit_share", "ratio"},
    {"ckpt.replayed_share", "ratio"},
    {"ckpt.evictions_per_op", "count"},
    {"facade.self_ms_per_op", "ms"},
    {"lifs.share", "ratio"},
    {"ca.share", "ratio"},
    {"ingest.parse_ms_per_op", "ms"},
    {"ingest.serialize_ms_per_op", "ms"},
    {"gen.ms_per_scenario", "ms"},
    {"report.json_ms_per_op", "ms"},
    {"svc.hit_ms_p50", "ms"},
    {"svc.miss_overhead_ms_p50", "ms"},
    {"svc.handoff_ms_p50", "ms"},
    {"svc.cache_hit_share", "ratio"},
    {"svc.worker_busy_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus|sweep|daemon --seed N --seconds S\n"
               "                 --trace 0|1 [--git-revision REV] [--source-digest HEX]\n"
               "                 [--trace-out FILE]\n");
  return 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Full precision, so no two runs read alike by rounding. A failed
// operation's latency is +inf (it misses every limit); JSON has no infinity,
// so it prints as the largest double.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = v > 0 ? 1.7976931348623157e308 : -1.7976931348623157e308;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(items[i]);
  }
  return out + "]";
}

// Samples beyond the nearest-rank p-th percentile of n samples.
int64_t Beyond(size_t n, double p) {
  return static_cast<int64_t>(n) - static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
}

}  // namespace

int Main(int argc, char** argv) {
  Config config;
  std::string git_revision = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage();
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--git-revision") {
      git_revision = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_trace) {
    return Usage();
  }

  Outcome outcome;
  double tail_p = 0.99;
  if (config.workload == "corpus") {
    outcome = RunCorpus(config);
  } else if (config.workload == "sweep") {
    outcome = RunSweep(config);
    tail_p = 0.90;
  } else if (config.workload == "daemon") {
    outcome = RunDaemon(config);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", config.workload.c_str());
    return Usage();
  }

  std::vector<Metric> metrics;
  std::vector<std::string> not_exercised;
  std::vector<std::string> absent;
  if (!config.trace) {
    const std::vector<double>& lat = outcome.latency_ms;
    const std::map<std::string, double> values = {
        {"setup_s", Median(outcome.setup_s)},
        {"throughput_per_s", outcome.block_s.empty()
                                 ? 0
                                 : static_cast<double>(outcome.block_ops) /
                                       Median(outcome.block_s)},
        {"latency_ms_p50", Percentile(lat, 0.50)},
        {"latency_ms_p90", Percentile(lat, 0.90)},
        {"latency_ms_p99", Percentile(lat, 0.99)},
        {"peak_rss_mb", PeakRssMb()},
    };
    for (const MetricSpec& spec : kEndToEnd) {
      metrics.push_back({spec.name, values.at(spec.name), spec.unit});
    }
  } else {
    std::map<std::string, double> values;
    for (const Metric& m : outcome.layers) {
      values[m.name] = m.value;
    }
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = values.find(spec.name);
      if (it == values.end()) {
        // ckpt.* go missing once the checkpoint engine is deleted; every
        // other layer is simply not on this workload's path.
        (std::strncmp(spec.name, "ckpt.", 5) == 0 ? absent : not_exercised)
            .push_back(spec.name);
      }
      metrics.push_back({spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
    }
  }

  const size_t n = outcome.latency_ms.size();
  std::string detail = "{\"perfbench\": {";
  detail += "\"workload\": " + JsonString(config.workload);
  detail += ", \"seed\": " + std::to_string(config.seed);
  detail += ", \"seconds\": " + Number(config.seconds);
  detail += std::string(", \"trace\": ") + (config.trace ? "1" : "0");
  detail += ", \"provenance\": {\"hardware_concurrency\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
            ", \"git_revision\": " + JsonString(git_revision) +
            ", \"source_digest\": " + JsonString(source_digest) +
            ", \"compiler\": " + JsonString(__VERSION__) + ", \"seed\": " +
            std::to_string(config.seed) + "}";
  std::string setup_samples;
  for (double v : outcome.setup_s) setup_samples += (setup_samples.empty() ? "" : ", ") + Number(v);
  detail += ", \"setup_s_samples\": [" + setup_samples + "]";
  detail += ", \"timed_ops\": " + std::to_string(outcome.timed_ops);
  detail += ", \"timed_s\": " + Number(outcome.timed_s);
  detail += ", \"blocks\": " + std::to_string(outcome.block_s.size());
  detail += ", \"block_ops\": " + std::to_string(outcome.block_ops);
  detail += ", \"block_s_p10_p50_p90\": [" + Number(Percentile(outcome.block_s, 0.1)) + ", " +
            Number(Percentile(outcome.block_s, 0.5)) + ", " +
            Number(Percentile(outcome.block_s, 0.9)) + "]";
  detail += ", \"latency_samples\": " + std::to_string(n);
  detail += ", \"beyond_p90\": " + std::to_string(Beyond(n, 0.90));
  detail += ", \"beyond_p99\": " + std::to_string(Beyond(n, 0.99));
  detail += ", \"tail\": " + JsonString(tail_p == 0.90 ? "latency_ms_p90" : "latency_ms_p99");
  if (config.trace) {
    detail += ", \"not_exercised\": " + StringList(not_exercised);
    detail += ", \"absent\": " + StringList(absent);
  }
  for (const auto& [key, json] : outcome.detail) {
    detail += ", " + JsonString(key) + ": " + json;
  }
  detail += ", \"failures\": " + StringList(outcome.failure_notes);
  detail += "}}";

  for (const std::string& note : outcome.failure_notes) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", note.c_str());
  }
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              outcome.failed == 0 ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), MetricsObject(metrics).c_str());
  std::fflush(stdout);
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
