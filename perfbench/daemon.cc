// Workload `daemon`: one in-process svc::Daemon with default options (2
// workers, result cache on), fed by 2 client threads in a closed loop: each
// client sends its next request only once the previous one has answered, as
// aitiad_loadgen clients do. Requests carry the curated scenarios as inline
// .ait text, so the request path runs ingest as well as svc. No sockets: the
// TCP transport is a thin shell over Submit, and sockets would only add
// scheduler noise.
//
// The mix is fixed by request index i. Request i carries scenario
// order[i % 28] (order drawn from the seed). When i % 5 == 4 it repeats a
// trace that set-up primed into the result cache, so it is a cache hit;
// every other request is a fresh "no_cache" diagnosis. 5 and 28 are
// coprime, so every scenario takes both roles; a block is the 140 requests
// after which the pattern repeats.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/report.h"
#include "src/ingest/ingest.h"
#include "src/svc/daemon.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;   // = DaemonOptions{}.workers; closed loop
constexpr int64_t kHitEvery = 5;
constexpr int kSetupRuns = 7;  // before and again after the timed phase
// Traced runs time the request path's ingest and pipeline stages by calling
// them directly on the request texts, this many passes, during set-up.
constexpr int kCalibrationPasses = 5;
// Upper bound on requests in one run (a response counter each).
constexpr int64_t kMaxRequests = 1 << 22;

// Text between the first `key` in `json` and the next `end`; empty when
// absent.
std::string Field(const std::string& json, const std::string& key, char end) {
  const size_t at = json.find(key);
  if (at == std::string::npos) return "";
  const size_t from = at + key.size();
  const size_t to = json.find(end, from);
  return to == std::string::npos ? "" : json.substr(from, to - from);
}

// The number after the first `key` in `json`; -1 when absent.
double NumberField(const std::string& json, const std::string& key) {
  const size_t at = json.find(key);
  return at == std::string::npos ? -1 : std::strtod(json.c_str() + at + key.size(), nullptr);
}

// The report's rendered causality chain, still JSON-escaped; unique key.
std::string Chain(const std::string& response) {
  const std::string key = "\"chain\": {\"rendered\": \"";
  const size_t at = response.find(key);
  if (at == std::string::npos) return "";
  size_t i = at + key.size();
  while (i < response.size() && response[i] != '"') i += response[i] == '\\' ? 2 : 1;
  return response.substr(at + key.size(), i - at - key.size());
}

// The report's own LIFS and CA stage seconds. The report's "lifs" object
// precedes its metrics delta and its "causality" object follows it; both
// keys below are spelled the way only the report emits them.
double PipelineMs(const std::string& response) {
  const size_t lifs = response.find("\"lifs\": {\"reproduced\": ");
  const size_t ca = response.rfind("\"causality\": {\"schedules\": ");
  double ms = 0;
  if (lifs != std::string::npos) ms += NumberField(response.substr(lifs), "\"seconds\": ") * 1e3;
  if (ca != std::string::npos) ms += NumberField(response.substr(ca), "\"seconds\": ") * 1e3;
  return ms;
}

std::string Request(int64_t index, const std::string& ait_json, bool cached) {
  return "{\"verb\":\"diagnose\",\"id\":\"r" + std::to_string(index) + "\"" +
         (cached ? "" : ",\"no_cache\":true") + ",\"ait\":" + ait_json + "}";
}

// One request as the client saw it.
struct Record {
  bool traced = false;
  bool hit = false;
  Clock::time_point sent;
  double latency_ms = 0;    // Submit to the client's wake-up on the response
  double iteration_s = 0;   // claim to claim, client bookkeeping included
  double elapsed_ms = 0;    // the daemon's own admission-to-response time
  double pipeline_ms = 0;   // the report's LIFS + CA seconds (misses)
};

// Where a worker (or the admitting client, for cache hits) hands a
// client its response.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  int64_t index = -1;  // request the response answers; -1 while waiting
};

}  // namespace

Outcome RunDaemon(const Config& config) {
  Outcome out;
  const std::vector<aitia::ScenarioEntry>& entries = aitia::AllScenarios();
  const int64_t kinds = static_cast<int64_t>(entries.size());
  const int64_t block = kinds * kHitEvery;
  std::vector<std::string> ait_json(entries.size());
  std::vector<std::string> expected_chain(entries.size());
  std::unique_ptr<aitia::svc::Daemon> daemon;
  double serialize_s = 0;

  // One set-up: serialize the corpus to .ait request bodies, start a daemon,
  // and prime its result cache with one cacheable request per scenario.
  // Repeated before the timed phase (the last daemon is kept and its priming
  // checked) and again after it, so setup_s samples both ends of the run.
  const auto setup = [&](bool keep) {
    const Clock::time_point start = Clock::now();
    std::vector<std::string> bodies(entries.size());
    double serialize = 0;
    for (size_t j = 0; j < entries.size(); ++j) {
      const aitia::BugScenario s = entries[j].make();
      const Clock::time_point t0 = Clock::now();
      const std::string ait = aitia::ScenarioToAit(s);
      serialize += Seconds(t0, Clock::now());
      bodies[j] = JsonString(ait);
    }
    auto d = std::make_unique<aitia::svc::Daemon>(aitia::svc::DaemonOptions{});
    std::vector<std::string> primed(entries.size());
    for (size_t j = 0; j < entries.size(); ++j) {
      primed[j] = d->HandleLine(Request(-1 - static_cast<int64_t>(j), bodies[j], true));
    }
    out.setup_s.push_back(Seconds(start, Clock::now()));
    if (!keep) return;  // the daemon drains and goes
    for (size_t j = 0; j < entries.size(); ++j) {
      ++out.attempted;
      expected_chain[j] = Chain(primed[j]);
      if (Field(primed[j], "\"status\":\"", '"') != "ok" ||
          Field(primed[j], "\"cache\":\"", '"') != "miss" || expected_chain[j].empty()) {
        out.Fail(std::string(entries[j].id) + ": priming request did not diagnose");
      }
    }
    ait_json = std::move(bodies);
    serialize_s = serialize;
    daemon = std::move(d);
  };
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    setup(/*keep=*/rep + 1 == kSetupRuns);
  }

  std::vector<size_t> order(entries.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::mt19937_64 rng(config.seed);
  std::shuffle(order.begin(), order.end(), rng);
  const auto scenario_of = [&](int64_t i) { return order[static_cast<size_t>(i % kinds)]; };

  // Traced runs: time what the request path does on the same texts — parse
  // (every request), diagnose and serialize the report (every miss).
  DiagTally tally;
  SpanRecorder spans;
  double parse_s = 0;
  double report_s = 0;
  int64_t parses = 0;
  if (config.trace) {
    const CkptCounters before = CkptCounters::Read();
    const aitia::AitiaOptions options;
    for (int pass = 0; pass < kCalibrationPasses; ++pass) {
      for (size_t j = 0; j < entries.size(); ++j) {
        const aitia::BugScenario s = entries[j].make();
        const std::string ait = aitia::ScenarioToAit(s);
        const int64_t op = pass * kinds + static_cast<int64_t>(j);
        const Clock::time_point t0 = Clock::now();
        aitia::StatusOr<aitia::BugScenario> parsed = aitia::ScenarioFromAitText(ait, s.id);
        const Clock::time_point t1 = Clock::now();
        if (!parsed.ok()) {
          out.Fail(s.id + ": request text does not parse");
          continue;
        }
        const aitia::AitiaReport report = aitia::DiagnoseScenario(*parsed, options);
        const Clock::time_point t2 = Clock::now();
        const std::string json = aitia::ReportToJson(report, *parsed->image);
        const Clock::time_point t3 = Clock::now();
        spans.Add("ingest.parse", op, -1, t0, t1);
        spans.AddDiagnosis(op, -1, t1, t2, report);
        spans.Add("report.json", op, -1, t2, t3);
        tally.Add(report, Seconds(t1, t2));
        parse_s += Seconds(t0, t1);
        report_s += Seconds(t2, t3);
        ++parses;
      }
    }
    tally.ckpt = CkptCounters::Read().Minus(before);
  }

  // Timed phase. A traced run sends every block twice, untraced and traced,
  // alternating which goes first (claim c: block c / (2 * block), copy by
  // position), so drift hits both modes alike.
  const int64_t span = config.trace ? 2 * block : block;
  const auto answers = std::make_unique<std::atomic<uint8_t>[]>(kMaxRequests);  // all 0
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> stop_at{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> sent{0};  // one past the highest claim sent
  std::vector<std::vector<std::pair<int64_t, Record>>> records(kClients);
  std::vector<std::vector<std::string>> errors(kClients);
  const Clock::time_point phase_start = Clock::now();
  std::atomic<int64_t> phase_end_ns{0};

  const auto client = [&](int c) {
    Mailbox box;
    Clock::time_point claim_time = Clock::now();
    for (;;) {
      const int64_t claim = next.fetch_add(1, std::memory_order_relaxed);
      if (claim >= stop_at.load(std::memory_order_acquire) || claim >= kMaxRequests) break;
      const int64_t within = claim % span;
      const bool traced = config.trace && ((claim / span) + within / block) % 2 == 1;
      const int64_t i = (claim / span) * block + within % block;  // mix index
      const size_t j = scenario_of(i);
      const bool hit = i % kHitEvery == kHitEvery - 1;
      std::string line = Request(claim, ait_json[j], hit);
      for (int64_t cur = sent.load();
           claim + 1 > cur && !sent.compare_exchange_weak(cur, claim + 1);) {
      }
      {
        std::lock_guard<std::mutex> lock(box.mu);
        box.index = -1;
      }
      const Clock::time_point t0 = Clock::now();
      daemon->Submit(std::move(line), [&box, &answers, claim](std::string response) {
        if (answers[claim].fetch_add(1, std::memory_order_acq_rel) != 0) return;  // duplicate
        std::lock_guard<std::mutex> lock(box.mu);
        box.response = std::move(response);
        box.index = claim;
        box.cv.notify_one();
      });
      std::string response;
      {
        std::unique_lock<std::mutex> lock(box.mu);
        box.cv.wait(lock, [&] { return box.index == claim; });
        response = std::move(box.response);
      }
      const Clock::time_point t1 = Clock::now();

      // Checked outside the latency span.
      const std::string id = "r" + std::to_string(claim);
      const std::string cache = Field(response, "\"cache\":\"", '"');
      Record r;
      r.traced = traced;
      r.hit = cache == "hit";
      r.sent = t0;
      r.latency_ms = Seconds(t0, t1) * 1e3;
      if (Field(response, "\"id\":\"", '"') != id ||
          Field(response, "\"status\":\"", '"') != "ok" || cache != (hit ? "hit" : "miss") ||
          Chain(response) != expected_chain[j]) {
        errors[c].push_back(id + " (" + entries[j].id + ", planned " +
                            (hit ? "hit" : "miss") + "): wrong response: " +
                            response.substr(0, 160));
        r.latency_ms = std::numeric_limits<double>::infinity();
      }
      if (traced) {
        r.elapsed_ms = NumberField(response, "\"elapsed_ms\":");
        r.pipeline_ms = r.hit ? 0 : PipelineMs(response);
      }
      const Clock::time_point now = Clock::now();
      r.iteration_s = Seconds(claim_time, now);
      claim_time = now;
      records[c].push_back({claim, r});
      if (Seconds(phase_start, now) >= config.seconds) {
        // Finish the block in progress, then stop: every claim below the
        // boundary completes, none above it is sent.
        const int64_t boundary = (next.load(std::memory_order_relaxed) + span - 1) / span * span;
        int64_t cur = stop_at.load(std::memory_order_acquire);
        while (boundary < cur && !stop_at.compare_exchange_weak(cur, boundary)) {
        }
      }
    }
    const int64_t end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - phase_start).count();
    int64_t cur = phase_end_ns.load();
    while (end_ns > cur && !phase_end_ns.compare_exchange_weak(cur, end_ns)) {
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  const double phase_s = static_cast<double>(phase_end_ns.load()) / 1e9;
  daemon->Drain();  // every accepted request has answered once this returns
  daemon.reset();
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    setup(/*keep=*/false);
  }

  for (int64_t claim = 0; claim < sent.load(); ++claim) {
    const int n = answers[claim].load();
    if (n != 1) {
      out.Fail("r" + std::to_string(claim) + ": " + std::to_string(n) + " terminal responses");
    }
  }
  for (const std::vector<std::string>& errs : errors) {
    for (const std::string& e : errs) out.Fail(e);
  }

  // Aggregate. Untraced requests give the end-to-end numbers.
  // Untraced blocks: first send and last answer.
  std::map<int64_t, std::pair<Clock::time_point, Clock::time_point>> blocks;
  std::vector<double> hit_ms, overhead_ms, handoff_ms;
  double untraced_iter_s = 0, traced_iter_s = 0, busy_ms = 0;
  int64_t traced_n = 0, traced_hits = 0, hits = 0;
  for (const auto& per_client : records) {
    for (const auto& [claim, r] : per_client) {
      ++out.attempted;
      if (!r.traced && std::isfinite(r.latency_ms)) {
        const Clock::time_point answered =
            r.sent + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(r.latency_ms));
        const auto [it, fresh] = blocks.try_emplace(claim / block, r.sent, answered);
        if (!fresh) {
          it->second.first = std::min(it->second.first, r.sent);
          it->second.second = std::max(it->second.second, answered);
        }
      }
      if (!r.traced) {
        out.latency_ms.push_back(r.latency_ms);
        untraced_iter_s += r.iteration_s;
        ++out.timed_ops;
        hits += r.hit ? 1 : 0;
        continue;
      }
      ++traced_n;
      traced_iter_s += r.iteration_s;
      const double end_us = spans.Us(r.sent) + r.latency_ms * 1e3;
      const double admitted_us = end_us - r.elapsed_ms * 1e3;
      const int request = spans.Add("svc.request", claim, -1, spans.Us(r.sent), end_us);
      const int inside = spans.Add("svc.daemon", claim, request, admitted_us, end_us);
      if (!r.hit) {
        spans.Add("pipeline", claim, inside, admitted_us, admitted_us + r.pipeline_ms * 1e3);
      }
      handoff_ms.push_back(r.latency_ms - r.elapsed_ms);
      if (r.hit) {
        ++traced_hits;
        hit_ms.push_back(r.latency_ms);
      } else {
        overhead_ms.push_back(r.latency_ms - r.pipeline_ms);
        busy_ms += r.elapsed_ms;
      }
    }
  }
  for (const auto& [b, interval] : blocks) {
    out.block_s.push_back(Seconds(interval.first, interval.second));
  }
  out.block_ops = block;
  out.timed_s = phase_s;
  out.detail.push_back({"clients", std::to_string(kClients)});
  out.detail.push_back({"planned_hit_share", "0.2"});
  out.detail.push_back({"hit_share", std::to_string(out.timed_ops == 0 ? 0.0
                                                    : static_cast<double>(hits) /
                                                          static_cast<double>(out.timed_ops))});

  if (config.trace) {
    tally.Emit(out.layers);
    const double n = static_cast<double>(parses);
    out.layers.push_back({"ingest.parse_ms_per_op", n > 0 ? parse_s * 1e3 / n : 0, "ms"});
    out.layers.push_back({"ingest.serialize_ms_per_op",
                          serialize_s * 1e3 / static_cast<double>(entries.size()), "ms"});
    out.layers.push_back({"report.json_ms_per_op", n > 0 ? report_s * 1e3 / n : 0, "ms"});
    out.layers.push_back({"svc.hit_ms_p50", Median(hit_ms), "ms"});
    out.layers.push_back({"svc.miss_overhead_ms_p50", Median(overhead_ms), "ms"});
    out.layers.push_back({"svc.handoff_ms_p50", Median(handoff_ms), "ms"});
    out.layers.push_back({"svc.cache_hit_share",
                          traced_n > 0 ? static_cast<double>(traced_hits) /
                                             static_cast<double>(traced_n)
                                       : 0,
                          "ratio"});
    // Workers equal clients, so the traced requests' iteration time summed
    // over clients is the worker time available to them.
    out.layers.push_back({"svc.worker_busy_share",
                          traced_iter_s > 0 ? busy_ms / 1e3 / traced_iter_s : 0, "ratio"});
    out.layers.push_back(
        {"trace.overhead_share", OverheadShare(untraced_iter_s, traced_iter_s), "ratio"});
    if (!config.trace_out.empty() && !spans.WriteChromeTrace(config.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", config.trace_out.c_str());
    }
  }
  return out;
}

}  // namespace perfbench
