#include "src/core/lifs.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace aitia {
namespace {

// Registry lookups cached once per process; the increments themselves are
// per-thread sharded relaxed atomics (src/obs/metrics.h), so publishing
// search totals here never contends with concurrent diagnoses.
struct LifsMetrics {
  obs::Counter* searches;
  obs::Counter* reproduced;
  obs::Counter* schedules_executed;
  obs::Counter* schedules_pruned;
  obs::Counter* aborted_runs;
  obs::Counter* discovery_us;
  obs::Counter* depth_us;
  obs::Histogram* preemption_points;

  static const LifsMetrics& Get() {
    static const LifsMetrics* const m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* lm = new LifsMetrics();
      lm->searches = reg.GetCounter("lifs.searches");
      lm->reproduced = reg.GetCounter("lifs.reproduced");
      lm->schedules_executed = reg.GetCounter("lifs.schedules_executed");
      lm->schedules_pruned = reg.GetCounter("lifs.schedules_pruned");
      lm->aborted_runs = reg.GetCounter("lifs.aborted_runs");
      lm->discovery_us = reg.GetCounter("lifs.discovery_us");
      lm->depth_us = reg.GetCounter("lifs.depth_us");
      lm->preemption_points = reg.GetHistogram("lifs.preemption_points", {0, 1, 2, 3, 4, 8});
      return lm;
    }();
    return *m;
  }
};

SupervisorOptions LifsSupervisorOptions(const LifsOptions& options) {
  SupervisorOptions so = options.supervisor;
  so.max_steps = options.max_steps_per_run;
  return so;
}

// Access-pattern fingerprint of one run.
std::string TraceFingerprint(const RunResult& run) {
  std::string fp;
  for (const ExecEvent& e : run.trace) {
    if (e.is_access) {
      fp += StrFormat("%d.%d.%d.%d.%llu.%d;", e.di.tid, e.di.at.prog, e.di.at.pc,
                      e.di.occurrence, static_cast<unsigned long long>(e.addr),
                      e.is_write ? 1 : 0);
    }
  }
  return fp;
}

}  // namespace

// Enumerates one depth-k pass of the search space in canonical order:
// k-point tuples front-to-back (candidate-major, lexicographic over the
// encoded candidate×variant space, adjacent-pair constraints applied), each
// tuple crossed with every base order.
class Lifs::PassFrontier {
 public:
  PassFrontier(std::vector<KnownAccess> candidates, size_t stride, size_t k,
               const std::vector<std::vector<ThreadId>>* perms,
               const std::vector<IrqLine>* irq_lines)
      : candidates_(std::move(candidates)),
        stride_(stride),
        k_(k),
        perms_(perms),
        irq_lines_(irq_lines) {}

  std::optional<PreemptionSchedule> Next() {
    if (done_) {
      return std::nullopt;
    }
    if (first_) {
      first_ = false;
      tuple_.clear();
      if (k_ > 0 && !Extend(0)) {
        done_ = true;
        return std::nullopt;
      }
      perm_idx_ = 0;
    }
    if (perm_idx_ >= perms_->size()) {
      if (!NextTuple()) {
        done_ = true;
        return std::nullopt;
      }
      perm_idx_ = 0;
    }
    PreemptionSchedule schedule;
    schedule.base_order = (*perms_)[perm_idx_++];
    schedule.points.reserve(tuple_.size());
    for (size_t e : tuple_) {
      schedule.points.push_back(DecodePoint(e));
    }
    return schedule;
  }

 private:
  // Grows tuple_ to length k_, trying encoded values from `start` upward at
  // the current level and from 0 at deeper levels (lexicographic DFS).
  bool Extend(size_t start) {
    for (size_t e = start; e < candidates_.size() * stride_; ++e) {
      if (!ValidAppend(e)) {
        continue;
      }
      tuple_.push_back(e);
      if (tuple_.size() == k_ || Extend(0)) {
        return true;
      }
      tuple_.pop_back();
    }
    return false;
  }

  bool NextTuple() {
    if (k_ == 0) {
      return false;  // the single empty tuple was already yielded
    }
    while (!tuple_.empty()) {
      const size_t last = tuple_.back();
      tuple_.pop_back();
      if (Extend(last + 1)) {
        return true;
      }
    }
    return false;
  }

  bool ValidAppend(size_t e) const {
    if (tuple_.empty()) {
      return true;
    }
    const size_t i = e / stride_;
    const size_t prev = tuple_.back() / stride_;
    if (i == prev) {
      return false;  // cannot preempt twice at the same dynamic instr
    }
    if (candidates_[i].di.tid == candidates_[prev].di.tid &&
        candidates_[i].first_pos <= candidates_[prev].first_pos) {
      return false;  // same thread must advance front-to-back
    }
    return true;
  }

  // Each candidate yields a stop-after and a stop-before variant (the latter
  // is the hypervisor's breakpoint-hit semantics), plus, per configured IRQ
  // line, inject-after and inject-before variants (§4.6 extension).
  PreemptPoint DecodePoint(size_t e) const {
    PreemptPoint point;
    point.after = candidates_[e / stride_].di;
    const size_t variant = e % stride_;
    point.before = (variant % 2) != 0;
    if (variant >= 2) {
      const IrqLine& line = (*irq_lines_)[(variant - 2) / 2];
      point.inject_irq = line.handler;
      point.irq_arg = line.arg;
    }
    return point;
  }

  std::vector<KnownAccess> candidates_;
  size_t stride_;
  size_t k_;
  const std::vector<std::vector<ThreadId>>* perms_;
  const std::vector<IrqLine>* irq_lines_;
  std::vector<size_t> tuple_;
  size_t perm_idx_ = 0;
  bool first_ = true;
  bool done_ = false;
};

Lifs::Lifs(const KernelImage* image, std::vector<ThreadSpec> slice,
           std::vector<ThreadSpec> setup, LifsOptions options)
    : image_(image),
      slice_(std::move(slice)),
      setup_(std::move(setup)),
      options_(options),
      supervisor_(image, LifsSupervisorOptions(options)) {}

bool Lifs::SearchCutShort() {
  if (!result_.status.ok()) {
    return true;
  }
  if (result_.schedules_executed >= options_.max_schedules) {
    return true;
  }
  if (options_.search_deadline_seconds > 0 &&
      search_watch_.ElapsedSeconds() > options_.search_deadline_seconds) {
    result_.status = Status::DeadlineExceeded("LIFS search exceeded wall-clock deadline");
    return true;
  }
  // The supervisor-level cancel probe also cuts the search itself short, so
  // a draining service unwinds within one run instead of enumerating the
  // rest of the schedule budget as no-op cancelled runs.
  if (options_.supervisor.cancel && options_.supervisor.cancel()) {
    result_.status = Status::Cancelled("LIFS search cancelled");
    return true;
  }
  return false;
}

bool Lifs::MatchesTarget(const std::optional<Failure>& failure) const {
  if (!failure.has_value()) {
    return false;
  }
  if (options_.target.has_value()) {
    return SameSymptom(*failure, *options_.target);
  }
  if (options_.target_type.has_value()) {
    return failure->type == *options_.target_type;
  }
  // Watchdog timeouts are artifacts of enforcement, not kernel symptoms.
  return failure->type != FailureType::kWatchdog;
}

void Lifs::Learn(const RunResult& run) {
  std::map<ThreadId, int64_t> positions;
  for (const ExecEvent& e : run.trace) {
    int64_t pos = positions[e.di.tid]++;
    if (!e.is_access) {
      continue;
    }
    auto& known = knowledge_[e.di.tid];
    bool seen = std::any_of(known.begin(), known.end(),
                            [&](const KnownAccess& k) { return k.di == e.di; });
    if (!seen) {
      known.push_back({e.di, e.addr, e.len, e.is_write, pos});
    }
    if (std::find(known_tids_.begin(), known_tids_.end(), e.di.tid) == known_tids_.end()) {
      known_tids_.push_back(e.di.tid);
    }
  }

  // Keep complete per-thread streams from clean runs as phantom references.
  if (!run.failure.has_value() && run.all_exited) {
    std::map<ThreadId, std::vector<ExecEvent>> streams;
    for (const ExecEvent& e : run.trace) {
      streams[e.di.tid].push_back(e);
    }
    for (auto& [tid, stream] : streams) {
      auto& ref = result_.reference_streams[tid];
      if (stream.size() > ref.size()) {
        ref = std::move(stream);
      }
    }
  }
}

std::vector<Lifs::KnownAccess> Lifs::ConflictCandidates() const {
  std::vector<KnownAccess> all;
  for (const auto& [tid, accesses] : knowledge_) {
    (void)tid;
    all.insert(all.end(), accesses.begin(), accesses.end());
  }
  std::vector<KnownAccess> out;
  for (const KnownAccess& a : all) {
    if (!options_.dpor_pruning) {
      out.push_back(a);
      continue;
    }
    // DPOR-style restriction: preempting after `a` only creates a new order
    // if some other thread conflicts on the same memory.
    bool conflicts = std::any_of(all.begin(), all.end(), [&](const KnownAccess& b) {
      if (b.di.tid == a.di.tid) {
        return false;
      }
      const bool overlap = a.addr < b.addr + b.len && b.addr < a.addr + a.len;
      return overlap && (a.write || b.write);
    });
    if (conflicts) {
      out.push_back(a);
    }
  }
  // Front-to-back: earliest-discovered instructions first.
  std::sort(out.begin(), out.end(), [](const KnownAccess& x, const KnownAccess& y) {
    if (x.first_pos != y.first_pos) {
      return x.first_pos < y.first_pos;
    }
    return x.di < y.di;
  });
  return out;
}

bool Lifs::Execute(const PreemptionSchedule& schedule, int interleavings) {
  if (!tried_schedules_.insert(schedule.ToString()).second) {
    obs::Span("lifs", "lifs.prune", 'i').Arg("reason", "duplicate-schedule");
    return false;  // exact schedule already run
  }
  obs::Span span("lifs", "lifs.run");
  span.Arg("k", interleavings).Arg("points", schedule.points.size());
  StatusOr<EnforceResult> supervised = supervisor_.RunPreemption(
      slice_, schedule, setup_, static_cast<uint64_t>(result_.schedules_executed));
  ++result_.schedules_executed;
  if (!supervised.ok()) {
    if (supervised.status().code() == StatusCode::kInvalidArgument) {
      // The slice's setup phase faulted or never finished: the input itself
      // is broken and every run would fail alike, so the search ends here.
      result_.status = supervised.status();
    } else {
      // Lost after every retry (deadline, livelock, injected fault). Nothing
      // usable was observed; skip the schedule and move on — LIFS
      // completeness degrades gracefully instead of crashing or learning
      // from a corrupt partial trace.
      ++result_.aborted_runs;
    }
    span.Arg("aborted", true);
    return false;
  }
  const RunResult& run = supervised->run;
  Learn(run);
  const bool fresh = fingerprints_.insert(TraceFingerprint(run)).second;
  const bool matched = MatchesTarget(run.failure);
  LifsMetrics::Get().preemption_points->Record(static_cast<int64_t>(schedule.points.size()));
  if (options_.keep_explored) {
    result_.explored.push_back(
        {schedule, interleavings, run.failure.has_value(), matched, !fresh});
  }
  if (matched) {
    obs::Span("lifs", "lifs.match", 'i')
        .Arg("k", interleavings)
        .Arg("points", schedule.points.size())
        .Arg("schedule", schedule.ToString());
    obs::PublishDiagEvent(options_.event_scope, obs::DiagPhase::kLifs, "lifs.reproduced",
                          schedule.ToString(),
                          {{"interleavings", interleavings},
                           {"schedules_executed", result_.schedules_executed}});
    FinalizeFailingRun(run, schedule, interleavings);
  }
  span.Arg("failed", run.failure.has_value()).Arg("matched", matched);
  return matched;
}

bool Lifs::RunFrontier(const FrontierFn& next, int interleavings) {
  while (!SearchCutShort()) {
    std::optional<PreemptionSchedule> schedule = next();
    if (!schedule.has_value()) {
      return false;
    }
    if (Execute(*schedule, interleavings)) {
      return true;
    }
  }
  return false;
}

void Lifs::FinalizeFailingRun(const RunResult& run, const PreemptionSchedule& schedule,
                              int interleavings) {
  result_.reproduced = true;
  result_.failure = run.failure;
  result_.failing_run = run;
  result_.failing_schedule = schedule;
  result_.interleaving_count = interleavings;
  result_.races = ExtractRaces(run);
  for (size_t tid = 0; tid < run.threads.size(); ++tid) {
    if (run.threads[tid].kind == ThreadKind::kHardIrq) {
      result_.irq_threads[static_cast<ThreadId>(tid)] = {run.threads[tid].prog,
                                                         run.threads[tid].arg};
    }
  }

  // Phantom races (§3.4, Figure 6 step 1): conflicting pairs whose second
  // side is an instruction the failure preempted. Reconstructed from the
  // reference streams of clean runs whose control flow matches the executed
  // prefix of the unfinished thread.
  std::map<ThreadId, std::vector<ExecEvent>> executed;
  for (const ExecEvent& e : run.trace) {
    executed[e.di.tid].push_back(e);
  }
  int64_t phantom_seq = run.trace.empty() ? 1 : run.trace.back().seq + 1;
  std::set<std::pair<DynInstr, DynInstr>> dedupe;
  constexpr size_t kMaxPhantoms = 64;

  for (const auto& [tid, ref] : result_.reference_streams) {
    const auto& done = executed[tid];
    if (done.size() >= ref.size()) {
      continue;  // finished (or ref no longer ahead)
    }
    bool prefix_ok = true;
    for (size_t i = 0; i < done.size(); ++i) {
      if (!(done[i].di == ref[i].di)) {
        prefix_ok = false;
        break;
      }
    }
    if (!prefix_ok) {
      continue;  // the failing path diverged from the reference path
    }
    for (size_t i = done.size(); i < ref.size(); ++i) {
      const ExecEvent& f = ref[i];
      if (!f.is_access) {
        continue;
      }
      for (const ExecEvent& e : run.trace) {
        if (!e.is_access || e.di.tid == tid || !Conflicting(e, f)) {
          continue;
        }
        if (!dedupe.insert({e.di, f.di}).second) {
          continue;
        }
        RacePair p;
        p.first = e;
        p.second = f;
        p.second.seq = phantom_seq++;
        result_.phantom_races.push_back(p);
        if (result_.phantom_races.size() >= kMaxPhantoms) {
          return;
        }
      }
    }
  }
}

LifsResult Lifs::Run() {
  obs::Span span("lifs", "lifs.search");
  search_watch_.Reset();
  RunSearch();
  result_.budget = supervisor_.budget();
  span.Arg("reproduced", result_.reproduced)
      .Arg("k", result_.interleaving_count)
      .Arg("schedules", result_.schedules_executed)
      .Arg("pruned", result_.schedules_pruned)
      .Arg("aborted", result_.aborted_runs);

  // Publish the search totals once, from the authoritative LifsResult
  // counters — report.metrics.lifs.* can never drift from LifsResult.
  const LifsMetrics& m = LifsMetrics::Get();
  m.searches->Increment();
  if (result_.reproduced) {
    m.reproduced->Increment();
  }
  m.schedules_executed->Add(result_.schedules_executed);
  m.schedules_pruned->Add(result_.schedules_pruned);
  m.aborted_runs->Add(result_.aborted_runs);
  m.discovery_us->Add(static_cast<int64_t>(result_.discovery_seconds * 1e6));
  m.depth_us->Add(static_cast<int64_t>(result_.depth_seconds * 1e6));
  return result_;
}

LifsResult Lifs::RunSearch() {
  Stopwatch watch;
  // Discover the concurrent thread ids (setup threads occupy lower ids).
  std::vector<ThreadId> tids;
  {
    KernelSim probe(image_, slice_, setup_);
    ThreadId first = probe.first_initial_thread();
    for (size_t i = 0; i < slice_.size(); ++i) {
      tids.push_back(first + static_cast<ThreadId>(i));
    }
  }
  result_.slice_tids = tids;

  std::vector<std::vector<ThreadId>> perms;
  {
    std::vector<ThreadId> perm = tids;
    std::sort(perm.begin(), perm.end());
    do {
      perms.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }

  bool discovery_done = false;
  auto finish = [&]() -> LifsResult& {
    result_.seconds = watch.ElapsedSeconds();
    if (!discovery_done) {
      result_.discovery_seconds = result_.seconds;
    }
    result_.depth_seconds = result_.seconds - result_.discovery_seconds;
    return result_;
  };

  // Interleaving count 0: sequential orders (also the discovery runs).
  {
    size_t next_perm = 0;
    FrontierFn frontier = [&]() -> std::optional<PreemptionSchedule> {
      if (next_perm >= perms.size()) {
        return std::nullopt;
      }
      return PreemptionSchedule{perms[next_perm++], {}};
    };
    if (RunFrontier(frontier, 0)) {
      return finish();
    }
  }

  // IRQ discovery (§4.6 extension): a handler's instructions are unknown
  // until it runs once, but the conflict restriction needs them to propose
  // injection points. Inject each line once at the first known access.
  if (!options_.irq_lines.empty()) {
    DynInstr first_access;
    bool have_access = false;
    for (const auto& [tid, accesses] : knowledge_) {
      (void)tid;
      for (const KnownAccess& a : accesses) {
        if (!have_access || a.first_pos < 0) {
          first_access = a.di;
          have_access = true;
          break;
        }
      }
      if (have_access) {
        break;
      }
    }
    if (have_access) {
      size_t next_line = 0;
      FrontierFn frontier = [&]() -> std::optional<PreemptionSchedule> {
        if (next_line >= options_.irq_lines.size()) {
          return std::nullopt;
        }
        const IrqLine& line = options_.irq_lines[next_line++];
        PreemptionSchedule schedule;
        schedule.base_order = perms.front();
        schedule.points = {{first_access, /*before=*/true, kNoThread, line.handler, line.arg}};
        return schedule;
      };
      if (RunFrontier(frontier, 1)) {
        return finish();
      }
    }
  }

  result_.discovery_seconds = watch.ElapsedSeconds();
  discovery_done = true;
  obs::PublishDiagEvent(options_.event_scope, obs::DiagPhase::kLifs, "lifs.discovery", "",
                        {{"schedules_executed", result_.schedules_executed}});

  for (int k = 1; k <= options_.max_interleavings; ++k) {
    // Knowledge can grow while exploring depth k (race-steered control
    // flows); regenerate candidates until a full pass adds nothing new.
    for (;;) {
      if (SearchCutShort()) {
        return finish();
      }
      std::vector<KnownAccess> candidates = ConflictCandidates();
      size_t total_known = 0;
      for (const auto& [tid, accesses] : knowledge_) {
        (void)tid;
        total_known += accesses.size();
      }
      if (options_.dpor_pruning && candidates.size() < total_known) {
        // Preemptions at non-conflicting instructions are equivalent to not
        // preempting at all — count them as pruned once per depth pass.
        const int64_t pruned =
            static_cast<int64_t>((total_known - candidates.size()) * perms.size());
        result_.schedules_pruned += pruned;
        obs::Span("lifs", "lifs.prune", 'i')
            .Arg("reason", "dpor-nonconflicting")
            .Arg("count", pruned)
            .Arg("depth", k);
      }

      const size_t known_before = total_known;
      obs::PublishDiagEvent(options_.event_scope, obs::DiagPhase::kLifs, "lifs.pass", "",
                            {{"depth", k},
                             {"candidates", static_cast<int64_t>(candidates.size())},
                             {"schedules_executed", result_.schedules_executed}});

      // One pass over the depth-k frontier. Candidates are a snapshot:
      // knowledge learned mid-pass only affects the next pass (the pass's
      // schedule set is fixed at pass start).
      const size_t stride = 2 + 2 * options_.irq_lines.size();
      PassFrontier pass(std::move(candidates), stride, static_cast<size_t>(k), &perms,
                        &options_.irq_lines);
      FrontierFn frontier = [&pass]() { return pass.Next(); };
      if (RunFrontier(frontier, k)) {
        return finish();
      }
      if (SearchCutShort()) {
        return finish();
      }

      size_t known_after = 0;
      for (const auto& [tid, accesses] : knowledge_) {
        (void)tid;
        known_after += accesses.size();
      }
      if (known_after == known_before) {
        break;  // no dynamic discovery at this depth; deepen
      }
    }
  }

  return finish();
}

}  // namespace aitia
