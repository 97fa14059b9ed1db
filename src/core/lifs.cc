#include "src/core/lifs.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace aitia {
namespace {

// Access-pattern fingerprint of one run (keep_explored only).
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

// The largest range end (addr + len) among the accesses added so far, kept
// for up to two threads: the largest overall, and the largest among every
// other thread. Together they give the largest end of any thread but `t`,
// for every `t`.
class EndsByThread {
 public:
  void Add(ThreadId tid, Addr end) {
    if (size_ == 0) {
      top_[0] = {tid, end};
      size_ = 1;
    } else if (tid == top_[0].tid) {
      top_[0].end = std::max(top_[0].end, end);
    } else if (end > top_[0].end) {
      top_[1] = top_[0];
      top_[0] = {tid, end};
      size_ = 2;
    } else if (size_ == 1 || end > top_[1].end) {
      top_[1] = {tid, end};
      size_ = 2;
    }
  }

  // True if an added access of a thread other than `tid` ends past `addr`.
  bool OtherEndsPast(ThreadId tid, Addr addr) const {
    for (size_t i = 0; i < size_; ++i) {
      if (top_[i].tid != tid) {
        return top_[i].end > addr;
      }
    }
    return false;
  }

 private:
  struct Entry {
    ThreadId tid = kNoThread;
    Addr end = 0;
  };
  Entry top_[2];
  size_t size_ = 0;
};

}  // namespace

std::vector<KnownAccess> ConflictCandidates(std::vector<KnownAccess> known, bool dpor_pruning) {
  std::vector<KnownAccess> out;
  if (!dpor_pruning) {
    out = std::move(known);
  } else {
    // DPOR-style restriction: preempting after `a` only creates a new order
    // if an access `b` of another thread conflicts with it,
    //   a.addr < b.addr + b.len && b.addr < a.addr + a.len && (a.write || b.write),
    // with the ends wrapping as unsigned sums. One sweep answers this for
    // every `a`: taking the accesses by ascending end, it adds every `b`
    // that starts below that end, then asks whether another thread's added
    // access ends past a.addr (any access for a write, a write for a read).
    const size_t n = known.size();
    auto end = [&known](size_t i) { return known[i].addr + known[i].len; };
    std::vector<size_t> by_start(n);
    std::iota(by_start.begin(), by_start.end(), 0);
    std::vector<size_t> by_end = by_start;
    std::sort(by_start.begin(), by_start.end(),
              [&known](size_t x, size_t y) { return known[x].addr < known[y].addr; });
    std::sort(by_end.begin(), by_end.end(), [&end](size_t x, size_t y) { return end(x) < end(y); });
    EndsByThread accesses;
    EndsByThread writes;
    std::vector<char> conflicts(n, 0);
    size_t added = 0;
    for (size_t q : by_end) {
      for (; added < n && known[by_start[added]].addr < end(q); ++added) {
        const size_t b = by_start[added];
        accesses.Add(known[b].di.tid, end(b));
        if (known[b].write) {
          writes.Add(known[b].di.tid, end(b));
        }
      }
      const KnownAccess& a = known[q];
      conflicts[q] = (a.write ? accesses : writes).OtherEndsPast(a.di.tid, a.addr);
    }
    for (size_t i = 0; i < n; ++i) {
      if (conflicts[i]) {
        out.push_back(known[i]);
      }
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

// Enumerates one depth-k pass of the search space in canonical order:
// k-point tuples front-to-back (candidate-major, lexicographic over the
// encoded candidate×variant space, adjacent-pair constraints applied), each
// tuple crossed with every base order, which std::next_permutation advances
// from the sorted one. Only tuples holding a `fresh` candidate are yielded:
// a re-pass at the same depth marks the candidates the pass before lacked,
// since that pass already ran every tuple of its own candidates (a subset of
// this pass's: candidates only grow).
class Lifs::PassFrontier {
 public:
  PassFrontier(std::vector<KnownAccess> candidates, std::vector<char> fresh, size_t stride,
               size_t k, std::vector<ThreadId> first_order, const std::vector<IrqLine>* irq_lines)
      : candidates_(std::move(candidates)),
        fresh_(std::move(fresh)),
        next_fresh_(candidates_.size() + 1, candidates_.size()),
        stride_(stride),
        k_(k),
        order_(std::move(first_order)),
        irq_lines_(irq_lines) {
    for (size_t i = candidates_.size(); i-- > 0;) {
      next_fresh_[i] = fresh_[i] ? i : next_fresh_[i + 1];
    }
  }

  std::optional<PreemptionSchedule> Next() {
    if (done_) {
      return std::nullopt;
    }
    if (first_) {
      first_ = false;
      if (!Extend(0)) {
        done_ = true;
        return std::nullopt;
      }
    } else if (!std::next_permutation(order_.begin(), order_.end())) {
      // order_ wrapped around to the sorted base order: next tuple.
      if (!NextTuple()) {
        done_ = true;
        return std::nullopt;
      }
    }
    PreemptionSchedule schedule;
    schedule.base_order = order_;
    schedule.points.reserve(tuple_.size());
    for (size_t e : tuple_) {
      schedule.points.push_back(DecodePoint(e));
    }
    return schedule;
  }

 private:
  // Grows tuple_ to length k_, trying encoded values from `start` upward at
  // the current level and from 0 at deeper levels (lexicographic DFS). The
  // last point of a tuple with no fresh candidate yet must be fresh.
  bool Extend(size_t start) {
    const bool need_fresh = tuple_.size() + 1 == k_ && fresh_points_ == 0;
    for (size_t e = start; e < candidates_.size() * stride_; ++e) {
      const size_t i = e / stride_;
      if (need_fresh && !fresh_[i]) {
        e = next_fresh_[i] * stride_ - 1;  // skip to the next fresh candidate
        continue;
      }
      if (!ValidAppend(e)) {
        continue;
      }
      tuple_.push_back(e);
      fresh_points_ += fresh_[i];
      if (tuple_.size() == k_ || Extend(0)) {
        return true;
      }
      Pop();
    }
    return false;
  }

  bool NextTuple() {
    while (!tuple_.empty()) {
      const size_t last = tuple_.back();
      Pop();
      if (Extend(last + 1)) {
        return true;
      }
    }
    return false;
  }

  void Pop() {
    fresh_points_ -= fresh_[tuple_.back() / stride_];
    tuple_.pop_back();
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
  std::vector<char> fresh_;
  // next_fresh_[i]: the first fresh candidate at or after i (size() if none).
  std::vector<size_t> next_fresh_;
  size_t stride_;
  size_t k_;
  std::vector<ThreadId> order_;  // the current base order
  const std::vector<IrqLine>* irq_lines_;
  std::vector<size_t> tuple_;
  size_t fresh_points_ = 0;  // fresh candidates in tuple_
  bool first_ = true;
  bool done_ = false;
};

Lifs::Lifs(const KernelImage* image, std::vector<ThreadSpec> slice,
           std::vector<ThreadSpec> setup, LifsOptions options, DiagContext* ctx)
    : image_(image),
      slice_(std::move(slice)),
      setup_(std::move(setup)),
      options_(std::move(options)),
      own_ctx_(ctx == nullptr ? std::make_unique<DiagContext>() : nullptr),
      ctx_(ctx == nullptr ? own_ctx_.get() : ctx),
      supervisor_(image, {options_.max_steps_per_run}, ctx_) {
  // A repeated IRQ line adds no schedule: keep its first occurrence.
  std::set<std::pair<ProgramId, Word>> lines;
  std::erase_if(options_.irq_lines,
                [&lines](const IrqLine& l) { return !lines.insert({l.handler, l.arg}).second; });
}

bool Lifs::SearchCutShort() {
  if (!result_.status.ok()) {
    return true;
  }
  if (result_.schedules_executed >= options_.max_schedules) {
    return true;
  }
  // An interrupted diagnosis stops the search itself, so it unwinds within
  // one run instead of enumerating the rest of the schedule budget as lost
  // runs.
  result_.status = ctx_->Interrupted();
  return !result_.status.ok();
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
  std::vector<int64_t> positions;  // events per thread so far, by tid
  for (const ExecEvent& e : run.trace) {
    const auto tid = static_cast<size_t>(e.di.tid);
    if (tid >= positions.size()) {
      positions.resize(tid + 1, 0);
    }
    const int64_t pos = positions[tid]++;
    if (e.is_access && known_instrs_.insert(e.di).second) {
      knowledge_[e.di.tid].push_back({e.di, e.addr, e.len, e.is_write, pos});
    }
  }

  // Keep complete per-thread streams from clean runs as phantom references.
  // A thread's events are copied only when they outnumber its reference.
  if (run.failure.has_value() || !run.all_exited) {
    return;
  }
  std::vector<std::vector<ExecEvent>*> longer(positions.size(), nullptr);
  bool any_longer = false;
  for (size_t tid = 0; tid < positions.size(); ++tid) {
    if (positions[tid] == 0) {
      continue;
    }
    std::vector<ExecEvent>& ref = result_.reference_streams[static_cast<ThreadId>(tid)];
    if (static_cast<size_t>(positions[tid]) > ref.size()) {
      ref.clear();
      ref.reserve(static_cast<size_t>(positions[tid]));
      longer[tid] = &ref;
      any_longer = true;
    }
  }
  if (any_longer) {
    for (const ExecEvent& e : run.trace) {
      if (std::vector<ExecEvent>* ref = longer[static_cast<size_t>(e.di.tid)]) {
        ref->push_back(e);
      }
    }
  }
}

bool Lifs::Execute(const PreemptionSchedule& schedule, int interleavings) {
  obs::Span span("lifs", "lifs.run");
  span.Arg("k", interleavings).Arg("points", schedule.points.size());
  StatusOr<EnforceResult> supervised = supervisor_.RunPreemption(slice_, schedule, setup_);
  ++result_.schedules_executed;
  if (!supervised.ok()) {
    if (supervised.status().code() == StatusCode::kInvalidArgument) {
      // The slice's setup phase faulted or never finished: the input itself
      // is broken and every run would fail alike, so the search ends here.
      result_.status = supervised.status();
    } else {
      // Lost to supervision (deadline, cancellation, livelock). Nothing
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
  const bool matched = MatchesTarget(run.failure);
  ctx_->metrics.Record("lifs.preemption_points", {0, 1, 2, 3, 4, 8},
                       static_cast<int64_t>(schedule.points.size()));
  if (options_.keep_explored) {
    const bool fresh = fingerprints_.insert(TraceFingerprint(run)).second;
    result_.explored.push_back(
        {schedule, interleavings, run.failure.has_value(), matched, !fresh});
  }
  if (matched) {
    obs::Span match("lifs", "lifs.match", 'i', obs::DiagPhase::kLifs, ctx_->frames);
    if (match.active()) {
      match.Arg("k", interleavings)
          .Arg("points", schedule.points.size())
          .Arg("schedule", schedule.ToString())
          .Arg("schedules_executed", result_.schedules_executed);
    }
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
  RunSearch();
  result_.budget = supervisor_.budget();
  span.Arg("reproduced", result_.reproduced)
      .Arg("k", result_.interleaving_count)
      .Arg("schedules", result_.schedules_executed)
      .Arg("pruned", result_.schedules_pruned)
      .Arg("aborted", result_.aborted_runs);

  // Record the search totals once, from the authoritative LifsResult
  // counters — report.metrics.lifs.* can never drift from LifsResult.
  obs::MetricsSnapshot& m = ctx_->metrics;
  m.counters["lifs.searches"] += 1;
  m.counters["lifs.reproduced"] += result_.reproduced ? 1 : 0;
  m.counters["lifs.schedules_executed"] += result_.schedules_executed;
  m.counters["lifs.schedules_pruned"] += result_.schedules_pruned;
  m.counters["lifs.aborted_runs"] += result_.aborted_runs;
  m.counters["lifs.discovery_us"] += static_cast<int64_t>(result_.discovery_seconds * 1e6);
  m.counters["lifs.depth_us"] += static_cast<int64_t>(result_.depth_seconds * 1e6);
  result_.budget.AddTo(m);
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

  // Base orders are enumerated lazily, std::next_permutation from the sorted
  // order, so the n! of them never sit in memory. The sequential frontier
  // counts them; the depth passes run only after it has yielded them all.
  std::vector<ThreadId> first_order = tids;
  std::sort(first_order.begin(), first_order.end());
  int64_t base_orders = 0;

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
    std::vector<ThreadId> order = first_order;
    bool exhausted = false;
    FrontierFn frontier = [&]() -> std::optional<PreemptionSchedule> {
      if (exhausted) {
        return std::nullopt;
      }
      PreemptionSchedule schedule{order, {}};
      ++base_orders;
      exhausted = !std::next_permutation(order.begin(), order.end());
      return schedule;
    };
    if (RunFrontier(frontier, 0)) {
      return finish();
    }
  }

  // IRQ discovery (§4.6 extension): a handler's instructions are unknown
  // until it runs once, but the conflict restriction needs them to propose
  // injection points. Inject each line once at the first known access.
  DynInstr first_access;
  bool have_access = false;
  if (!options_.irq_lines.empty()) {
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
        schedule.base_order = first_order;
        schedule.points = {{first_access, /*before=*/true, kNoThread, line.handler, line.arg}};
        return schedule;
      };
      if (RunFrontier(frontier, 1)) {
        return finish();
      }
    }
  }
  // The depth-1 passes propose every IRQ probe again; it already ran.
  auto is_irq_probe = [&](const PreemptionSchedule& schedule) {
    const PreemptPoint& p = schedule.points.front();
    return have_access && p.inject_irq != kNoProgram && p.before && p.after == first_access &&
           schedule.base_order == first_order;
  };

  result_.discovery_seconds = watch.ElapsedSeconds();
  discovery_done = true;
  obs::Span("lifs", "lifs.discovery", 'i', obs::DiagPhase::kLifs, ctx_->frames)
      .Arg("schedules_executed", result_.schedules_executed);

  for (int k = 1; k <= options_.max_interleavings; ++k) {
    // Candidates of the previous pass at this depth: its tuples already ran.
    std::unordered_set<DynInstr> passed;
    // Knowledge can grow while exploring depth k (race-steered control
    // flows); regenerate candidates until a full pass adds nothing new.
    for (;;) {
      if (SearchCutShort()) {
        return finish();
      }
      std::vector<KnownAccess> known;
      known.reserve(known_instrs_.size());
      for (const auto& [tid, accesses] : knowledge_) {
        (void)tid;
        known.insert(known.end(), accesses.begin(), accesses.end());
      }
      std::vector<KnownAccess> candidates = ConflictCandidates(std::move(known),
                                                               options_.dpor_pruning);
      const size_t known_before = known_instrs_.size();
      if (options_.dpor_pruning && candidates.size() < known_before) {
        // Preemptions at non-conflicting instructions are equivalent to not
        // preempting at all — count them as pruned once per depth pass.
        const int64_t pruned =
            static_cast<int64_t>(known_before - candidates.size()) * base_orders;
        result_.schedules_pruned += pruned;
        obs::Span("lifs", "lifs.prune", 'i')
            .Arg("reason", "dpor-nonconflicting")
            .Arg("count", pruned)
            .Arg("depth", k);
      }

      obs::Span("lifs", "lifs.pass", 'i', obs::DiagPhase::kLifs, ctx_->frames)
          .Arg("depth", k)
          .Arg("candidates", candidates.size())
          .Arg("schedules_executed", result_.schedules_executed);

      // One pass over the depth-k frontier. Candidates are a snapshot:
      // knowledge learned mid-pass only affects the next pass (the pass's
      // schedule set is fixed at pass start).
      std::vector<char> fresh(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        fresh[i] = passed.insert(candidates[i].di).second ? 1 : 0;
      }
      const size_t stride = 2 + 2 * options_.irq_lines.size();
      PassFrontier pass(std::move(candidates), std::move(fresh), stride, static_cast<size_t>(k),
                        first_order, &options_.irq_lines);
      FrontierFn frontier = [&]() {
        std::optional<PreemptionSchedule> schedule = pass.Next();
        while (k == 1 && schedule.has_value() && is_irq_probe(*schedule)) {
          schedule = pass.Next();
        }
        return schedule;
      };
      if (RunFrontier(frontier, k)) {
        return finish();
      }
      if (SearchCutShort()) {
        return finish();
      }
      if (known_instrs_.size() == known_before) {
        break;  // no dynamic discovery at this depth; deepen
      }
    }
  }

  return finish();
}

}  // namespace aitia
