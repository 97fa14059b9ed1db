#include "src/core/causality.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/obs/trace.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"

namespace aitia {

const char* RaceVerdictName(RaceVerdict verdict) {
  switch (verdict) {
    case RaceVerdict::kRootCause: return "root-cause";
    case RaceVerdict::kBenign: return "benign";
    case RaceVerdict::kInconclusive: return "inconclusive";
    case RaceVerdict::kAmbiguous: return "ambiguous";
  }
  return "?";
}

CausalityAnalysis::CausalityAnalysis(const KernelImage* image, std::vector<ThreadSpec> slice,
                                     std::vector<ThreadSpec> setup, const LifsResult* lifs,
                                     CausalityOptions options, DiagContext* ctx)
    : image_(image),
      slice_(std::move(slice)),
      setup_(std::move(setup)),
      lifs_(lifs),
      options_(options),
      own_ctx_(ctx == nullptr ? std::make_unique<DiagContext>() : nullptr),
      ctx_(ctx == nullptr ? own_ctx_.get() : ctx) {}

TotalOrderSchedule CausalityAnalysis::BuildFlip(const TestItem& item) const {
  const auto& trace = lifs_->failing_run.trace;
  TotalOrderSchedule schedule;
  schedule.base_order = lifs_->failing_schedule.base_order;
  schedule.irq_threads = lifs_->irq_threads;

  if (!item.phantom) {
    // Block move: thread(first)'s events in [a_seq, b_seq] land right after
    // the second side (flip as a unit for critical-section pairs).
    int64_t a_seq = item.race.first.seq;
    int64_t b_seq = item.race.second.seq;
    if (item.race.cs_pair) {
      a_seq = item.race.first_cs_begin;
      b_seq = item.race.second_cs_end;
    }
    const ThreadId mover = item.race.first.di.tid;
    std::vector<DynInstr> block;
    for (const ExecEvent& e : trace) {
      if (e.di.tid == mover && e.seq >= a_seq && e.seq <= b_seq) {
        block.push_back(e.di);
      }
    }
    for (const ExecEvent& e : trace) {
      const bool in_block = e.di.tid == mover && e.seq >= a_seq && e.seq <= b_seq;
      if (!in_block) {
        schedule.sequence.push_back(e.di);
      }
      if (e.seq == b_seq) {
        schedule.sequence.insert(schedule.sequence.end(), block.begin(), block.end());
      }
    }
    return schedule;
  }

  // Phantom flip (Figure 6 step 1): splice the unexecuted suffix of the
  // second side's thread — up to and including the phantom instruction —
  // immediately before the first side.
  const ThreadId tid = item.race.second.di.tid;
  auto ref_it = lifs_->reference_streams.find(tid);
  if (ref_it == lifs_->reference_streams.end()) {
    // No reference; degrade to replaying the original order (inconclusive).
    for (const ExecEvent& e : trace) {
      schedule.sequence.push_back(e.di);
    }
    return schedule;
  }
  const auto& ref = ref_it->second;
  size_t executed = 0;
  for (const ExecEvent& e : trace) {
    if (e.di.tid == tid) {
      ++executed;
    }
  }
  std::vector<DynInstr> block;
  for (size_t i = executed; i < ref.size(); ++i) {
    block.push_back(ref[i].di);
    if (ref[i].di == item.race.second.di) {
      break;
    }
  }
  for (const ExecEvent& e : trace) {
    if (e.seq == item.race.first.seq) {
      schedule.sequence.insert(schedule.sequence.end(), block.begin(), block.end());
    }
    schedule.sequence.push_back(e.di);
  }
  return schedule;
}

std::vector<size_t> CausalityAnalysis::NestedOf(const std::vector<TestItem>& items,
                                                size_t index) const {
  std::vector<size_t> nested;
  const TestItem& p = items[index];

  int64_t a_seq = 0;
  int64_t b_seq = 0;
  ThreadId mover = kNoThread;
  bool move_earlier = false;  // phantom flips move the block earlier
  if (!p.phantom) {
    a_seq = p.race.cs_pair ? p.race.first_cs_begin : p.race.first.seq;
    b_seq = p.race.cs_pair ? p.race.second_cs_end : p.race.second.seq;
    mover = p.race.first.di.tid;
  } else {
    mover = p.race.second.di.tid;
    move_earlier = true;
  }

  for (size_t j = 0; j < items.size(); ++j) {
    if (j == index) {
      continue;
    }
    const TestItem& q = items[j];
    if (!move_earlier) {
      // q is reversed if q.first rides in the moved block while q.second
      // stays put inside the window.
      if (!q.phantom && q.race.first.di.tid == mover && q.race.first.seq >= a_seq &&
          q.race.first.seq <= b_seq && q.race.second.di.tid != mover &&
          q.race.second.seq > q.race.first.seq && q.race.second.seq <= b_seq) {
        nested.push_back(j);
      }
    } else {
      // Phantom block insertion before p.first reverses pairs whose second
      // side rides in the inserted block (same thread, at or before p's
      // phantom in program order — phantom seqs are assigned in reference
      // order) and whose first side executes at or after p.first.
      if (q.phantom && q.race.second.di.tid == mover &&
          q.race.second.seq <= p.race.second.seq &&
          q.race.first.seq >= p.race.first.seq) {
        nested.push_back(j);
      }
    }
  }
  return nested;
}

bool CausalityAnalysis::OccurredInOrder(const RacePair& race, const RunResult& run) {
  int64_t first_at = -1;
  int64_t second_at = -1;
  for (const ExecEvent& e : run.trace) {
    if (first_at < 0 && e.di == race.first.di) {
      first_at = e.seq;
    }
    if (second_at < 0 && e.di == race.second.di) {
      second_at = e.seq;
    }
  }
  return first_at >= 0 && second_at >= 0 && first_at < second_at;
}

bool CausalityAnalysis::BothSidesExecuted(const RacePair& race, const RunResult& run) {
  bool first = false;
  bool second = false;
  for (const ExecEvent& e : run.trace) {
    first = first || e.di == race.first.di;
    second = second || e.di == race.second.di;
    if (first && second) {
      return true;
    }
  }
  return false;
}

CausalityResult CausalityAnalysis::Run() {
  obs::Span analysis_span("causality", "causality.analysis");
  Stopwatch watch;
  CausalityResult result;

  // Assemble the test set: executed data races, critical-section pairs, and
  // phantom races — backward from the failure (§3.4).
  std::vector<TestItem> items;
  std::set<std::pair<DynInstr, DynInstr>> dedupe;
  auto add = [&](const RacePair& race, bool phantom) {
    if (items.size() >= options_.max_tests) {
      return;
    }
    if (dedupe.insert({race.first.di, race.second.di}).second) {
      items.push_back({race, phantom});
    }
  };
  for (const RacePair& r : lifs_->races.races) {
    add(r, false);
  }
  for (const RacePair& r : lifs_->races.cs_pairs) {
    add(r, false);
  }
  for (const RacePair& r : lifs_->phantom_races) {
    add(r, true);
  }
  // Consolidate entangled near-duplicates. Two races that share one side and
  // whose other sides are conflicting accesses of the same thread to the
  // same memory represent the same interleaving decision (e.g. a load and a
  // store of the same pointer right next to each other): flipping one
  // necessarily flips the other. Keep the representative whose flip moves
  // the smallest block — same-first races keep the earliest second,
  // same-second races keep the latest first. Critical-section pairs are
  // already consolidated units and stay untouched.
  auto ranges_overlap = [](const ExecEvent& a, const ExecEvent& b) {
    return a.addr < b.addr + b.len && b.addr < a.addr + a.len;
  };
  // Subsumption is checked pairwise regardless of drop status (the relation
  // is antisymmetric, so equivalence classes keep exactly one survivor even
  // when the "dropper" is itself subsumed by a third race).
  std::vector<bool> drop(items.size(), false);
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].race.cs_pair) {
      continue;
    }
    for (size_t j = 0; j < items.size(); ++j) {
      if (i == j || drop[j] || items[j].race.cs_pair) {
        continue;
      }
      const RacePair& p = items[i].race;
      const RacePair& q = items[j].race;
      // Same first side: q is subsumed if its second comes later.
      if (p.first.di == q.first.di && p.second.di.tid == q.second.di.tid &&
          ranges_overlap(p.second, q.second) && p.second.seq < q.second.seq) {
        drop[j] = true;
      }
      // Same second side: q is subsumed if its first comes earlier.
      if (p.second.di == q.second.di && p.first.di.tid == q.first.di.tid &&
          ranges_overlap(p.first, q.first) && p.first.seq > q.first.seq) {
        drop[j] = true;
      }
      // Surrounding phantom pairs: when two phantom races connect the same
      // pair of threads and q's window strictly contains p's, flipping p
      // (the inner pair) already reorders q — testing q separately only
      // manufactures a Figure-7 entanglement. Keep the minimal window.
      if (items[i].phantom && items[j].phantom &&
          p.first.di.tid == q.first.di.tid && p.second.di.tid == q.second.di.tid &&
          q.first.seq <= p.first.seq && q.second.seq >= p.second.seq &&
          !(p.first.di == q.first.di && p.second.di == q.second.di)) {
        drop[j] = true;
      }
    }
  }
  {
    std::vector<TestItem> kept;
    kept.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (!drop[i]) {
        kept.push_back(items[i]);
      }
    }
    items = std::move(kept);
  }

  std::sort(items.begin(), items.end(), [](const TestItem& x, const TestItem& y) {
    return x.race.second.seq > y.race.second.seq;  // backward
  });

  // Flip tests run in index order under supervision.
  Supervisor supervisor(image_, {options_.max_steps_per_run}, ctx_);
  std::vector<RunResult> flip_runs(items.size());
  std::vector<Status> flip_status(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    obs::Span span("causality", "ca.flip", 'X', obs::DiagPhase::kFlipTested, ctx_->frames);
    if (span.active()) {
      span.Arg("index", i)
          .Arg("total", items.size())
          .Arg("label", RaceLabel(*image_, items[i].race))
          .Arg("phantom", items[i].phantom)
          .Arg("critical_section", items[i].race.cs_pair);
    }
    TotalOrderSchedule flip = BuildFlip(items[i]);
    StatusOr<EnforceResult> er = supervisor.RunTotalOrder(slice_, flip, setup_);
    if (er.ok()) {
      flip_status[i] = er->status;
      flip_runs[i] = std::move(er->run);
    } else {
      flip_status[i] = er.status();
    }
    span.Arg("ok", flip_status[i].ok());
  }
  result.schedules_executed = static_cast<int64_t>(items.size());
  result.budget = supervisor.budget();

  // Verdicts.
  const Failure& symptom = *lifs_->failure;
  result.tested.resize(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    TestedRace& t = result.tested[i];
    t.race = items[i].race;
    t.phantom = items[i].phantom;
    t.nested = NestedOf(items, i);
    t.run_status = flip_status[i];
    const RunResult& run = flip_runs[i];

    // Graceful degradation: a flip run that was lost (cancelled) or cut
    // short (step budget / deadline / watchdog) yields no verdict. It is
    // reported kInconclusive — never benign or root-cause, both of which
    // would be fabricated from a partial run — and taints no other test.
    if (!t.run_status.ok()) {
      t.verdict = RaceVerdict::kInconclusive;
      ++result.inconclusive_count;
      result.inconclusive_indices.push_back(i);
      result.degraded = true;
      continue;
    }

    const bool still_original_order = OccurredInOrder(items[i].race, run);
    t.flip_took_effect = !still_original_order;
    t.flip_still_failed =
        run.failure.has_value() && SameSymptom(*run.failure, symptom);

    if (!t.flip_took_effect) {
      t.verdict = RaceVerdict::kInconclusive;
    } else if (t.flip_still_failed) {
      t.verdict = RaceVerdict::kBenign;
      ++result.benign_count;
    } else {
      t.verdict = RaceVerdict::kRootCause;
    }

    // Disappearance means an instruction vanished from the run (race-steered
    // control flow), not that the pair merely ran in a different order.
    for (size_t j = 0; j < items.size(); ++j) {
      if (j != i && !BothSidesExecuted(items[j].race, run)) {
        t.disappeared.push_back(j);
      }
    }
  }

  // Ambiguity (§3.4): a flip that necessarily reversed a nested race cannot
  // be attributed when both are root causes.
  for (size_t i = 0; i < items.size(); ++i) {
    TestedRace& t = result.tested[i];
    if (t.verdict != RaceVerdict::kRootCause) {
      continue;
    }
    for (size_t j : t.nested) {
      const RaceVerdict vj = result.tested[j].verdict;
      if (vj == RaceVerdict::kRootCause || vj == RaceVerdict::kAmbiguous) {
        t.verdict = RaceVerdict::kAmbiguous;
        result.ambiguous = true;
        break;
      }
    }
  }

  // Final verdicts are now settled (ambiguity upgrades included) — emit one
  // instant per race so the trace shows the per-decision outcome alongside
  // the flip spans, plus the per-verdict counters.
  obs::MetricsSnapshot& m = ctx_->metrics;
  {
    int64_t root_cause_count = 0;
    int64_t ambiguous_count = 0;
    for (size_t i = 0; i < result.tested.size(); ++i) {
      const TestedRace& t = result.tested[i];
      obs::Span verdict("causality", "ca.verdict", 'i', obs::DiagPhase::kVerdict,
                        ctx_->frames);
      if (verdict.active()) {
        verdict.Arg("index", i)
            .Arg("label", RaceLabel(*image_, t.race))
            .Arg("verdict", RaceVerdictName(t.verdict))
            .Arg("phantom", t.phantom)
            .Arg("critical_section", t.race.cs_pair);
      }
      root_cause_count += t.verdict == RaceVerdict::kRootCause ? 1 : 0;
      ambiguous_count += t.verdict == RaceVerdict::kAmbiguous ? 1 : 0;
    }
    m.counters["causality.analyses"] += 1;
    m.counters["causality.flip_tests"] += result.schedules_executed;
    m.counters["causality.verdicts.root_cause"] += root_cause_count;
    m.counters["causality.verdicts.benign"] += result.benign_count;
    m.counters["causality.verdicts.inconclusive"] += result.inconclusive_count;
    m.counters["causality.verdicts.ambiguous"] += ambiguous_count;
    result.budget.AddTo(m);
  }

  // Chain construction from the disappearance relation among root causes.
  std::vector<size_t> roots;
  for (size_t i = 0; i < result.tested.size(); ++i) {
    if (result.tested[i].verdict == RaceVerdict::kRootCause ||
        result.tested[i].verdict == RaceVerdict::kAmbiguous) {
      roots.push_back(i);
    }
  }
  result.root_cause_indices = roots;

  std::map<size_t, size_t> root_rank;
  for (size_t r = 0; r < roots.size(); ++r) {
    root_rank[roots[r]] = r;
  }
  std::vector<RacePair> root_races;
  std::vector<std::vector<size_t>> disappears(roots.size());
  std::vector<bool> ambiguous_flags(roots.size(), false);
  for (size_t r = 0; r < roots.size(); ++r) {
    const TestedRace& t = result.tested[roots[r]];
    root_races.push_back(t.race);
    ambiguous_flags[r] = t.verdict == RaceVerdict::kAmbiguous;
    for (size_t j : t.disappeared) {
      auto it = root_rank.find(j);
      if (it != root_rank.end()) {
        disappears[r].push_back(it->second);
      }
    }
  }
  result.chain = CausalityChain::Build(root_races, disappears, ambiguous_flags, symptom);
  result.seconds = watch.ElapsedSeconds();
  m.counters["causality.us"] += static_cast<int64_t>(result.seconds * 1e6);
  analysis_span.Arg("tests", result.schedules_executed)
      .Arg("root_causes", result.root_cause_indices.size())
      .Arg("degraded", result.degraded);
  return result;
}

}  // namespace aitia
