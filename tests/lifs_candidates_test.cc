// Differential test of LIFS's conflict candidates (src/core/lifs): the
// sweep in ConflictCandidates against the all-pairs predicate it replaces,
// on random access sets with both dpor_pruning settings. The sets mix
// single-cell reads and writes, multi-cell frees that overlap them, zero-
// length ranges and ranges whose end wraps past the top of the address
// space, over a few cells so that most accesses meet another thread's.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/core/lifs.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace aitia {
namespace {

// The reference: every access when pruning is off, else each access that
// overlaps an access of another thread with one of the two writing, found
// by comparing all pairs; earliest-discovered first.
std::vector<KnownAccess> AllPairsCandidates(const std::vector<KnownAccess>& known,
                                            bool dpor_pruning) {
  std::vector<KnownAccess> out;
  for (const KnownAccess& a : known) {
    const bool conflicts = std::any_of(known.begin(), known.end(), [&](const KnownAccess& b) {
      if (b.di.tid == a.di.tid) {
        return false;
      }
      const bool overlap = a.addr < b.addr + b.len && b.addr < a.addr + a.len;
      return overlap && (a.write || b.write);
    });
    if (!dpor_pruning || conflicts) {
      out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end(), [](const KnownAccess& x, const KnownAccess& y) {
    if (x.first_pos != y.first_pos) {
      return x.first_pos < y.first_pos;
    }
    return x.di < y.di;
  });
  return out;
}

std::string Describe(const std::vector<KnownAccess>& accesses) {
  std::string out;
  for (const KnownAccess& a : accesses) {
    out += StrFormat("T%d(%d:%d)#%d %s [%llu,+%llu) pos %lld\n", a.di.tid, a.di.at.prog,
                     a.di.at.pc, a.di.occurrence, a.write ? "W" : "R",
                     static_cast<unsigned long long>(a.addr),
                     static_cast<unsigned long long>(a.len), static_cast<long long>(a.first_pos));
  }
  return out;
}

std::vector<DynInstr> Instrs(const std::vector<KnownAccess>& accesses) {
  std::vector<DynInstr> out;
  for (const KnownAccess& a : accesses) {
    out.push_back(a.di);
  }
  return out;
}

std::vector<KnownAccess> RandomAccesses(Rng& rng) {
  constexpr Addr kTop = std::numeric_limits<Addr>::max();
  const auto threads = static_cast<ThreadId>(1 + rng.NextBelow(4));
  const size_t count = rng.NextBelow(40);
  std::vector<KnownAccess> out;
  for (size_t i = 0; i < count; ++i) {
    KnownAccess a;
    a.di.tid = static_cast<ThreadId>(rng.NextBelow(static_cast<uint64_t>(threads)));
    a.di.at = {a.di.tid, static_cast<Pc>(i)};  // distinct per access, like the knowledge base
    a.di.occurrence = static_cast<int32_t>(rng.NextBelow(3));
    a.first_pos = static_cast<int64_t>(rng.NextBelow(8));
    a.write = rng.Chance(2, 5);
    a.addr = kHeapBase + rng.NextBelow(10);
    if (rng.Chance(1, 20)) {
      a.addr = kTop - rng.NextBelow(4);  // the end wraps for the larger ranges
    }
    if (rng.Chance(1, 6)) {
      a.len = 2 + rng.NextBelow(5);  // a free covering the whole object
      a.write = true;
    } else if (rng.Chance(1, 30)) {
      a.len = 0;
    }
    out.push_back(a);
  }
  return out;
}

TEST(LifsCandidatesTest, SweepEqualsAllPairsOnRandomAccessSets) {
  Rng rng(20261019);
  size_t pruned = 0;
  size_t kept = 0;
  for (int set = 0; set < 2000; ++set) {
    const std::vector<KnownAccess> known = RandomAccesses(rng);
    for (bool dpor : {true, false}) {
      const std::vector<KnownAccess> want = AllPairsCandidates(known, dpor);
      const std::vector<KnownAccess> got = ConflictCandidates(known, dpor);
      ASSERT_EQ(Instrs(got), Instrs(want))
          << "set " << set << ", dpor_pruning " << dpor << "\nknown:\n"
          << Describe(known) << "want:\n"
          << Describe(want) << "got:\n"
          << Describe(got);
      if (dpor) {
        pruned += known.size() - want.size();
        kept += want.size();
      }
    }
  }
  // The sets exercise both outcomes, not one.
  EXPECT_GT(pruned, 1000u);
  EXPECT_GT(kept, 1000u);
}

TEST(LifsCandidatesTest, FreeRangeConflictsWithEveryCellItCovers) {
  auto access = [](ThreadId tid, Pc pc, Addr addr, Addr len, bool write) {
    KnownAccess a;
    a.di = {tid, {0, pc}, 0};
    a.addr = addr;
    a.len = len;
    a.write = write;
    a.first_pos = pc;
    return a;
  };
  const std::vector<KnownAccess> known = {
      access(0, 0, kHeapBase, 4, true),      // kfree of a 4-cell object
      access(1, 1, kHeapBase + 3, 1, false),  // read of its last cell
      access(1, 2, kHeapBase + 4, 1, false),  // read just past it
      access(2, 3, kHeapBase + 4, 1, false),  // another read of that cell
  };
  const std::vector<DynInstr> want = {known[0].di, known[1].di};
  EXPECT_EQ(Instrs(ConflictCandidates(known, true)), want);
  EXPECT_EQ(ConflictCandidates(known, false).size(), known.size());
}

}  // namespace
}  // namespace aitia
