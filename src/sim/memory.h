// Simulated kernel memory with KASAN-style checking.
//
// - Word-granular flat address space backed by a hash map.
// - Globals are always addressable.
// - kmalloc carves objects out of a bump region, surrounds them with
//   redzone cells, and *never reuses* freed addresses (quarantine), so every
//   use-after-free is detected deterministically — the well-behaved analog of
//   running the paper's instrumented kernel with KASAN enabled (§5).
// - Intrinsic linked lists live in a side table keyed by their head-cell
//   address; list ops perform exactly one checked access to the head cell, so
//   list races surface as conflicting accesses on the head.

#ifndef SRC_SIM_MEMORY_H_
#define SRC_SIM_MEMORY_H_

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/sim/failure.h"
#include "src/sim/program.h"
#include "src/sim/types.h"

namespace aitia {

struct HeapObject {
  Addr base = 0;        // first usable cell (after the leading redzone)
  Word cells = 0;       // usable size
  bool freed = false;
  bool leak_checked = false;
  DynInstr alloc_site;
  DynInstr free_site;
};

// Result of a checked access: either a value (loads) or a failure.
struct AccessOutcome {
  std::optional<FailureType> fault;
  Word value = 0;
};

class Memory {
 public:
  explicit Memory(const KernelImage& image);

  // Checked shared-memory operations. `writer` is the dynamic instruction
  // performing the access (for fault attribution).
  AccessOutcome Load(Addr addr);
  AccessOutcome Store(Addr addr, Word value);

  // Allocator. Returns the object base address, or 0 (NULL, like a failed
  // kmalloc) when `cells` exceeds kMaxAllocCells. O(1) whatever the size.
  Addr Alloc(Word cells, bool leak_checked, DynInstr site);
  std::optional<FailureType> Free(Addr base, DynInstr site);

  // Unchecked accessors used by lock/list/refcount intrinsics after their own
  // region check, and by tests.
  Word Peek(Addr addr) const;
  void Poke(Addr addr, Word value);

  // Validates that `addr` is a readable/writable cell; returns the fault
  // class if not. Shared by every intrinsic.
  std::optional<FailureType> Check(Addr addr) const;

  // Intrinsic list storage (head cell holds the length, mirrored on change).
  std::deque<Word>& ListAt(Addr head);

  // Live leak-checked objects (for the end-of-run leak detector).
  std::vector<const HeapObject*> LiveLeakCheckedObjects() const;

  // Leak detector: live leak-checked objects whose base pointer is no longer
  // reachable from any root — global cells, live heap cells, or intrinsic
  // list elements. An object that is still published somewhere is not a leak
  // even if nobody freed it yet.
  std::vector<const HeapObject*> LeakedObjects() const;

  // Object lookup by any interior address; nullptr if not a heap address.
  const HeapObject* FindObject(Addr addr) const;

  size_t object_count() const { return objects_.size(); }

 private:
  enum class Shadow : uint8_t { kUnmapped, kAddressable, kFreed, kRedzone };

  Shadow ShadowAt(Addr addr) const;

  std::unordered_map<Addr, Word> cells_;
  std::vector<HeapObject> objects_;
  std::unordered_map<Addr, std::deque<Word>> lists_;
  Addr next_heap_ = kHeapBase;
  Addr global_top_ = kGlobalBase;
};

}  // namespace aitia

#endif  // SRC_SIM_MEMORY_H_
