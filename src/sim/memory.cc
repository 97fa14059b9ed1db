#include "src/sim/memory.h"

namespace aitia {

Memory::Memory(const KernelImage& image) {
  for (const GlobalVar& g : image.globals()) {
    cells_[g.addr] = g.init;
    if (g.addr >= global_top_) {
      global_top_ = g.addr + 1;
    }
  }
}

Memory::Shadow Memory::ShadowAt(Addr addr) const {
  if (addr >= kGlobalBase && addr < global_top_) {
    return Shadow::kAddressable;
  }
  if (addr >= kHeapBase && addr < next_heap_) {
    // Inside the carved heap: classify against the owning object layout.
    for (auto it = objects_.rbegin(); it != objects_.rend(); ++it) {
      const HeapObject& obj = *it;
      const Addr lo_red = obj.base - kRedzoneCells;
      const Addr hi_red_end = obj.base + static_cast<Addr>(obj.cells) + kRedzoneCells;
      if (addr >= lo_red && addr < hi_red_end) {
        if (addr < obj.base || addr >= obj.base + static_cast<Addr>(obj.cells)) {
          return Shadow::kRedzone;
        }
        return obj.freed ? Shadow::kFreed : Shadow::kAddressable;
      }
    }
  }
  return Shadow::kUnmapped;
}

std::optional<FailureType> Memory::Check(Addr addr) const {
  if (addr < kNullPageEnd) {
    return FailureType::kNullDeref;
  }
  switch (ShadowAt(addr)) {
    case Shadow::kAddressable:
      return std::nullopt;
    case Shadow::kFreed:
      return FailureType::kUseAfterFreeRead;  // caller upgrades writes
    case Shadow::kRedzone:
      return FailureType::kOutOfBounds;
    case Shadow::kUnmapped:
      return FailureType::kGeneralProtection;
  }
  return FailureType::kGeneralProtection;
}

AccessOutcome Memory::Load(Addr addr) {
  if (auto fault = Check(addr)) {
    return {.fault = fault};
  }
  auto it = cells_.find(addr);
  return {.value = it == cells_.end() ? 0 : it->second};
}

AccessOutcome Memory::Store(Addr addr, Word value) {
  if (auto fault = Check(addr)) {
    if (*fault == FailureType::kUseAfterFreeRead) {
      fault = FailureType::kUseAfterFreeWrite;
    }
    return {.fault = fault};
  }
  cells_[addr] = value;
  return {};
}

Addr Memory::Alloc(Word cells, bool leak_checked, DynInstr site) {
  if (cells <= 0) {
    cells = 1;
  }
  if (cells > kMaxAllocCells) {
    return 0;
  }
  // Fresh objects read as zero (kzalloc semantics keep scenarios simple)
  // without a write: Load and Peek read an absent cell as 0, and heap
  // addresses are never reused, so no cell of a new object is in cells_.
  HeapObject obj;
  obj.base = next_heap_ + kRedzoneCells;
  obj.cells = cells;
  obj.leak_checked = leak_checked;
  obj.alloc_site = site;
  next_heap_ = obj.base + static_cast<Addr>(cells) + kRedzoneCells + kHeapObjectGap;
  objects_.push_back(obj);
  return obj.base;
}

std::optional<FailureType> Memory::Free(Addr base, DynInstr site) {
  if (base < kNullPageEnd) {
    // kfree(NULL) is a no-op, as in the kernel.
    return std::nullopt;
  }
  for (auto& obj : objects_) {
    if (obj.base == base) {
      if (obj.freed) {
        return FailureType::kDoubleFree;
      }
      obj.freed = true;
      obj.free_site = site;
      return std::nullopt;
    }
  }
  return FailureType::kBadFree;
}

Word Memory::Peek(Addr addr) const {
  auto it = cells_.find(addr);
  return it == cells_.end() ? 0 : it->second;
}

void Memory::Poke(Addr addr, Word value) { cells_[addr] = value; }

std::deque<Word>& Memory::ListAt(Addr head) { return lists_[head]; }

std::vector<const HeapObject*> Memory::LiveLeakCheckedObjects() const {
  std::vector<const HeapObject*> live;
  for (const auto& obj : objects_) {
    if (obj.leak_checked && !obj.freed) {
      live.push_back(&obj);
    }
  }
  return live;
}

std::vector<const HeapObject*> Memory::LeakedObjects() const {
  std::vector<const HeapObject*> leaked;
  for (const HeapObject* obj : LiveLeakCheckedObjects()) {
    const Word needle = static_cast<Word>(obj->base);
    bool reachable = false;
    for (const auto& [addr, value] : cells_) {
      if (value != needle) {
        continue;
      }
      // A pointer stored inside a freed object is not a root.
      const HeapObject* owner = FindObject(addr);
      if (owner != nullptr && owner->freed) {
        continue;
      }
      reachable = true;
      break;
    }
    if (!reachable) {
      for (const auto& [head, list] : lists_) {
        (void)head;
        for (Word v : list) {
          if (v == needle) {
            reachable = true;
            break;
          }
        }
        if (reachable) {
          break;
        }
      }
    }
    if (!reachable) {
      leaked.push_back(obj);
    }
  }
  return leaked;
}

const HeapObject* Memory::FindObject(Addr addr) const {
  for (const auto& obj : objects_) {
    if (addr >= obj.base && addr < obj.base + static_cast<Addr>(obj.cells)) {
      return &obj;
    }
  }
  return nullptr;
}

}  // namespace aitia
