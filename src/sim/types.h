// Core identifiers and the memory map of the simulated kernel.
//
// The simulator is the substrate that replaces the paper's KVM/QEMU-controlled
// Linux kernel (DESIGN.md §2). Addresses are 64-bit and word-granular: every
// address names one 64-bit cell. Three regions exist:
//
//   [0, kNullPageEnd)            the null page — any access is a NULL deref
//   [kGlobalBase, kGlobalEnd)    named global variables (scenario-declared)
//   [kHeapBase, ...)             kmalloc'd objects with redzones + quarantine

#ifndef SRC_SIM_TYPES_H_
#define SRC_SIM_TYPES_H_

#include <cstdint>
#include <limits>

namespace aitia {

using Addr = uint64_t;
using Word = int64_t;
using ThreadId = int32_t;
using ProgramId = int32_t;
using Pc = int32_t;

inline constexpr ThreadId kNoThread = -1;
inline constexpr ProgramId kNoProgram = -1;

inline constexpr Addr kNullPageEnd = 0x1000;
inline constexpr Addr kGlobalBase = 0x10000;
inline constexpr Addr kGlobalEnd = 0x40000;
inline constexpr Addr kHeapBase = 0x100000;

// Number of guard cells placed on each side of a heap object (KASAN redzone).
inline constexpr Addr kRedzoneCells = 2;
// Unmapped gap between consecutive heap objects, so wild-pointer accesses
// beyond the redzone fault as general protection faults instead of silently
// landing in a neighbouring allocation.
inline constexpr Addr kHeapObjectGap = 64;
// Largest object kmalloc hands out, in cells: 4 MiB of 8-byte words, the
// kernel's KMALLOC_MAX_SIZE. A larger request returns NULL like a failed
// kmalloc, and the .ait assembler refuses one outright.
inline constexpr Word kMaxAllocCells = Word{1} << 19;
// Sentinel blocked_on address for a thread waiting on IPI acknowledgements.
inline constexpr Addr kIpiWaitAddr = ~Addr{0};

// Register file size per thread context.
inline constexpr int kNumRegs = 16;

// A register name. r0 receives the thread argument on entry.
enum Reg : uint8_t {
  R0 = 0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, R13, R14, R15,
};

// Static identity of an instruction: a "kernel code address". Two dynamic
// executions of the same code share the same InstrAddr — this is what
// breakpoints, schedules, and causality chains refer to, mirroring the
// paper's use of kernel instruction addresses.
struct InstrAddr {
  ProgramId prog = kNoProgram;
  Pc pc = -1;

  friend bool operator==(const InstrAddr&, const InstrAddr&) = default;
  friend auto operator<=>(const InstrAddr&, const InstrAddr&) = default;
};

// Dynamic identity of one executed instruction instance.
struct DynInstr {
  ThreadId tid = kNoThread;
  InstrAddr at;
  // How many times this thread had already executed `at` before this
  // instance (0 for the first execution). Disambiguates loop iterations.
  int32_t occurrence = 0;

  friend bool operator==(const DynInstr&, const DynInstr&) = default;
  friend auto operator<=>(const DynInstr&, const DynInstr&) = default;
};

}  // namespace aitia

template <>
struct std::hash<aitia::InstrAddr> {
  size_t operator()(const aitia::InstrAddr& a) const noexcept {
    return std::hash<uint64_t>()((static_cast<uint64_t>(a.prog) << 32) ^
                                 static_cast<uint32_t>(a.pc));
  }
};

template <>
struct std::hash<aitia::DynInstr> {
  size_t operator()(const aitia::DynInstr& d) const noexcept {
    size_t h = std::hash<aitia::InstrAddr>()(d.at);
    h ^= (static_cast<uint64_t>(static_cast<uint32_t>(d.tid)) << 17) +
         static_cast<uint32_t>(d.occurrence) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

#endif  // SRC_SIM_TYPES_H_
