// Unit tests for the simulated memory + KASAN shadow (src/sim/memory).

#include <gtest/gtest.h>

#include <limits>

#include "src/sim/memory.h"

namespace aitia {
namespace {

KernelImage ImageWithGlobals() {
  KernelImage image;
  image.AddGlobal("a", 11);
  image.AddGlobal("b", 22);
  return image;
}

TEST(MemoryTest, GlobalsInitializedAndAddressable) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  EXPECT_EQ(mem.Load(image.GlobalAddr("a")).value, 11);
  EXPECT_EQ(mem.Load(image.GlobalAddr("b")).value, 22);
  EXPECT_FALSE(mem.Load(image.GlobalAddr("a")).fault.has_value());
}

TEST(MemoryTest, StoreThenLoadRoundTrips) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr a = image.GlobalAddr("a");
  EXPECT_FALSE(mem.Store(a, 77).fault.has_value());
  EXPECT_EQ(mem.Load(a).value, 77);
}

TEST(MemoryTest, NullPageFaults) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  EXPECT_EQ(mem.Load(0).fault, FailureType::kNullDeref);
  EXPECT_EQ(mem.Load(kNullPageEnd - 1).fault, FailureType::kNullDeref);
  EXPECT_EQ(mem.Store(5, 1).fault, FailureType::kNullDeref);
}

TEST(MemoryTest, UnmappedAddressIsGeneralProtection) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  EXPECT_EQ(mem.Load(kHeapBase + 12345).fault, FailureType::kGeneralProtection);
  EXPECT_EQ(mem.Load(kGlobalEnd + 1).fault, FailureType::kGeneralProtection);
}

TEST(MemoryTest, FreshAllocationReadsZero) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(4, false, {});
  for (Addr i = 0; i < 4; ++i) {
    AccessOutcome out = mem.Load(base + i);
    EXPECT_FALSE(out.fault.has_value());
    EXPECT_EQ(out.value, 0);
  }
}

// Above the per-object cap kmalloc fails with NULL and carves nothing; at
// the cap the object costs O(1) and still reads as zero end to end.
TEST(MemoryTest, AllocAboveThePerObjectCapReturnsNull) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  EXPECT_EQ(mem.Alloc(kMaxAllocCells + 1, false, {}), 0u);
  EXPECT_EQ(mem.Alloc(std::numeric_limits<Word>::max(), false, {}), 0u);
  EXPECT_EQ(mem.object_count(), 0u);
  const Addr base = mem.Alloc(kMaxAllocCells, false, {});
  ASSERT_NE(base, 0u);
  EXPECT_EQ(mem.Load(base).value, 0);
  EXPECT_EQ(mem.Load(base + static_cast<Addr>(kMaxAllocCells) - 1).value, 0);
  EXPECT_EQ(mem.Load(base + static_cast<Addr>(kMaxAllocCells)).fault,
            FailureType::kOutOfBounds);
}

TEST(MemoryTest, RedzoneAccessIsOutOfBounds) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(2, false, {});
  EXPECT_EQ(mem.Load(base + 2).fault, FailureType::kOutOfBounds);
  EXPECT_EQ(mem.Load(base - 1).fault, FailureType::kOutOfBounds);
  EXPECT_EQ(mem.Store(base + 3, 1).fault, FailureType::kOutOfBounds);
}

TEST(MemoryTest, InterObjectGapIsUnmapped) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(2, false, {});
  Addr next = mem.Alloc(2, false, {});
  ASSERT_GT(next, base + 2 + kRedzoneCells);
  // Past the redzone but before the next object: wild pointer -> GPF.
  EXPECT_EQ(mem.Load(base + 2 + kRedzoneCells).fault, FailureType::kGeneralProtection);
}

TEST(MemoryTest, UseAfterFreeDetectedOnReadAndUpgradedOnWrite) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(3, false, {});
  ASSERT_FALSE(mem.Free(base, {}).has_value());
  EXPECT_EQ(mem.Load(base + 1).fault, FailureType::kUseAfterFreeRead);
  EXPECT_EQ(mem.Store(base + 1, 9).fault, FailureType::kUseAfterFreeWrite);
}

TEST(MemoryTest, QuarantineNeverReusesAddresses) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr first = mem.Alloc(2, false, {});
  ASSERT_FALSE(mem.Free(first, {}).has_value());
  Addr second = mem.Alloc(2, false, {});
  EXPECT_NE(first, second);
  EXPECT_EQ(mem.Load(first).fault, FailureType::kUseAfterFreeRead);
}

TEST(MemoryTest, DoubleFreeAndBadFree) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(1, false, {});
  EXPECT_FALSE(mem.Free(base, {}).has_value());
  EXPECT_EQ(mem.Free(base, {}), FailureType::kDoubleFree);
  EXPECT_EQ(mem.Free(base + 12345, {}), FailureType::kBadFree);
}

TEST(MemoryTest, FreeNullIsNoOp) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  EXPECT_FALSE(mem.Free(0, {}).has_value());
}

TEST(MemoryTest, FindObjectByInteriorAddress) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(4, false, {});
  const HeapObject* obj = mem.FindObject(base + 3);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->base, base);
  EXPECT_EQ(mem.FindObject(base + 4), nullptr);
}

TEST(MemoryTest, LeakedObjectsRespectReachabilityThroughGlobals) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(1, /*leak_checked=*/true, {});
  // Unreachable: leaked.
  EXPECT_EQ(mem.LeakedObjects().size(), 1u);
  // Published in a global: reachable.
  mem.Poke(image.GlobalAddr("a"), static_cast<Word>(base));
  EXPECT_TRUE(mem.LeakedObjects().empty());
  // Unpublished again: leaked again.
  mem.Poke(image.GlobalAddr("a"), 0);
  EXPECT_EQ(mem.LeakedObjects().size(), 1u);
}

TEST(MemoryTest, LeakReachabilityThroughLists) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr base = mem.Alloc(1, /*leak_checked=*/true, {});
  mem.ListAt(image.GlobalAddr("b")).push_back(static_cast<Word>(base));
  EXPECT_TRUE(mem.LeakedObjects().empty());
}

TEST(MemoryTest, PointerInsideFreedObjectIsNotARoot) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  Addr holder = mem.Alloc(1, false, {});
  Addr target = mem.Alloc(1, /*leak_checked=*/true, {});
  mem.Poke(holder, static_cast<Word>(target));
  EXPECT_TRUE(mem.LeakedObjects().empty());
  ASSERT_FALSE(mem.Free(holder, {}).has_value());
  EXPECT_EQ(mem.LeakedObjects().size(), 1u);
}

class MemoryAllocSweep : public ::testing::TestWithParam<Word> {};

TEST_P(MemoryAllocSweep, BoundaryCellsClassifyExactly) {
  KernelImage image = ImageWithGlobals();
  Memory mem(image);
  const Word cells = GetParam();
  Addr base = mem.Alloc(cells, false, {});
  EXPECT_FALSE(mem.Load(base).fault.has_value());
  EXPECT_FALSE(mem.Load(base + static_cast<Addr>(cells) - 1).fault.has_value());
  EXPECT_EQ(mem.Load(base + static_cast<Addr>(cells)).fault, FailureType::kOutOfBounds);
  EXPECT_EQ(mem.Load(base - 1).fault, FailureType::kOutOfBounds);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MemoryAllocSweep, ::testing::Values(1, 2, 3, 8, 64, 200));

}  // namespace
}  // namespace aitia
