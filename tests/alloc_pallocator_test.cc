#include "alloc/pallocator.h"

#include <gtest/gtest.h>

#include <set>

#include "alloc/pheap.h"
#include "alloc/region_header.h"
#include "nvm/nvm_env.h"

namespace hyrise_nv::alloc {
namespace {

std::unique_ptr<PHeap> MakeHeap(size_t size = 1 << 20) {
  nvm::PmemRegionOptions opts;
  opts.tracking = nvm::TrackingMode::kShadow;
  auto result = PHeap::Create(size, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueUnsafe();
}

TEST(PAllocatorTest, AllocReturnsDisjointAlignedBlocks) {
  auto heap = MakeHeap();
  std::set<uint64_t> offsets;
  for (int i = 0; i < 100; ++i) {
    auto r = heap->allocator().Alloc(100);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r % 8, 0u) << "payload must be 8-byte aligned";
    EXPECT_TRUE(offsets.insert(*r).second) << "duplicate offset";
  }
  // 100 allocations of class size 128 are at least 100*128 bytes apart in
  // aggregate.
  EXPECT_GE(heap->allocator().HeapUsedBytes(), 100u * 128);
}

TEST(PAllocatorTest, ZeroSizeRejected) {
  auto heap = MakeHeap();
  EXPECT_FALSE(heap->allocator().Alloc(0).ok());
}

TEST(PAllocatorTest, HugeAllocationRejected) {
  auto heap = MakeHeap();
  EXPECT_EQ(heap->allocator().Alloc(uint64_t{1} << 62).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PAllocatorTest, ExhaustionReported) {
  auto heap = MakeHeap(1 << 16);  // 64 KiB
  Status last = Status::OK();
  for (int i = 0; i < 10000; ++i) {
    auto r = heap->allocator().Alloc(1024);
    if (!r.ok()) {
      last = r.status();
      break;
    }
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfMemory);
}

TEST(PAllocatorTest, FreeThenReuseSameClass) {
  auto heap = MakeHeap();
  auto a = heap->allocator().Alloc(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap->allocator().Free(*a).ok());
  auto b = heap->allocator().Alloc(64);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b) << "freed block should be reused LIFO";
}

TEST(PAllocatorTest, DoubleFreeDetected) {
  auto heap = MakeHeap();
  auto a = heap->allocator().Alloc(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap->allocator().Free(*a).ok());
  EXPECT_FALSE(heap->allocator().Free(*a).ok());
}

TEST(PAllocatorTest, FreeOfGarbageOffsetRejected) {
  auto heap = MakeHeap();
  EXPECT_FALSE(heap->allocator().Free(12345).ok());
  EXPECT_FALSE(heap->allocator().Free(0).ok());
  EXPECT_FALSE(heap->allocator().Free(heap->region().size() + 10).ok());
}

TEST(PAllocatorTest, AllocSizeReportsClassSize) {
  auto heap = MakeHeap();
  auto a = heap->allocator().Alloc(100);
  ASSERT_TRUE(a.ok());
  auto size = heap->allocator().AllocSize(*a);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 128u);  // rounded to class
}

TEST(PAllocatorTest, PayloadSurvivesCrashAfterPersist) {
  auto heap = MakeHeap();
  auto a = heap->allocator().Alloc(64);
  ASSERT_TRUE(a.ok());
  auto* p = heap->Resolve<uint64_t>(*a);
  *p = 0xABCD;
  heap->region().Persist(p, 8);
  ASSERT_TRUE(heap->region().SimulateCrash().ok());
  ASSERT_TRUE(heap->allocator().Recover().ok());
  EXPECT_EQ(*heap->Resolve<uint64_t>(*a), 0xABCD);
}

TEST(PAllocatorTest, UncommittedIntentReclaimedOnRecover) {
  auto heap = MakeHeap();
  IntentHandle intent;
  auto a = heap->allocator().AllocWithIntent(64, &intent);
  ASSERT_TRUE(a.ok());
  // Crash before CommitIntent: the block must be reclaimed.
  ASSERT_TRUE(heap->region().SimulateCrash().ok());
  PAllocator fresh(heap->region());
  ASSERT_TRUE(fresh.Recover().ok());
  auto b = fresh.Alloc(64);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a) << "reclaimed block should be available again";
}

TEST(PAllocatorTest, CommittedIntentNotReclaimed) {
  auto heap = MakeHeap();
  IntentHandle intent;
  auto a = heap->allocator().AllocWithIntent(64, &intent);
  ASSERT_TRUE(a.ok());
  heap->allocator().CommitIntent(intent);
  ASSERT_TRUE(heap->region().SimulateCrash().ok());
  PAllocator fresh(heap->region());
  ASSERT_TRUE(fresh.Recover().ok());
  auto b = fresh.Alloc(64);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*b, *a) << "committed block must stay allocated";
}

TEST(PAllocatorTest, AbortIntentFreesBlock) {
  auto heap = MakeHeap();
  IntentHandle intent;
  auto a = heap->allocator().AllocWithIntent(64, &intent);
  ASSERT_TRUE(a.ok());
  heap->allocator().AbortIntent(intent);
  auto b = heap->allocator().Alloc(64);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
}

TEST(PAllocatorTest, RecoverIdempotent) {
  auto heap = MakeHeap();
  ASSERT_TRUE(heap->allocator().Recover().ok());
  ASSERT_TRUE(heap->allocator().Recover().ok());
}

TEST(RegionHeaderTest, FormatAndValidate) {
  auto heap = MakeHeap();
  EXPECT_TRUE(ValidateRegionHeader(heap->region()).ok());
}

TEST(RegionHeaderTest, CorruptMagicDetected) {
  auto heap = MakeHeap();
  HeaderOf(heap->region())->magic ^= 1;
  EXPECT_TRUE(ValidateRegionHeader(heap->region()).IsCorruption());
}

TEST(RegionHeaderTest, CorruptVersionDetected) {
  auto heap = MakeHeap();
  HeaderOf(heap->region())->format_version = 999;
  EXPECT_TRUE(ValidateRegionHeader(heap->region()).IsCorruption());
}

TEST(RegionHeaderTest, RootsRoundTrip) {
  auto heap = MakeHeap();
  ASSERT_TRUE(heap->SetRoot("catalog", 4096).ok());
  ASSERT_TRUE(heap->SetRoot("commit_table", 8192).ok());
  auto a = heap->GetRoot("catalog");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 4096u);
  auto b = heap->GetRoot("commit_table");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 8192u);
  EXPECT_TRUE(heap->GetRoot("nope").status().IsNotFound());
}

TEST(RegionHeaderTest, RootUpdateInPlace) {
  auto heap = MakeHeap();
  ASSERT_TRUE(heap->SetRoot("catalog", 100).ok());
  ASSERT_TRUE(heap->SetRoot("catalog", 200).ok());
  auto r = heap->GetRoot("catalog");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 200u);
}

TEST(RegionHeaderTest, RootNameValidation) {
  auto heap = MakeHeap();
  EXPECT_FALSE(heap->SetRoot("", 1).ok());
  EXPECT_FALSE(
      heap->SetRoot(std::string(kRootNameLen + 5, 'x'), 1).ok());
}

TEST(RegionHeaderTest, RootTableFull) {
  auto heap = MakeHeap();
  for (size_t i = 0; i < kMaxRoots; ++i) {
    ASSERT_TRUE(heap->SetRoot("root" + std::to_string(i), i).ok());
  }
  EXPECT_EQ(heap->SetRoot("overflow", 1).code(), StatusCode::kOutOfMemory);
}

TEST(RegionHeaderTest, RootsSurviveCrashOncePersisted) {
  auto heap = MakeHeap();
  ASSERT_TRUE(heap->SetRoot("catalog", 4096).ok());
  ASSERT_TRUE(heap->region().SimulateCrash().ok());
  auto r = heap->GetRoot("catalog");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4096u);
}

TEST(RegionHeaderTest, CleanShutdownFlag) {
  nvm::PmemRegionOptions opts;
  opts.tracking = nvm::TrackingMode::kNone;
  opts.file_path = nvm::TempPath("clean_flag_test");
  {
    auto heap_result = PHeap::Create(1 << 20, opts);
    ASSERT_TRUE(heap_result.ok());
    ASSERT_TRUE((*heap_result)->CloseClean().ok());
  }
  {
    auto heap_result = PHeap::OpenForInspection(opts);
    ASSERT_TRUE(heap_result.ok()) << heap_result.status().ToString();
    EXPECT_TRUE((*heap_result)->was_clean_shutdown());
    // A writable open marks dirty; reopening without CloseClean must
    // show dirty.
    ASSERT_TRUE((*heap_result)->RecoverAllocator().ok());
    ASSERT_TRUE((*heap_result)->region().SyncToFile().ok());
  }
  {
    auto heap_result = PHeap::OpenForInspection(opts);
    ASSERT_TRUE(heap_result.ok());
    EXPECT_FALSE((*heap_result)->was_clean_shutdown());
  }
  nvm::RemoveFileIfExists(opts.file_path);
}

}  // namespace
}  // namespace hyrise_nv::alloc
