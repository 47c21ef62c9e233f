#include "alloc/pvector.h"

#include <gtest/gtest.h>

#include "alloc/pheap.h"
#include "common/random.h"

namespace hyrise_nv::alloc {
namespace {

class PVectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kShadow;
    auto result = PHeap::Create(4 << 20, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    heap_ = std::move(result).ValueUnsafe();
    // Allocate the descriptor itself on NVM, as real structures do.
    auto desc_off = heap_->allocator().Alloc(sizeof(PVectorDesc));
    ASSERT_TRUE(desc_off.ok());
    desc_ = heap_->Resolve<PVectorDesc>(*desc_off);
    PVector<uint64_t>::Format(heap_->region(), desc_);
    vec_ = PVector<uint64_t>(&heap_->region(), &heap_->allocator(), desc_);
  }

  std::unique_ptr<PHeap> heap_;
  PVectorDesc* desc_ = nullptr;
  PVector<uint64_t> vec_;
};

TEST_F(PVectorTest, StartsEmpty) {
  EXPECT_EQ(vec_.size(), 0u);
  EXPECT_TRUE(vec_.empty());
  EXPECT_TRUE(vec_.Validate().ok());
}

TEST_F(PVectorTest, AppendAndGet) {
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(vec_.Append(i * 3).ok());
  }
  EXPECT_EQ(vec_.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(vec_.Get(i), i * 3);
  }
}

TEST_F(PVectorTest, GrowthPreservesContents) {
  // Force several buffer growths.
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(vec_.Append(i).ok());
  }
  EXPECT_GE(vec_.capacity(), 10000u);
  for (uint64_t i = 0; i < 10000; i += 113) {
    EXPECT_EQ(vec_.Get(i), i);
  }
}

TEST_F(PVectorTest, SetOverwrites) {
  ASSERT_TRUE(vec_.Append(1).ok());
  ASSERT_TRUE(vec_.Append(2).ok());
  vec_.Set(0, 99);
  EXPECT_EQ(vec_.Get(0), 99u);
  EXPECT_EQ(vec_.Get(1), 2u);
}

TEST_F(PVectorTest, BulkAppend) {
  std::vector<uint64_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 7;
  ASSERT_TRUE(vec_.BulkAppend(values.data(), values.size()).ok());
  EXPECT_EQ(vec_.size(), values.size());
  for (size_t i = 0; i < values.size(); i += 499) {
    EXPECT_EQ(vec_.Get(i), i * 7);
  }
}

TEST_F(PVectorTest, AppendFill) {
  ASSERT_TRUE(vec_.AppendFill(42, 1000).ok());
  EXPECT_EQ(vec_.size(), 1000u);
  EXPECT_EQ(vec_.Get(0), 42u);
  EXPECT_EQ(vec_.Get(999), 42u);
}

TEST_F(PVectorTest, AppendsSurviveCrash) {
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(vec_.Append(i).ok());
  }
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  ASSERT_TRUE(vec_.Validate().ok());
  ASSERT_EQ(vec_.size(), 500u);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(vec_.Get(i), i);
  }
}

TEST_F(PVectorTest, UnpersistedSetLostOnCrash) {
  ASSERT_TRUE(vec_.AppendFill(7, 10).ok());
  vec_.SetUnpersisted(3, 1234);
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  EXPECT_EQ(vec_.Get(3), 7u) << "unpersisted overwrite must be lost";
}

TEST_F(PVectorTest, PersistRangeMakesBatchedSetsDurable) {
  ASSERT_TRUE(vec_.AppendFill(0, 100).ok());
  for (uint64_t i = 20; i < 40; ++i) vec_.SetUnpersisted(i, i + 1);
  vec_.PersistRange(20, 40);
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  for (uint64_t i = 20; i < 40; ++i) EXPECT_EQ(vec_.Get(i), i + 1);
}

TEST_F(PVectorTest, CrashDuringGrowthKeepsOldOrNewStateConsistent) {
  // Fill close to a growth boundary, crash, and verify contents intact.
  for (uint64_t round = 0; round < 8; ++round) {
    const uint64_t before = vec_.size();
    for (uint64_t i = 0; i < 16 + round * 16; ++i) {
      ASSERT_TRUE(vec_.Append(round * 1000 + i).ok());
    }
    ASSERT_TRUE(heap_->region().SimulateCrash().ok());
    PAllocator fresh(heap_->region());
    ASSERT_TRUE(fresh.Recover().ok());
    ASSERT_TRUE(vec_.Validate().ok());
    ASSERT_EQ(vec_.size(), before + 16 + round * 16);
  }
}

/// Cuts durability at every fence of one growth (16 -> 32 elements),
/// crashes, and runs allocator recovery. Whatever the cut, the descriptor
/// names a buffer that is still allocated and holds the committed
/// elements: the growth retires its allocation intent before publishing,
/// so a cut in between only leaks the new buffer.
TEST(PVectorCrashTest, FenceCutSweepAcrossGrowth) {
  bool saw_old_buffer = false;
  bool saw_new_buffer = false;
  uint64_t complete_runs = 0;
  for (uint64_t cut = 0; complete_runs < 2; ++cut) {
    ASSERT_LT(cut, 100u) << "sweep never reached an uncut run";
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kShadow;
    auto heap = std::move(PHeap::Create(1 << 20, opts)).ValueUnsafe();
    auto* desc = heap->Resolve<PVectorDesc>(
        *heap->allocator().Alloc(sizeof(PVectorDesc)));
    PVector<uint64_t>::Format(heap->region(), desc);
    {
      PVector<uint64_t> vec(&heap->region(), &heap->allocator(), desc);
      for (uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(vec.Append(i).ok());
      ASSERT_EQ(vec.capacity(), 16u);
      heap->region().FreezeShadowAfterFences(cut);
      ASSERT_TRUE(vec.Append(16).ok());
      if (!heap->region().shadow_frozen()) ++complete_runs;
    }
    ASSERT_TRUE(heap->region().SimulateCrash().ok());
    PAllocator recovered(heap->region());
    ASSERT_TRUE(recovered.Recover().ok());

    PVector<uint64_t> vec(&heap->region(), &recovered, desc);
    ASSERT_TRUE(vec.Validate().ok()) << "cut " << cut;
    const uint64_t data = desc->slots[desc->version & 1].data;
    const auto* block = heap->Resolve<BlockHeader>(data - sizeof(BlockHeader));
    ASSERT_EQ(block->state, BlockHeader::kStateAllocated)
        << "cut " << cut << " left the descriptor on a free block";
    ASSERT_GE(vec.size(), 16u) << "cut " << cut;
    for (uint64_t i = 0; i < vec.size(); ++i) {
      ASSERT_EQ(vec.Get(i), i) << "cut " << cut;
    }
    saw_old_buffer |= vec.capacity() == 16;
    saw_new_buffer |= vec.capacity() == 32;
  }
  EXPECT_TRUE(saw_old_buffer) << "no cut before the publish";
  EXPECT_TRUE(saw_new_buffer) << "no cut after the publish";
}

TEST_F(PVectorTest, TruncateToRollsBack) {
  ASSERT_TRUE(vec_.AppendFill(5, 100).ok());
  vec_.TruncateTo(60);
  EXPECT_EQ(vec_.size(), 60u);
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  EXPECT_EQ(vec_.size(), 60u) << "truncation must be durable";
}

TEST_F(PVectorTest, ReservePreallocates) {
  ASSERT_TRUE(vec_.Reserve(4096).ok());
  const uint64_t cap = vec_.capacity();
  EXPECT_GE(cap, 4096u);
  for (uint64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(vec_.Append(i).ok());
  }
  EXPECT_EQ(vec_.capacity(), cap) << "no growth after reserve";
}

TEST_F(PVectorTest, ValidateDetectsCorruptSize) {
  ASSERT_TRUE(vec_.AppendFill(1, 10).ok());
  desc_->size = desc_->slots[desc_->version & 1].capacity + 1;
  EXPECT_TRUE(vec_.Validate().IsCorruption());
}

TEST_F(PVectorTest, ValidateDetectsOutOfRangeBuffer) {
  ASSERT_TRUE(vec_.AppendFill(1, 10).ok());
  desc_->slots[desc_->version & 1].data = heap_->region().size() * 2;
  EXPECT_TRUE(vec_.Validate().IsCorruption());
}

}  // namespace
}  // namespace hyrise_nv::alloc
