#include "nvm/pmem_region.h"

#include <gtest/gtest.h>

#include <cstring>

#include "nvm/nvm_env.h"

namespace hyrise_nv::nvm {
namespace {

PmemRegionOptions ShadowOptions() {
  PmemRegionOptions opts;
  opts.tracking = TrackingMode::kShadow;
  return opts;
}

TEST(PmemRegionTest, CreateZeroFilled) {
  auto result = PmemRegion::Create(1 << 16, ShadowOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto& region = **result;
  EXPECT_EQ(region.size(), size_t{1 << 16});
  for (size_t i = 0; i < region.size(); i += 997) {
    EXPECT_EQ(region.base()[i], 0);
  }
}

TEST(PmemRegionTest, ZeroSizeRejected) {
  auto result = PmemRegion::Create(0, ShadowOptions());
  EXPECT_FALSE(result.ok());
}

TEST(PmemRegionTest, PersistedDataSurvivesCrash) {
  auto result = PmemRegion::Create(1 << 16, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  std::memcpy(region.base() + 100, "durable", 7);
  region.Persist(region.base() + 100, 7);
  std::memcpy(region.base() + 200, "volatile", 8);  // never persisted

  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_EQ(std::memcmp(region.base() + 100, "durable", 7), 0);
  EXPECT_NE(std::memcmp(region.base() + 200, "volatile", 8), 0);
}

TEST(PmemRegionTest, FlushWithoutFenceIsLost) {
  auto result = PmemRegion::Create(1 << 16, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  std::memcpy(region.base() + 100, "staged", 6);
  region.Flush(region.base() + 100, 6);
  // No Fence: the staged lines must not survive the crash.
  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_NE(std::memcmp(region.base() + 100, "staged", 6), 0);
}

TEST(PmemRegionTest, FenceMakesStagedFlushesDurable) {
  auto result = PmemRegion::Create(1 << 16, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  std::memcpy(region.base() + 100, "abc", 3);
  std::memcpy(region.base() + 4096, "def", 3);
  region.Flush(region.base() + 100, 3);
  region.Flush(region.base() + 4096, 3);
  region.Fence();
  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_EQ(std::memcmp(region.base() + 100, "abc", 3), 0);
  EXPECT_EQ(std::memcmp(region.base() + 4096, "def", 3), 0);
}

TEST(PmemRegionTest, CrashLosesUnflushedPartOfMixedWrite) {
  auto result = PmemRegion::Create(1 << 16, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  // Two writes in different cache lines; only the first is persisted.
  region.base()[0] = 0xAA;
  region.base()[128] = 0xBB;
  region.Persist(region.base() + 0, 1);
  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_EQ(region.base()[0], 0xAA);
  EXPECT_EQ(region.base()[128], 0x00);
}

TEST(PmemRegionTest, PersistWholeLineGranularity) {
  // Flushing one byte persists its entire 64-byte line — like CLWB.
  auto result = PmemRegion::Create(1 << 12, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  for (int i = 0; i < 64; ++i) region.base()[i] = static_cast<uint8_t>(i);
  region.Persist(region.base() + 10, 1);
  ASSERT_TRUE(region.SimulateCrash().ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(region.base()[i], static_cast<uint8_t>(i)) << i;
  }
}

TEST(PmemRegionTest, AtomicPersist64SurvivesCrash) {
  auto result = PmemRegion::Create(1 << 12, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  auto* slot = reinterpret_cast<uint64_t*>(region.base() + 64);
  region.AtomicPersist64(slot, 0x1122334455667788ull);
  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_EQ(*slot, 0x1122334455667788ull);
}

TEST(PmemRegionTest, StatsCountFlushesAndFences) {
  auto result = PmemRegion::Create(1 << 16, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  region.stats().Reset();
  region.Persist(region.base(), 1);     // 1 line, 1 fence
  region.Persist(region.base(), 200);   // 4 lines, 1 fence
  EXPECT_EQ(region.stats().flush_lines.load(), 5u);
  EXPECT_EQ(region.stats().fences.load(), 2u);
  EXPECT_EQ(region.stats().persist_calls.load(), 2u);
  EXPECT_EQ(region.stats().flushed_bytes.load(), 5u * 64);
}

TEST(PmemRegionTest, CrashUnsupportedWithoutShadow) {
  PmemRegionOptions opts;
  opts.tracking = TrackingMode::kNone;
  auto result = PmemRegion::Create(1 << 12, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->SimulateCrash().code(), StatusCode::kNotSupported);
}

TEST(PmemRegionTest, FileBackedSurvivesReopen) {
  const std::string path = TempPath("pmem_region_test");
  {
    PmemRegionOptions opts;
    opts.tracking = TrackingMode::kNone;
    opts.file_path = path;
    auto result = PmemRegion::Create(1 << 16, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto& region = **result;
    std::memcpy(region.base() + 500, "persistent", 10);
    region.Persist(region.base() + 500, 10);
    ASSERT_TRUE(region.SyncToFile().ok());
  }
  {
    PmemRegionOptions opts;
    opts.tracking = TrackingMode::kNone;
    opts.file_path = path;
    auto result = PmemRegion::Open(opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto& region = **result;
    EXPECT_EQ(region.size(), size_t{1 << 16});
    EXPECT_EQ(std::memcmp(region.base() + 500, "persistent", 10), 0);
  }
  RemoveFileIfExists(path);
}

TEST(PmemRegionTest, OpenMissingFileFails) {
  PmemRegionOptions opts;
  opts.file_path = TempPath("does_not_exist");
  auto result = PmemRegion::Open(opts);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(PmemRegionTest, OpenWithoutPathRejected) {
  PmemRegionOptions opts;
  auto result = PmemRegion::Open(opts);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PmemRegionTest, OffsetOfAndContains) {
  auto result = PmemRegion::Create(1 << 12, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  EXPECT_EQ(region.OffsetOf(region.base() + 123), 123u);
  EXPECT_TRUE(region.Contains(region.base()));
  EXPECT_TRUE(region.Contains(region.base() + region.size() - 1));
  int unrelated = 0;
  EXPECT_FALSE(region.Contains(&unrelated));
}

TEST(PmemRegionTest, LatencyModelCharged) {
  PmemRegionOptions opts;
  opts.tracking = TrackingMode::kNone;
  opts.latency = NvmLatencyModel{50000, 50000, 0.0};  // 50 µs each, measurable
  auto result = PmemRegion::Create(1 << 12, opts);
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  const auto t0 = std::chrono::steady_clock::now();
  region.Persist(region.base(), 1);  // one line + one fence => >= 100 µs
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            90);
}

TEST(PmemRegionTest, TornEpochKeepsOnlyTheMaskedFlushes) {
  auto result = PmemRegion::Create(1 << 16, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  region.FreezeShadowAfterFences(1, /*torn_mask=*/0b10);
  region.base()[0] = 1;
  region.Persist(region.base(), 1);  // the freezing fence
  region.base()[4096] = 2;
  region.Flush(region.base() + 4096, 1);
  region.base()[8192] = 3;
  region.Flush(region.base() + 8192, 1);
  region.Fence();  // ends the torn epoch: only its second flush persists
  region.base()[12288] = 4;
  region.Persist(region.base() + 12288, 1);
  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_EQ(region.base()[0], 1);
  EXPECT_EQ(region.base()[4096], 0);
  EXPECT_EQ(region.base()[8192], 3);
  EXPECT_EQ(region.base()[12288], 0);

  // A crash before the torn epoch's fence tears it the same way.
  region.FreezeShadowAfterFences(0, /*torn_mask=*/0b01);
  region.base()[4096] = 5;
  region.Flush(region.base() + 4096, 1);
  region.base()[8192] = 6;
  region.Flush(region.base() + 8192, 1);
  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_EQ(region.base()[4096], 5);
  EXPECT_EQ(region.base()[8192], 3);
}

TEST(PmemRegionTest, ContinueAfterCrashThenPersistAgain) {
  auto result = PmemRegion::Create(1 << 12, ShadowOptions());
  ASSERT_TRUE(result.ok());
  auto& region = **result;
  region.base()[0] = 1;
  region.Persist(region.base(), 1);
  ASSERT_TRUE(region.SimulateCrash().ok());
  region.base()[0] = 2;
  region.Persist(region.base(), 1);
  ASSERT_TRUE(region.SimulateCrash().ok());
  EXPECT_EQ(region.base()[0], 2);
}

}  // namespace
}  // namespace hyrise_nv::nvm
