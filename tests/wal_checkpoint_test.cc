#include "wal/checkpoint.h"

#include <gtest/gtest.h>

#include "nvm/nvm_env.h"
#include "obs/metrics.h"
#include "storage/merge.h"

namespace hyrise_nv::wal {
namespace {

using storage::DataType;
using storage::Value;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = nvm::TempPath("checkpoint_test");
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kNone;
    source_heap_ = MakeHeap();
    auto catalog = storage::Catalog::Format(*source_heap_);
    ASSERT_TRUE(catalog.ok());
    source_catalog_ = std::move(catalog).ValueUnsafe();
    auto commit = txn::CommitTable::Format(*source_heap_);
    ASSERT_TRUE(commit.ok());
    source_commit_ = std::move(commit).ValueUnsafe();
  }

  void TearDown() override { nvm::RemoveFileIfExists(path_); }

  std::unique_ptr<alloc::PHeap> MakeHeap() {
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kNone;
    auto result = alloc::PHeap::Create(32 << 20, opts);
    EXPECT_TRUE(result.ok());
    return std::move(result).ValueUnsafe();
  }

  storage::Table* MakeTable(const char* name) {
    auto schema = *storage::Schema::Make(
        {{"k", DataType::kInt64}, {"v", DataType::kString}});
    auto table = source_catalog_->CreateTable(name, schema);
    EXPECT_TRUE(table.ok());
    return *table;
  }

  void InsertCommitted(storage::Table* table, int64_t k,
                       const std::string& v, storage::Cid cid) {
    auto loc = table->AppendRow({Value(k), Value(v)}, 9);
    ASSERT_TRUE(loc.ok());
    auto* entry = table->mvcc(*loc);
    entry->begin = cid;
    entry->tid = storage::kTidNone;
    source_heap_->region().Persist(entry, sizeof(*entry));
  }

  std::string path_;
  std::unique_ptr<alloc::PHeap> source_heap_;
  std::unique_ptr<storage::Catalog> source_catalog_;
  std::unique_ptr<txn::CommitTable> source_commit_;
};

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  auto heap = MakeHeap();
  auto catalog = std::move(storage::Catalog::Format(*heap)).ValueUnsafe();
  auto commit = std::move(txn::CommitTable::Format(*heap)).ValueUnsafe();
  auto info = LoadCheckpoint(path_, BlockDeviceOptions{}, *heap, *catalog,
                             *commit);
  EXPECT_TRUE(info.status().IsNotFound());
}

TEST_F(CheckpointTest, RoundTripTwoTables) {
  storage::Table* t1 = MakeTable("alpha");
  storage::Table* t2 = MakeTable("beta");
  for (int i = 0; i < 50; ++i) {
    InsertCommitted(t1, i, "a" + std::to_string(i), 5);
  }
  // Merge t1 so it has a main partition; keep t2 delta-only.
  ASSERT_TRUE(storage::MergeTable(*t1, 100).ok());
  for (int i = 0; i < 20; ++i) {
    InsertCommitted(t2, i * 10, "b", 6);
  }
  source_commit_->AdvanceWatermark(42);

  ASSERT_TRUE(WriteCheckpoint(path_, BlockDeviceOptions{},
                              *source_catalog_, *source_commit_,
                              /*log_offset=*/777)
                  .ok());

  auto heap = MakeHeap();
  auto catalog = std::move(storage::Catalog::Format(*heap)).ValueUnsafe();
  auto commit = std::move(txn::CommitTable::Format(*heap)).ValueUnsafe();
  auto info = LoadCheckpoint(path_, BlockDeviceOptions{}, *heap, *catalog,
                             *commit);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->log_offset, 777u);
  EXPECT_EQ(info->watermark, 42u);
  EXPECT_EQ(commit->watermark(), 42u);

  auto r1 = catalog->GetTable("alpha");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->main_row_count(), 50u);
  EXPECT_EQ((*r1)->CountVisible(100, storage::kTidNone), 50u);
  EXPECT_EQ(std::get<std::string>(
                (*r1)->GetValue({true, 0}, 1)).substr(0, 1),
            "a");
  auto r2 = catalog->GetTable("beta");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->delta_row_count(), 20u);
  EXPECT_EQ((*r2)->CountVisible(100, storage::kTidNone), 20u);
  // Ids preserved.
  EXPECT_EQ((*r1)->id(), t1->id());
  EXPECT_EQ((*r2)->id(), t2->id());
}

// A checkpoint carries delta dictionaries without their value→id tables;
// loading one builds each table once, hashing exactly its entries.
TEST_F(CheckpointTest, LoadBuildsEachDictionaryTableOnce) {
#if !HYRISE_NV_METRICS_ENABLED
  GTEST_SKIP() << "metrics compile out in this build";
#endif
  storage::Table* t1 = MakeTable("alpha");
  for (int i = 0; i < 300; ++i) {
    InsertCommitted(t1, i, "v" + std::to_string(i % 200), 5);
  }
  ASSERT_TRUE(WriteCheckpoint(path_, BlockDeviceOptions{},
                              *source_catalog_, *source_commit_, 0)
                  .ok());

  const obs::Counter& rehashed = obs::MetricsRegistry::Instance().GetCounter(
      "storage.dict.index.rehashed_entries");
  const uint64_t before = rehashed.Value();
  auto heap = MakeHeap();
  auto catalog = std::move(storage::Catalog::Format(*heap)).ValueUnsafe();
  auto commit = std::move(txn::CommitTable::Format(*heap)).ValueUnsafe();
  ASSERT_TRUE(LoadCheckpoint(path_, BlockDeviceOptions{}, *heap, *catalog,
                             *commit)
                  .ok());
  storage::Table* loaded = *catalog->GetTable("alpha");
  auto& keys = loaded->delta().column(0).dictionary();
  auto& values = loaded->delta().column(1).dictionary();
  ASSERT_EQ(keys.size(), 300u);
  ASSERT_EQ(values.size(), 200u);
  EXPECT_EQ(rehashed.Value() - before, keys.size() + values.size());
  for (int i = 0; i < 200; ++i) {
    const Value value("v" + std::to_string(i));
    const storage::ValueId id = values.Lookup(value);
    ASSERT_NE(id, storage::kInvalidValueId);
    EXPECT_EQ(values.GetValue(id), value);
    auto again = values.GetOrInsert(value);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, id);
  }
  EXPECT_EQ(keys.Lookup(Value(int64_t{299})), 299u);
}

TEST_F(CheckpointTest, CorruptFileDetected) {
  storage::Table* t1 = MakeTable("alpha");
  InsertCommitted(t1, 1, "x", 5);
  ASSERT_TRUE(WriteCheckpoint(path_, BlockDeviceOptions{},
                              *source_catalog_, *source_commit_, 0)
                  .ok());
  // Flip a byte in the middle of the file.
  {
    auto device = std::move(BlockDevice::Open(path_, BlockDeviceOptions{}))
                      .ValueUnsafe();
    char byte;
    ASSERT_TRUE(device->Read(device->size() / 2, &byte, 1).ok());
  }
  FILE* f = fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 40, SEEK_SET);
  fputc(0xA5, f);
  fclose(f);

  auto heap = MakeHeap();
  auto catalog = std::move(storage::Catalog::Format(*heap)).ValueUnsafe();
  auto commit = std::move(txn::CommitTable::Format(*heap)).ValueUnsafe();
  auto info = LoadCheckpoint(path_, BlockDeviceOptions{}, *heap, *catalog,
                             *commit);
  EXPECT_TRUE(info.status().IsCorruption());
}

TEST_F(CheckpointTest, RewriteReplacesAtomically) {
  storage::Table* t1 = MakeTable("alpha");
  InsertCommitted(t1, 1, "x", 5);
  ASSERT_TRUE(WriteCheckpoint(path_, BlockDeviceOptions{},
                              *source_catalog_, *source_commit_, 10)
                  .ok());
  InsertCommitted(t1, 2, "y", 6);
  ASSERT_TRUE(WriteCheckpoint(path_, BlockDeviceOptions{},
                              *source_catalog_, *source_commit_, 20)
                  .ok());

  auto heap = MakeHeap();
  auto catalog = std::move(storage::Catalog::Format(*heap)).ValueUnsafe();
  auto commit = std::move(txn::CommitTable::Format(*heap)).ValueUnsafe();
  auto info = LoadCheckpoint(path_, BlockDeviceOptions{}, *heap, *catalog,
                             *commit);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->log_offset, 20u);
  EXPECT_EQ((*catalog->GetTable("alpha"))->delta_row_count(), 2u);
}

}  // namespace
}  // namespace hyrise_nv::wal
