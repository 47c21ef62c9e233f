#include "wal/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "common/crc32.h"
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

/// The checkpoint of table "alpha" (k int64, v string) holding (1, "x")
/// and (2, "yz") committed at cid 5, watermark 5, log offset 99: the
/// bytes existing checkpoint files hold for it. Layout: header
/// [u64 magic][u32 version][u64 log offset][u64 watermark][u64 tid
/// block][u64 cid block][u32 tables]; per table [str name][u64 id]
/// [u64 schema length][schema][u32 indexes][u64 main rows], then per
/// main column [u64 bits] and three vectors, the main MVCC vector, per
/// delta column three vectors, the delta MVCC vector, each vector
/// [u64 count][count elements]; last the masked CRC of all before it.
const std::vector<uint8_t>& PinnedCheckpoint() {
  static const std::vector<uint8_t> bytes = {
    0x31, 0x4B, 0x50, 0x43, 0x56, 0x4E, 0x59, 0x48, 0x01, 0x00, 0x00,
    0x00, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x61, 0x6C, 0x70,
    0x68, 0x61, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x16,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x6B, 0x03, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x76, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0B, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x78,
    0x02, 0x00, 0x00, 0x00, 0x79, 0x7A, 0x02, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x59, 0x62, 0x13, 0xAC};
  return bytes;
}

/// Offset of the first vector count in PinnedCheckpoint(): the main
/// dictionary of column k, 48 header bytes + 4 + 5 ("alpha") + 8 (id) +
/// 8 + 22 (schema) + 4 (indexes) + 8 (main rows) + 8 (bits).
constexpr size_t kPinnedFirstVectorCount = 115;

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
}

TEST_F(CheckpointTest, OneTableWritesThePinnedBytes) {
  storage::Table* t1 = MakeTable("alpha");
  InsertCommitted(t1, 1, "x", 5);
  InsertCommitted(t1, 2, "yz", 5);
  source_commit_->AdvanceWatermark(5);
  ASSERT_TRUE(WriteCheckpoint(path_, BlockDeviceOptions{},
                              *source_catalog_, *source_commit_, 99)
                  .ok());
  auto device = std::move(BlockDevice::Open(path_, BlockDeviceOptions{}))
                    .ValueUnsafe();
  std::vector<uint8_t> written(device->size());
  ASSERT_TRUE(device->Read(0, written.data(), written.size()).ok());
  EXPECT_EQ(written, PinnedCheckpoint());

  auto heap = MakeHeap();
  auto catalog = std::move(storage::Catalog::Format(*heap)).ValueUnsafe();
  auto commit = std::move(txn::CommitTable::Format(*heap)).ValueUnsafe();
  auto info = LoadCheckpoint(path_, BlockDeviceOptions{}, *heap, *catalog,
                             *commit);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->log_offset, 99u);
  EXPECT_EQ(info->watermark, 5u);
  storage::Table* loaded = *catalog->GetTable("alpha");
  EXPECT_EQ(loaded->CountVisible(5, storage::kTidNone), 2u);
  EXPECT_EQ(std::get<std::string>(loaded->GetValue({false, 1}, 1)), "yz");
}

TEST_F(CheckpointTest, WrappingVectorCountIsCorruption) {
  // A vector count of 2^61 + 1 uint64 elements: times 8 it wraps to 8
  // bytes, which are there. With the CRC recomputed, only the count
  // check can refuse it.
  std::vector<uint8_t> bytes = PinnedCheckpoint();
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + kPinnedFirstVectorCount, 8);
  ASSERT_EQ(count, 0u);  // the empty main dictionary
  count = (uint64_t{1} << 61) + 1;
  std::memcpy(bytes.data() + kPinnedFirstVectorCount, &count, 8);
  const size_t content = bytes.size() - 4;
  const uint32_t crc = MaskCrc(Crc32c(bytes.data(), content));
  std::memcpy(bytes.data() + content, &crc, 4);
  WriteFile(path_, bytes);

  auto heap = MakeHeap();
  auto catalog = std::move(storage::Catalog::Format(*heap)).ValueUnsafe();
  auto commit = std::move(txn::CommitTable::Format(*heap)).ValueUnsafe();
  auto info = LoadCheckpoint(path_, BlockDeviceOptions{}, *heap, *catalog,
                             *commit);
  EXPECT_TRUE(info.status().IsCorruption()) << info.status().ToString();
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
