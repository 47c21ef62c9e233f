#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "index/index_set.h"
#include "storage/catalog.h"
#include "storage/merge.h"

namespace hyrise_nv::index {
namespace {

using storage::DataType;
using storage::RowLocation;
using storage::Value;

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kShadow;
    auto heap_result = alloc::PHeap::Create(32 << 20, opts);
    ASSERT_TRUE(heap_result.ok());
    heap_ = std::move(heap_result).ValueUnsafe();
    auto catalog_result = storage::Catalog::Format(*heap_);
    ASSERT_TRUE(catalog_result.ok());
    catalog_ = std::move(catalog_result).ValueUnsafe();
    auto schema = *storage::Schema::Make(
        {{"k", DataType::kInt64}, {"v", DataType::kString}});
    auto table_result = catalog_->CreateTable("kv", schema);
    ASSERT_TRUE(table_result.ok());
    table_ = *table_result;
    indexes_ = std::make_unique<IndexSet>(table_);
    ASSERT_TRUE(indexes_->Attach().ok());
  }

  // Inserts a committed row and maintains indexes, like the engine does.
  RowLocation Insert(int64_t k, const std::string& v, storage::Cid cid) {
    std::vector<Value> row{Value(k), Value(v)};
    auto loc = table_->AppendRow(row, 7);
    EXPECT_TRUE(loc.ok());
    EXPECT_TRUE(indexes_->OnInsert(row, loc->row).ok());
    auto* entry = table_->mvcc(*loc);
    heap_->region().AtomicPersist64(&entry->begin, cid);
    heap_->region().AtomicPersist64(&entry->tid, storage::kTidNone);
    return *loc;
  }

  std::multiset<std::string> LookupNames(int64_t k) {
    std::multiset<std::string> names;
    EXPECT_TRUE(indexes_
                    ->ForEachEqualCandidate(0, Value(k),
                                            [&](RowLocation loc) {
                                              names.insert(std::get<std::string>(
                                                  table_->GetValue(loc, 1)));
                                            })
                    .ok());
    return names;
  }

  std::unique_ptr<alloc::PHeap> heap_;
  std::unique_ptr<storage::Catalog> catalog_;
  storage::Table* table_ = nullptr;
  std::unique_ptr<IndexSet> indexes_;
};

TEST_F(IndexTest, HashValueStableAndSpread) {
  const uint64_t h1 = HashValue(Value(int64_t{42}), DataType::kInt64);
  const uint64_t h2 = HashValue(Value(int64_t{42}), DataType::kInt64);
  const uint64_t h3 = HashValue(Value(int64_t{43}), DataType::kInt64);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_NE(HashValue(Value(std::string("a")), DataType::kString),
            HashValue(Value(std::string("b")), DataType::kString));
}

TEST_F(IndexTest, CreateAndLookupOnDelta) {
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  Insert(1, "one", 10);
  Insert(2, "two", 10);
  Insert(1, "uno", 10);
  EXPECT_EQ(LookupNames(1), (std::multiset<std::string>{"one", "uno"}));
  EXPECT_EQ(LookupNames(2), (std::multiset<std::string>{"two"}));
  EXPECT_TRUE(LookupNames(3).empty());
}

TEST_F(IndexTest, CreateIndexBackfillsExistingRows) {
  Insert(5, "pre", 10);
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  Insert(5, "post", 10);
  EXPECT_EQ(LookupNames(5), (std::multiset<std::string>{"pre", "post"}));
}

TEST_F(IndexTest, DuplicateCreateRejected) {
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  EXPECT_EQ(indexes_->CreateIndex(0).code(), StatusCode::kAlreadyExists);
}

TEST_F(IndexTest, BadColumnRejected) {
  EXPECT_FALSE(indexes_->CreateIndex(99).ok());
}

TEST_F(IndexTest, LookupWithoutIndexIsNotFound) {
  Status status = indexes_->ForEachEqualCandidate(
      0, Value(int64_t{1}), [](RowLocation) {});
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(IndexTest, StringColumnIndex) {
  ASSERT_TRUE(indexes_->CreateIndex(1).ok());
  Insert(1, "apple", 10);
  Insert(2, "banana", 10);
  Insert(3, "apple", 10);
  std::multiset<int64_t> keys;
  ASSERT_TRUE(indexes_
                  ->ForEachEqualCandidate(1, Value(std::string("apple")),
                                          [&](RowLocation loc) {
                                            keys.insert(std::get<int64_t>(
                                                table_->GetValue(loc, 0)));
                                          })
                  .ok());
  EXPECT_EQ(keys, (std::multiset<int64_t>{1, 3}));
}

TEST_F(IndexTest, SurvivesMergeViaGroupKey) {
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  Insert(1, "one", 10);
  Insert(2, "two", 10);
  Insert(1, "uno", 10);
  ASSERT_TRUE(storage::MergeTable(*table_, 100).ok());
  ASSERT_TRUE(indexes_->Attach().ok());  // rebind to the new group
  // Rows are now in main, served by the group-key index.
  EXPECT_EQ(LookupNames(1), (std::multiset<std::string>{"one", "uno"}));
  // New delta inserts after the merge still hit the hash index.
  Insert(1, "ein", 200);
  EXPECT_EQ(LookupNames(1),
            (std::multiset<std::string>{"one", "uno", "ein"}));
}

TEST_F(IndexTest, DeltaIndexRefusesRowsOutsideTheDictionary) {
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  Insert(1, "one", 10);
  // A cell holding kInvalidValueId (a corrupt row) has no dictionary id,
  // so nothing to chain it under.
  ASSERT_TRUE(table_->delta()
                  .BulkAppendRows(
                      {{storage::kInvalidValueId}, {storage::kInvalidValueId}},
                      {storage::MvccEntry{}})
                  .ok());
  const Status status = indexes_->OnInsert(
      {Value(int64_t{2}), Value(std::string("two"))}, 1);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  DeltaIndex index(&heap_->region(), &heap_->allocator(),
                   &table_->group()->indexes[0]);
  EXPECT_EQ(index.link_count(), 1u);
  EXPECT_EQ(LookupNames(1), (std::multiset<std::string>{"one"}));
}

TEST_F(IndexTest, LookupVisitsExactlyItsValuesVersions) {
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  for (int round = 0; round < 3; ++round) {
    for (int64_t k = 0; k < 50; ++k) {
      Insert(k, "r" + std::to_string(round), 10);
    }
  }
  DeltaIndex index(&heap_->region(), &heap_->allocator(),
                   &table_->group()->indexes[0]);
  // One per row (ids 0..49 share rows' slots), filled to the capacity.
  EXPECT_EQ(index.slot_count(), 256u);
  EXPECT_EQ(index.link_count(), 150u);
  const auto& dict = table_->delta().column(0).dictionary();
  std::vector<uint64_t> rows;
  ASSERT_TRUE(index
                  .ForEachRow(dict.Lookup(Value(int64_t{7})),
                              [&](uint64_t row) { rows.push_back(row); })
                  .ok());
  EXPECT_EQ(rows, (std::vector<uint64_t>{107, 57, 7}));  // newest first
}

TEST_F(IndexTest, SurvivesCrashAndReattach) {
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  Insert(7, "seven", 10);
  Insert(7, "sieben", 10);
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());

  auto catalog_result = storage::Catalog::Attach(*heap_);
  ASSERT_TRUE(catalog_result.ok());
  storage::Table* table = *(*catalog_result)->GetTable("kv");
  ASSERT_TRUE(table->RepairAfterCrash().ok());
  IndexSet indexes(table);
  ASSERT_TRUE(indexes.Attach().ok());
  std::multiset<std::string> names;
  ASSERT_TRUE(indexes
                  .ForEachEqualCandidate(0, Value(int64_t{7}),
                                         [&](RowLocation loc) {
                                           names.insert(std::get<std::string>(
                                               table->GetValue(loc, 1)));
                                         })
                  .ok());
  EXPECT_EQ(names, (std::multiset<std::string>{"seven", "sieben"}));
}

TEST_F(IndexTest, ManyKeysCollisionsHandled) {
  ASSERT_TRUE(indexes_->CreateIndex(0).ok());
  // 5000 distinct keys: one value-id chain each.
  for (int64_t k = 0; k < 5000; ++k) {
    Insert(k, "v" + std::to_string(k), 10);
  }
  for (int64_t k = 0; k < 5000; k += 487) {
    EXPECT_EQ(LookupNames(k),
              (std::multiset<std::string>{"v" + std::to_string(k)}));
  }
}

}  // namespace
}  // namespace hyrise_nv::index
