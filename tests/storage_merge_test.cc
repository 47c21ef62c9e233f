#include "storage/merge.h"

#include <gtest/gtest.h>

#include <set>

#include "core/database.h"
#include "recovery/verify.h"
#include "storage/catalog.h"

namespace hyrise_nv::storage {
namespace {

Schema TestSchema() {
  return *Schema::Make({{"id", DataType::kInt64},
                        {"name", DataType::kString}});
}

class MergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kShadow;
    auto heap_result = alloc::PHeap::Create(32 << 20, opts);
    ASSERT_TRUE(heap_result.ok());
    heap_ = std::move(heap_result).ValueUnsafe();
    auto catalog_result = Catalog::Format(*heap_);
    ASSERT_TRUE(catalog_result.ok());
    catalog_ = std::move(catalog_result).ValueUnsafe();
    auto table_result = catalog_->CreateTable("t", TestSchema());
    ASSERT_TRUE(table_result.ok());
    table_ = *table_result;
  }

  RowLocation InsertCommitted(int64_t id, const std::string& name,
                              Cid cid) {
    auto loc = table_->AppendRow({Value(id), Value(name)}, 7);
    EXPECT_TRUE(loc.ok());
    MvccEntry* entry = table_->mvcc(*loc);
    heap_->region().AtomicPersist64(&entry->begin, cid);
    heap_->region().AtomicPersist64(&entry->tid, kTidNone);
    return *loc;
  }

  void DeleteCommitted(RowLocation loc, Cid cid) {
    heap_->region().AtomicPersist64(&table_->mvcc(loc)->end, cid);
  }

  std::multiset<int64_t> VisibleIds(Cid snapshot) {
    std::multiset<int64_t> ids;
    table_->ForEachVisibleRow(snapshot, kTidNone, [&](RowLocation loc) {
      ids.insert(std::get<int64_t>(table_->GetValue(loc, 0)));
    });
    return ids;
  }

  std::unique_ptr<alloc::PHeap> heap_;
  std::unique_ptr<Catalog> catalog_;
  Table* table_ = nullptr;
};

TEST_F(MergeTest, EmptyTableMerges) {
  auto stats = MergeTable(*table_, 100);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_after, 0u);
  EXPECT_EQ(table_->main_row_count(), 0u);
  EXPECT_EQ(table_->delta_row_count(), 0u);
}

TEST_F(MergeTest, DeltaRowsMoveToMain) {
  for (int i = 0; i < 100; ++i) {
    InsertCommitted(i, "n" + std::to_string(i % 10), 10);
  }
  auto stats = MergeTable(*table_, 100);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_after, 100u);
  EXPECT_EQ(table_->main_row_count(), 100u);
  EXPECT_EQ(table_->delta_row_count(), 0u);
  EXPECT_EQ(VisibleIds(100).size(), 100u);
  // Values intact after re-encoding.
  const auto row = table_->GetRow(RowLocation{true, 0});
  EXPECT_EQ(std::get<std::string>(row[1]).substr(0, 1), "n");
}

TEST_F(MergeTest, MainDictionarySortedAfterMerge) {
  for (int64_t v : {50, 10, 30, 20, 40, 10, 50}) {
    InsertCommitted(v, "x", 10);
  }
  ASSERT_TRUE(MergeTable(*table_, 100).ok());
  const auto& dict = table_->main().column(0).dictionary();
  EXPECT_EQ(dict.size(), 5u) << "dictionary must be distinct";
  int64_t prev = INT64_MIN;
  for (ValueId id = 0; id < dict.size(); ++id) {
    const int64_t v = std::get<int64_t>(dict.GetValue(id));
    EXPECT_GT(v, prev);
    prev = v;
  }
  // Row values preserved (multiset semantics).
  EXPECT_EQ(VisibleIds(100),
            (std::multiset<int64_t>{10, 10, 20, 30, 40, 50, 50}));
}

TEST_F(MergeTest, DeletedRowsRetired) {
  const auto keep = InsertCommitted(1, "keep", 10);
  const auto kill = InsertCommitted(2, "kill", 10);
  (void)keep;
  DeleteCommitted(kill, 20);
  auto stats = MergeTable(*table_, 100);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_after, 1u);
  EXPECT_EQ(stats->dropped_rows, 1u);
  EXPECT_EQ(VisibleIds(100), (std::multiset<int64_t>{1}));
}

TEST_F(MergeTest, AbortedInsertsRetired) {
  InsertCommitted(1, "a", 10);
  // Aborted insert: begin stays infinity, tid released.
  auto loc = table_->AppendRow({Value(int64_t{2}), Value(std::string("b"))},
                               9);
  ASSERT_TRUE(loc.ok());
  heap_->region().AtomicPersist64(&table_->mvcc(*loc)->tid, kTidNone);
  auto stats = MergeTable(*table_, 100);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_after, 1u);
}

TEST_F(MergeTest, SecondMergeStacksOnFirst) {
  for (int i = 0; i < 10; ++i) InsertCommitted(i, "m1", 10);
  ASSERT_TRUE(MergeTable(*table_, 100).ok());
  for (int i = 10; i < 25; ++i) InsertCommitted(i, "m2", 200);
  auto stats = MergeTable(*table_, 300);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(table_->main_row_count(), 25u);
  EXPECT_EQ(VisibleIds(300).size(), 25u);
  EXPECT_EQ(*VisibleIds(300).begin(), 0);
  EXPECT_EQ(*VisibleIds(300).rbegin(), 24);
}

TEST_F(MergeTest, MergePreservesBeginCids) {
  InsertCommitted(1, "early", 10);
  InsertCommitted(2, "late", 90);
  ASSERT_TRUE(MergeTable(*table_, 100).ok());
  // A snapshot between the two commits still sees only the early row.
  EXPECT_EQ(VisibleIds(50), (std::multiset<int64_t>{1}));
  EXPECT_EQ(VisibleIds(90).size(), 2u);
}

TEST_F(MergeTest, MergedStateSurvivesCrash) {
  for (int i = 0; i < 40; ++i) InsertCommitted(i, "x", 10);
  ASSERT_TRUE(MergeTable(*table_, 100).ok());
  for (int i = 40; i < 55; ++i) InsertCommitted(i, "y", 200);

  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  alloc::PAllocator fresh_alloc(heap_->region());
  ASSERT_TRUE(fresh_alloc.Recover().ok());
  auto catalog_result = Catalog::Attach(*heap_);
  ASSERT_TRUE(catalog_result.ok()) << catalog_result.status().ToString();
  Table* table = *(*catalog_result)->GetTable("t");
  ASSERT_TRUE(table->RepairAfterCrash().ok());
  EXPECT_EQ(table->main_row_count(), 40u);
  EXPECT_EQ(table->delta_row_count(), 15u);
  EXPECT_EQ(table->CountVisible(200, kTidNone), 55u);
}

TEST_F(MergeTest, MergeWithMixedTypesRoundTrips) {
  auto table_result = catalog_->CreateTable(
      "mixed", *Schema::Make({{"i", DataType::kInt64},
                              {"d", DataType::kDouble},
                              {"s", DataType::kString}}));
  ASSERT_TRUE(table_result.ok());
  Table* table = *table_result;
  for (int i = 0; i < 20; ++i) {
    auto loc = table->AppendRow(
        {Value(int64_t{i}), Value(i * 1.5), Value(std::string(1 + i % 5, 'q'))},
        7);
    ASSERT_TRUE(loc.ok());
    heap_->region().AtomicPersist64(&table->mvcc(*loc)->begin, 10);
    heap_->region().AtomicPersist64(&table->mvcc(*loc)->tid, kTidNone);
  }
  ASSERT_TRUE(MergeTable(*table, 100).ok());
  for (uint64_t r = 0; r < 20; ++r) {
    const auto row = table->GetRow(RowLocation{true, r});
    const int64_t i = std::get<int64_t>(row[0]);
    EXPECT_EQ(std::get<double>(row[1]), i * 1.5);
    EXPECT_EQ(std::get<std::string>(row[2]).size(), size_t(1 + i % 5));
  }
}

/// Cuts durability at every fence of one merge, crashes, and restarts.
/// Whatever the cut, the table names an allocated group, the old one or
/// the merged one, that deep-verifies clean and holds every committed
/// row: the merge retires the new group's allocation intent before the
/// publish, so a cut in between only leaks the group.
TEST(MergeCrashTest, FenceCutSweepAcrossPublish) {
  bool saw_old_group = false;
  bool saw_new_group = false;
  uint64_t complete_runs = 0;
  for (uint64_t cut = 0; complete_runs < 2; ++cut) {
    ASSERT_LT(cut, 2000u) << "sweep never reached an uncut run";
    core::DatabaseOptions options;
    options.mode = core::DurabilityMode::kNvm;
    options.region_size = 4 << 20;
    options.tracking = nvm::TrackingMode::kShadow;
    auto db = std::move(core::Database::Create(options)).ValueUnsafe();
    Table* table = *db->CreateTable("t", TestSchema());
    ASSERT_TRUE(db->CreateIndex("t", 0).ok());
    for (int64_t id = 0; id < 6; ++id) {
      ASSERT_TRUE(db->InsertAutoCommit(
                        table, {Value(id), Value("n" + std::to_string(id))})
                      .ok());
    }
    db->heap().region().FreezeShadowAfterFences(cut);
    ASSERT_TRUE(db->Merge("t").ok());
    if (!db->heap().region().shadow_frozen()) ++complete_runs;

    auto recovered = core::Database::CrashAndRecover(std::move(db));
    ASSERT_TRUE(recovered.ok())
        << "cut " << cut << ": " << recovered.status().ToString();
    const recovery::VerifyReport report =
        recovery::DeepVerify((*recovered)->heap().region());
    ASSERT_TRUE(report.clean()) << "cut " << cut << ": " << report.Summary();
    Table* rtable = *(*recovered)->GetTable("t");
    const Cid snapshot = (*recovered)->ReadSnapshot();
    for (int64_t id = 0; id < 6; ++id) {
      auto rows = (*recovered)->ScanEqual(rtable, 0, Value(id), snapshot,
                                          kTidNone);
      ASSERT_TRUE(rows.ok());
      ASSERT_EQ(rows->size(), 1u) << "cut " << cut << " id " << id;
    }
    saw_old_group |= rtable->main_row_count() == 0;
    saw_new_group |= rtable->main_row_count() == 6;
  }
  EXPECT_TRUE(saw_old_group) << "no cut before the publish";
  EXPECT_TRUE(saw_new_group) << "no cut after the publish";
}

}  // namespace
}  // namespace hyrise_nv::storage
