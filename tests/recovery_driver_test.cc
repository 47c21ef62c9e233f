// Serve-during-recovery (DESIGN.md §13): an on-demand log open serves
// right after the log pass, degraded while one background thread builds
// the indexes. These tests are all in-process (no fork), so they run
// under TSan and cover the concurrency story: readers racing the
// background index build and its ready flip, values readable right after
// the open, writes landing during the degraded window, admin operations
// being shed, the corrupt-checkpoint fallback signals, and a second crash
// while the build is still pending.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "nvm/nvm_env.h"
#include "obs/metrics.h"

namespace hyrise_nv::core {
namespace {

using storage::DataType;
using storage::Value;

storage::Schema KvSchema() {
  return *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"v", DataType::kString}});
}

std::string MakeDataDir(const std::string& prefix) {
  const std::string dir = nvm::TempPath(prefix);
  std::filesystem::create_directories(dir);
  return dir;
}

void FlipByteInFile(const std::string& path, uint64_t offset,
                    uint8_t mask = 0x10) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  ASSERT_TRUE(file.good());
  byte = static_cast<char>(byte ^ mask);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

class OnDemandRecoveryTest
    : public ::testing::TestWithParam<DurabilityMode> {
 protected:
  /// On-demand policy with a delay before the background index build,
  /// so tests get a wide degraded window to poke at. Only an open with
  /// an index to build is degraded.
  DatabaseOptions MakeOptions(const std::string& prefix,
                              uint64_t pause_us = 300'000) {
    DatabaseOptions options;
    options.mode = GetParam();
    options.region_size = 64 << 20;
    dir_ = MakeDataDir(prefix);
    options.data_dir = dir_;
    options.log_recovery = LogRecoveryPolicy::kServeOnDemand;
    options.drain_pause_us = pause_us;
    return options;
  }

  void TearDown() override {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::string dir_;
};

/// Loads `rows` rows (k = i % 10, v = "v<i>") and deletes every 7th row,
/// returning the expected surviving count.
uint64_t LoadWorkload(Database* db, storage::Table* table, int rows) {
  uint64_t live = 0;
  for (int i = 0; i < rows; ++i) {
    auto tx = db->Begin();
    EXPECT_TRUE(tx.ok());
    auto loc = db->Insert(*tx, table,
                          {Value(int64_t{i % 10}),
                           Value(std::string("v") + std::to_string(i))});
    EXPECT_TRUE(loc.ok()) << loc.status().ToString();
    EXPECT_TRUE(db->Commit(*tx).ok());
    if (i % 7 == 0) {
      auto del_tx = db->Begin();
      EXPECT_TRUE(del_tx.ok());
      EXPECT_TRUE(db->Delete(*del_tx, table, *loc).ok());
      EXPECT_TRUE(db->Commit(*del_tx).ok());
    } else {
      ++live;
    }
  }
  return live;
}

/// Expected visible rows for key `k` after LoadWorkload(rows).
uint64_t ExpectedForKey(int rows, int k) {
  uint64_t n = 0;
  for (int i = 0; i < rows; ++i) {
    if (i % 10 == k && i % 7 != 0) ++n;
  }
  return n;
}

TEST_P(OnDemandRecoveryTest, DegradedScansMatchEagerState) {
  auto options = MakeOptions("ondemand_basic");
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  const int kRows = 400;
  const uint64_t live = LoadWorkload(db.get(), table, kRows);

  // One uncommitted transaction at crash time: its row must stay
  // invisible through on-demand recovery, exactly as under eager replay.
  auto open_tx = db->Begin();
  ASSERT_TRUE(open_tx.ok());
  ASSERT_TRUE(db->Insert(*open_tx, table,
                         {Value(int64_t{3}), Value(std::string("ghost"))})
                  .ok());

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  EXPECT_TRUE(recovered->last_recovery_report().recovered);
  EXPECT_TRUE(recovered->last_recovery_report().log.on_demand);
  ASSERT_EQ(recovered->serving_state(), ServingState::kServingDegraded)
      << "the delayed index build should leave a degraded window";

  storage::Table* rtable = *recovered->GetTable("kv");
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(), storage::kTidNone),
            live);

  // Point scans during the degraded window run index-free.
  for (const int k : {3, 0, 9}) {
    auto rows = recovered->ScanEqual(rtable, 0, Value(int64_t{k}),
                                     recovered->ReadSnapshot(),
                                     storage::kTidNone);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), ExpectedForKey(kRows, k)) << "key " << k;
    for (const auto& row : MaterializeRows(rtable, *rows)) {
      EXPECT_EQ(std::get<int64_t>(row[0]), int64_t{k});
      EXPECT_EQ(std::get<std::string>(row[1]).front(), 'v');
    }
  }

  auto range = recovered->ScanRange(rtable, 0, Value(int64_t{2}),
                                    Value(int64_t{5}),
                                    recovered->ReadSnapshot(),
                                    storage::kTidNone);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  uint64_t expected_range = 0;
  for (int k = 2; k <= 5; ++k) expected_range += ExpectedForKey(kRows, k);
  EXPECT_EQ(range->size(), expected_range);

  ASSERT_TRUE(recovered->WaitUntilRecovered(30'000).ok());
  EXPECT_EQ(recovered->serving_state(), ServingState::kReady);
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(), storage::kTidNone),
            live);
  // Same answers through the built index.
  auto after = recovered->ScanEqual(rtable, 0, Value(int64_t{3}),
                                    recovered->ReadSnapshot(),
                                    storage::kTidNone);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), ExpectedForKey(kRows, 3));
}

TEST_P(OnDemandRecoveryTest, WritesLandDuringDegradedWindow) {
  auto options = MakeOptions("ondemand_writes");
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  const int kRows = 600;
  const uint64_t live = LoadWorkload(db.get(), table, kRows);

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  ASSERT_EQ(recovered->serving_state(), ServingState::kServingDegraded);

  storage::Table* rtable = *recovered->GetTable("kv");
  // New inserts while the index build is pending.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(recovered
                    ->InsertAutoCommit(rtable, {Value(int64_t{777}),
                                                Value(std::string("new"))})
                    .ok());
  }
  // Delete a recovered row while degraded: an index-free scan finds the
  // key's rows, then the delete stamps one of them.
  auto victims = recovered->ScanEqual(rtable, 0, Value(int64_t{4}),
                                      recovered->ReadSnapshot(),
                                      storage::kTidNone);
  ASSERT_TRUE(victims.ok());
  ASSERT_FALSE(victims->empty());
  auto del_tx = recovered->Begin();
  ASSERT_TRUE(del_tx.ok());
  ASSERT_TRUE(recovered->Delete(*del_tx, rtable, victims->front()).ok());
  ASSERT_TRUE(recovered->Commit(*del_tx).ok());

  ASSERT_TRUE(recovered->WaitUntilRecovered(30'000).ok());
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(), storage::kTidNone),
            live + 50 - 1);
  auto new_rows = recovered->ScanEqual(rtable, 0, Value(int64_t{777}),
                                       recovered->ReadSnapshot(),
                                       storage::kTidNone);
  ASSERT_TRUE(new_rows.ok());
  EXPECT_EQ(new_rows->size(), 50u);
  auto key4 = recovered->ScanEqual(rtable, 0, Value(int64_t{4}),
                                   recovered->ReadSnapshot(),
                                   storage::kTidNone);
  ASSERT_TRUE(key4.ok());
  EXPECT_EQ(key4->size(), ExpectedForKey(kRows, 4) - 1);
}

TEST_P(OnDemandRecoveryTest, ConcurrentScansRaceTheIndexBuild) {
  // A short delay: readers start degraded and keep scanning across the
  // build and the ready flip.
  auto options = MakeOptions("ondemand_concurrent", /*pause_us=*/50'000);
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  const int kRows = 800;
  LoadWorkload(db.get(), table, kRows);

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  ASSERT_EQ(recovered->serving_state(), ServingState::kServingDegraded);
  storage::Table* rtable = *recovered->GetTable("kv");

  // Readers hammer the same keys while the index is built under them,
  // then 20 more rounds once they have seen the flip. Every scan sees
  // exactly the expected rows: index-free before the flip, through the
  // index after it.
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  std::atomic<int> indexed_scans{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int rounds_after_flip = 0; rounds_after_flip < 20;) {
        const bool ready =
            recovered->serving_state() == ServingState::kReady;
        for (int k = 0; k < 10; ++k) {
          auto rows = recovered->ScanEqual(rtable, 0, Value(int64_t{k}),
                                           recovered->ReadSnapshot(),
                                           storage::kTidNone);
          if (!rows.ok() || rows->size() != ExpectedForKey(kRows, k)) {
            failures.fetch_add(1);
          }
        }
        if (ready) {
          ++rounds_after_flip;
          indexed_scans.fetch_add(10);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(indexed_scans.load(), 4 * 20 * 10);
  ASSERT_NE(recovered->indexes(rtable), nullptr);
  EXPECT_TRUE(recovered->indexes(rtable)->HasIndex(0));
}

// Every row holds its values as soon as the open returns, while the
// index build still waits: the log pass appends real ids, so no cell is
// filled in behind the first reads. Half the rows are deleted by a later
// commit.
TEST_P(OnDemandRecoveryTest, ValuesReadableRightAfterOpen) {
  auto options = MakeOptions("ondemand_values");
  constexpr int64_t kRows = 5'000;
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
    std::vector<storage::RowLocation> locs;
    for (int64_t i = 0; i < kRows;) {
      auto tx = *db->Begin();
      for (int j = 0; j < 500; ++j, ++i) {
        auto loc = db->Insert(tx, table,
                              {Value(i), Value("v" + std::to_string(i))});
        ASSERT_TRUE(loc.ok()) << loc.status().ToString();
        locs.push_back(*loc);
      }
      ASSERT_TRUE(db->Commit(tx).ok());
    }
    auto tx = *db->Begin();
    for (int64_t i = 0; i < kRows; i += 2) {
      ASSERT_TRUE(db->Delete(tx, table, locs[i]).ok());
    }
    ASSERT_TRUE(db->Commit(tx).ok());
    ASSERT_TRUE(db->Close().ok());
  }

  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result;
  ASSERT_EQ(db->serving_state(), ServingState::kServingDegraded);
  storage::Table* table = *db->GetTable("kv");
  std::vector<int64_t> keys;
  table->ForEachVisibleRow(
      db->ReadSnapshot(), storage::kTidNone, [&](storage::RowLocation loc) {
        for (size_t c = 0; c < 2; ++c) {
          ASSERT_NE(table->delta().column(c).AttrAt(loc.row),
                    storage::kInvalidValueId)
              << "row " << loc.row << " column " << c;
        }
        const int64_t k = std::get<int64_t>(table->GetValue(loc, 0));
        EXPECT_EQ(table->GetValue(loc, 1), Value("v" + std::to_string(k)));
        keys.push_back(k);
      });
  EXPECT_EQ(db->serving_state(), ServingState::kServingDegraded)
      << "the reads must run before the background build";
  std::vector<int64_t> expected;
  for (int64_t i = 1; i < kRows; i += 2) expected.push_back(i);
  EXPECT_EQ(keys, expected);
  ASSERT_TRUE(db->WaitUntilRecovered(30'000).ok());
}

// With no index to build, an on-demand open has nothing left for the
// background: it opens ready.
TEST_P(OnDemandRecoveryTest, OpenWithoutIndexesIsReady) {
  auto options = MakeOptions("ondemand_noindex");
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  const uint64_t live = LoadWorkload(db.get(), table, 100);

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  EXPECT_TRUE(recovered->last_recovery_report().log.on_demand);
  EXPECT_EQ(recovered->serving_state(), ServingState::kReady);
  EXPECT_TRUE(recovered->Checkpoint().ok());
  storage::Table* rtable = *recovered->GetTable("kv");
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(), storage::kTidNone),
            live);
}

TEST_P(OnDemandRecoveryTest, AdminOpsShedWhileDegraded) {
  auto options = MakeOptions("ondemand_admin");
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  LoadWorkload(db.get(), table, 400);

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  ASSERT_EQ(recovered->serving_state(), ServingState::kServingDegraded);

  // Structural operations would race the background index build; all
  // shed with a retryable Aborted.
  EXPECT_EQ(recovered->Checkpoint().code(), StatusCode::kAborted);
  EXPECT_EQ(recovered->Merge("kv").status().code(), StatusCode::kAborted);
  EXPECT_EQ(recovered->CreateIndex("kv", 1).code(), StatusCode::kAborted);

  ASSERT_TRUE(recovered->WaitUntilRecovered(30'000).ok());
  EXPECT_TRUE(recovered->Checkpoint().ok());
  EXPECT_TRUE(recovered->CreateIndex("kv", 1).ok());
}

TEST_P(OnDemandRecoveryTest, SecondCrashDuringIndexBuildRecovers) {
  auto options = MakeOptions("ondemand_doublecrash");
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  const int kRows = 600;
  const uint64_t live = LoadWorkload(db.get(), table, kRows);

  auto first = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto recovered = std::move(*first);
  ASSERT_EQ(recovered->serving_state(), ServingState::kServingDegraded);
  storage::Table* rtable = *recovered->GetTable("kv");

  // Commit new work during the degraded window, then crash again before
  // the index build ran. The build logs nothing, so the second log pass
  // starts from the same log plus the new commits.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(recovered
                    ->InsertAutoCommit(rtable, {Value(int64_t{888}),
                                                Value(std::string("late"))})
                    .ok());
  }
  auto second = Database::CrashAndRecover(std::move(recovered));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto& twice = *second;
  EXPECT_TRUE(twice->last_recovery_report().log.on_demand);

  storage::Table* ttable = *twice->GetTable("kv");
  EXPECT_EQ(CountRows(ttable, twice->ReadSnapshot(), storage::kTidNone),
            live + 30);
  auto late = twice->ScanEqual(ttable, 0, Value(int64_t{888}),
                               twice->ReadSnapshot(), storage::kTidNone);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->size(), 30u);

  ASSERT_TRUE(twice->WaitUntilRecovered(30'000).ok());
  EXPECT_EQ(CountRows(ttable, twice->ReadSnapshot(), storage::kTidNone),
            live + 30);
}

INSTANTIATE_TEST_SUITE_P(WalModes, OnDemandRecoveryTest,
                         ::testing::Values(DurabilityMode::kWalValue,
                                           DurabilityMode::kWalDict),
                         [](const auto& info) {
                           return info.param == DurabilityMode::kWalValue
                                      ? "WalValue"
                                      : "WalDict";
                         });

/// Satellite: the corrupt-checkpoint fallback must leave an audit trail
/// (metric + recovery-report flag) on the on-demand path too.
TEST(OnDemandFallbackTest, CorruptCheckpointRaisesFallbackSignals) {
  DatabaseOptions options;
  options.mode = DurabilityMode::kWalValue;
  options.region_size = 64 << 20;
  const std::string dir = MakeDataDir("ondemand_fallback");
  options.data_dir = dir;
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("a"))})
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("b"))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  const uint64_t ckpt_size = nvm::FileSize(options.CheckpointPath());
  ASSERT_GT(ckpt_size, 0u);
  FlipByteInFile(options.CheckpointPath(), ckpt_size / 2);

  const uint64_t fallbacks_before =
      obs::MetricsRegistry::Instance()
          .GetCounter("recovery.checkpoint_fallback.count")
          .Value();
  options.log_recovery = LogRecoveryPolicy::kServeOnDemand;
  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result;
  EXPECT_TRUE(db->last_recovery_report().log.checkpoint_fallback);
  EXPECT_GE(obs::MetricsRegistry::Instance()
                .GetCounter("recovery.checkpoint_fallback.count")
                .Value(),
            fallbacks_before + 1);

  ASSERT_TRUE(db->WaitUntilRecovered(30'000).ok());
  storage::Table* table = *db->GetTable("kv");
  EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 20u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace hyrise_nv::core
