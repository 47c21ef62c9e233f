#include <gtest/gtest.h>

#include <filesystem>

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

class RecoveryModeTest : public ::testing::TestWithParam<DurabilityMode> {
 protected:
  DatabaseOptions MakeOptions() {
    DatabaseOptions options;
    options.mode = GetParam();
    options.region_size = 64 << 20;
    dir_ = MakeDataDir("recovery_test");
    options.data_dir = dir_;
    options.tracking = nvm::TrackingMode::kShadow;
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

TEST_P(RecoveryModeTest, CommittedSurvivesUncommittedVanishes) {
  auto options = MakeOptions();
  auto db_result = Database::Create(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->InsertAutoCommit(
                      table, {Value(int64_t{i}),
                              Value(std::string("v") + std::to_string(i))})
                    .ok());
  }
  // One uncommitted transaction at crash time.
  auto tx = db->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(
      db->Insert(*tx, table, {Value(int64_t{999}), Value(std::string("x"))})
          .ok());

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok())
      << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  EXPECT_TRUE(recovered->last_recovery_report().recovered);

  auto table_result = recovered->GetTable("kv");
  ASSERT_TRUE(table_result.ok());
  storage::Table* rtable = *table_result;
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(),
                      storage::kTidNone),
            20u);
  auto rows = recovered->ScanEqual(rtable, 0, Value(int64_t{999}),
                                   recovered->ReadSnapshot(),
                                   storage::kTidNone);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty()) << "uncommitted insert must not survive";

  // Recovered database accepts new work.
  ASSERT_TRUE(recovered
                  ->InsertAutoCommit(rtable, {Value(int64_t{1000}),
                                              Value(std::string("new"))})
                  .ok());
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(),
                      storage::kTidNone),
            21u);
}

TEST_P(RecoveryModeTest, DeletesSurviveRecovery) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());

  std::vector<storage::RowLocation> locs;
  for (int i = 0; i < 10; ++i) {
    auto tx = db->Begin();
    ASSERT_TRUE(tx.ok());
    auto loc = db->Insert(
        *tx, table, {Value(int64_t{i}), Value(std::string("v"))});
    ASSERT_TRUE(loc.ok());
    locs.push_back(*loc);
    ASSERT_TRUE(db->Commit(*tx).ok());
  }
  for (int i = 0; i < 5; ++i) {
    auto tx = db->Begin();
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(db->Delete(*tx, table, locs[i]).ok());
    ASSERT_TRUE(db->Commit(*tx).ok());
  }

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok());
  auto& recovered = *recovered_result;
  storage::Table* rtable = *recovered->GetTable("kv");
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(),
                      storage::kTidNone),
            5u);
  auto sum = SumInt64(rtable, 0, recovered->ReadSnapshot(),
                      storage::kTidNone);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 5 + 6 + 7 + 8 + 9);
}

TEST_P(RecoveryModeTest, IndexesWorkAfterRecovery) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i % 10}),
                                             Value(std::string("v"))})
                    .ok());
  }
  // Merge so some data is in main (group-key path), then more in delta.
  ASSERT_TRUE(db->Merge("kv").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i % 10}),
                                             Value(std::string("d"))})
                    .ok());
  }

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok())
      << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  storage::Table* rtable = *recovered->GetTable("kv");
  auto rows = recovered->ScanEqual(rtable, 0, Value(int64_t{3}),
                                   recovered->ReadSnapshot(),
                                   storage::kTidNone);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 7u);  // 5 from main + 2 from delta
}

TEST_P(RecoveryModeTest, RepeatedCrashesStayConsistent) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());

  uint64_t expected = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(
                        table, {Value(int64_t{round * 100 + i}),
                                Value(std::string("r"))})
                      .ok());
      ++expected;
    }
    auto recovered_result = Database::CrashAndRecover(std::move(db));
    ASSERT_TRUE(recovered_result.ok())
        << "round " << round << ": "
        << recovered_result.status().ToString();
    db = std::move(recovered_result).ValueUnsafe();
    table = *db->GetTable("kv");
    ASSERT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone),
              expected)
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DurableModes, RecoveryModeTest,
    ::testing::Values(DurabilityMode::kWalValue, DurabilityMode::kWalDict,
                      DurabilityMode::kNvm),
    [](const ::testing::TestParamInfo<DurabilityMode>& info) {
      std::string name = DurabilityModeName(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ProcessRestartTest, NvmCleanCloseAndReopen) {
  const std::string dir = MakeDataDir("process_restart");
  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  options.tracking = nvm::TrackingMode::kNone;  // file-backed, no shadow
  {
    auto db_result = Database::Create(options);
    ASSERT_TRUE(db_result.ok());
    auto& db = *db_result;
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("p"))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  {
    auto db_result = Database::Open(options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    auto& db = *db_result;
    EXPECT_TRUE(db->last_recovery_report().nvm.was_clean_shutdown);
    storage::Table* table = *db->GetTable("kv");
    EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone),
              25u);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Instant restart does no work per dictionary entry: the delta
// dictionaries' value→id tables are persistent, so reopening a 50k-row
// delta of distinct values hashes nothing.
TEST(ProcessRestartTest, NvmOpenHashesNoDictionaryEntries) {
#if !HYRISE_NV_METRICS_ENABLED
  GTEST_SKIP() << "metrics compile out in this build";
#endif
  constexpr int64_t kRows = 50'000;
  const auto value_of = [](int64_t k) {
    return Value("distinct-" + std::to_string(k * 7919));
  };
  const std::string dir = MakeDataDir("process_restart_dict");
  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  options.tracking = nvm::TrackingMode::kNone;
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
    for (int64_t k = 0; k < kRows;) {
      auto tx = *db->Begin();
      for (int j = 0; j < 1000; ++j, ++k) {
        ASSERT_TRUE(db->Insert(tx, table, {Value(k), value_of(k)}).ok());
      }
      ASSERT_TRUE(db->Commit(tx).ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  const obs::Counter& rehashed = obs::MetricsRegistry::Instance().GetCounter(
      "storage.dict.index.rehashed_entries");
  const uint64_t before = rehashed.Value();
  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  EXPECT_EQ(rehashed.Value(), before);
  auto& db = *db_result;
  storage::Table* table = *db->GetTable("kv");
  EXPECT_EQ(table->delta().column(0).dictionary().size(),
            static_cast<uint64_t>(kRows));
  EXPECT_EQ(table->delta().column(1).dictionary().size(),
            static_cast<uint64_t>(kRows));
  for (const int64_t k : {int64_t{0}, int64_t{12345}, kRows - 1}) {
    auto rows = db->ScanEqual(table, 0, Value(k), db->ReadSnapshot(),
                              storage::kTidNone);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(table->GetValue(rows->front(), 1), value_of(k));
  }
  db_result->reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Log replay writes no persistent dictionary entry per value and no
// attribute cell per row: it stages each column's new values and ids in
// DRAM and publishes each in one bulk step, so an eager reopen of a
// 50k-row log of distinct values makes fewer persist calls and fences
// than it replays rows (one per value would be 50k per column, one per
// row 50k fences).
TEST(ProcessRestartTest, WalOpenPersistsPerColumnNotPerValue) {
  constexpr int64_t kRows = 50'000;
  const auto value_of = [](int64_t k) {
    return Value("distinct-" + std::to_string(k * 7919));
  };
  const std::string dir = MakeDataDir("process_restart_wal_persists");
  DatabaseOptions options;
  options.mode = DurabilityMode::kWalValue;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int64_t k = 0; k < kRows;) {
      auto tx = *db->Begin();
      for (int j = 0; j < 1000; ++j, ++k) {
        ASSERT_TRUE(db->Insert(tx, table, {Value(k), value_of(k)}).ok());
      }
      ASSERT_TRUE(db->Commit(tx).ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result;
  EXPECT_EQ(db->last_recovery_report().log.replayed_rows,
            static_cast<uint64_t>(kRows));
  EXPECT_LT(db->nvm_stats().persist_calls.load(),
            static_cast<uint64_t>(kRows));
  EXPECT_LT(db->nvm_stats().fences.load(), static_cast<uint64_t>(kRows));
  storage::Table* table = *db->GetTable("kv");
  const auto& dict = table->delta().column(1).dictionary();
  EXPECT_EQ(dict.size(), static_cast<uint64_t>(kRows));
  for (const int64_t k : {int64_t{0}, int64_t{12345}, kRows - 1}) {
    EXPECT_EQ(dict.GetValue(dict.Lookup(value_of(k))), value_of(k));
    auto rows = db->ScanEqual(table, 0, Value(k), db->ReadSnapshot(),
                              storage::kTidNone);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(table->GetValue(rows->front(), 1), value_of(k));
  }
  db_result->reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ProcessRestartTest, WalCloseAndReopen) {
  const std::string dir = MakeDataDir("process_restart_wal");
  DatabaseOptions options;
  options.mode = DurabilityMode::kWalValue;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  {
    auto db_result = Database::Create(options);
    ASSERT_TRUE(db_result.ok());
    auto& db = *db_result;
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("w"))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  {
    auto db_result = Database::Open(options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    auto& db = *db_result;
    storage::Table* table = *db->GetTable("kv");
    EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone),
              25u);
    EXPECT_GT(db->last_recovery_report().log.replayed_records, 0u);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace hyrise_nv::core
