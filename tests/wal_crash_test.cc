// WAL-engine crash semantics and cross-engine equivalence.
//
// 1. Group commit: every acknowledged commit survives a crash.
// 2. Equivalence: the same scripted workload produces identical visible
//    contents in every durability mode, before and after recovery.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/random.h"
#include "core/database.h"
#include "core/query.h"
#include "nvm/nvm_env.h"

namespace hyrise_nv::core {
namespace {

using storage::Value;

std::string MakeDataDir(const std::string& prefix) {
  const std::string dir = nvm::TempPath(prefix);
  std::filesystem::create_directories(dir);
  return dir;
}

storage::Schema KvSchema() {
  return *storage::Schema::Make({{"k", storage::DataType::kInt64},
                                 {"v", storage::DataType::kString}});
}

TEST(WalCrashTest, SyncEveryCommitLosesNothing) {
  const std::string dir = MakeDataDir("wal_crash_sync1");
  DatabaseOptions options;
  options.mode = DurabilityMode::kWalValue;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                             Value(std::string("x"))})
                    .ok());
  }
  auto recovered =
      std::move(Database::CrashAndRecover(std::move(db))).ValueUnsafe();
  EXPECT_EQ(CountRows(*recovered->GetTable("kv"),
                      recovered->ReadSnapshot(), storage::kTidNone),
            10u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Runs an identical scripted workload in a given mode; returns the final
// visible key->value map after a crash + recovery.
std::map<int64_t, std::string> RunScript(DurabilityMode mode,
                                         uint64_t seed) {
  const std::string dir = MakeDataDir("equiv");
  DatabaseOptions options;
  options.mode = mode;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  EXPECT_TRUE(db->CreateIndex("kv", 0).ok());

  Rng rng(seed);
  int64_t next_key = 0;
  for (int t = 0; t < 60; ++t) {
    auto tx = *db->Begin();
    const double dice = rng.NextDouble();
    bool ok = true;
    if (dice < 0.55) {
      ok = db->Insert(tx, table, {Value(next_key++),
                                  Value(rng.NextString(8))})
               .ok();
    } else if (next_key > 0) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(next_key));
      auto rows =
          db->ScanEqual(table, 0, Value(key), tx.snapshot(), tx.tid());
      if (rows.ok() && !rows->empty()) {
        if (dice < 0.8) {
          ok = db->Update(tx, table, rows->front(),
                          {Value(key), Value(rng.NextString(8))})
                   .ok();
        } else {
          ok = db->Delete(tx, table, rows->front()).ok();
        }
      }
    }
    if (!ok || rng.Bernoulli(0.1)) {
      EXPECT_TRUE(db->Abort(tx).ok());
    } else {
      EXPECT_TRUE(db->Commit(tx).ok());
    }
    if (t == 30) {
      EXPECT_TRUE(db->Merge("kv").ok());
    }
  }

  auto recovered =
      std::move(Database::CrashAndRecover(std::move(db))).ValueUnsafe();
  storage::Table* rtable = *recovered->GetTable("kv");
  std::map<int64_t, std::string> contents;
  rtable->ForEachVisibleRow(
      recovered->ReadSnapshot(), storage::kTidNone,
      [&](storage::RowLocation loc) {
        contents[std::get<int64_t>(rtable->GetValue(loc, 0))] =
            std::get<std::string>(rtable->GetValue(loc, 1));
      });
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return contents;
}

class EquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceTest, AllEnginesRecoverIdenticalState) {
  const uint64_t seed = GetParam();
  const auto nvm_state = RunScript(DurabilityMode::kNvm, seed);
  const auto wal_state = RunScript(DurabilityMode::kWalValue, seed);
  const auto dict_state = RunScript(DurabilityMode::kWalDict, seed);
  EXPECT_FALSE(nvm_state.empty());
  EXPECT_EQ(nvm_state, wal_state) << "seed " << seed;
  EXPECT_EQ(nvm_state, dict_state) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hyrise_nv::core
