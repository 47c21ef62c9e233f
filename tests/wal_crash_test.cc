// WAL-engine crash semantics and cross-engine equivalence.
//
// 1. Group commit: every acknowledged commit survives a crash.
// 2. Equivalence: the same scripted workload produces identical visible
//    contents in every durability mode, before and after recovery.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <tuple>
#include <vector>

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

// Replay stages a log tail's dictionary values against the checkpoint's
// delta dictionaries: a value the checkpoint holds keeps its id, a new
// one gets the next id in log order. After recovery every id must name
// the value it named before the crash, under either log format and
// either recovery policy, and Lookup must find every value.
class CheckpointedDictionaryReplayTest
    : public ::testing::TestWithParam<
          std::tuple<DurabilityMode, LogRecoveryPolicy>> {};

TEST_P(CheckpointedDictionaryReplayTest, IdsKeepTheirValues) {
  const auto [mode, policy] = GetParam();
  const std::string dir = MakeDataDir("wal_ckpt_dict_replay");
  DatabaseOptions options;
  options.mode = mode;
  options.log_recovery = policy;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  std::map<int64_t, std::string> expected;
  const auto insert = [&](int64_t first, int64_t last, auto value_of) {
    auto tx = *db->Begin();
    for (int64_t k = first; k < last; ++k) {
      ASSERT_TRUE(db->Insert(tx, table, {Value(k), Value(value_of(k))}).ok());
      expected[k] = value_of(k);
    }
    ASSERT_TRUE(db->Commit(tx).ok());
  };
  const auto checkpointed = [](int64_t k) {
    return "ckpt-" + std::to_string(k % 20);
  };
  insert(0, 40, checkpointed);
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_EQ(table->delta().column(1).dictionary().size(), 20u);
  // The tail repeats checkpointed values and adds new ones, some twice.
  insert(40, 100, [&](int64_t k) {
    return k % 3 == 0 ? checkpointed(k) : "tail-" + std::to_string(k % 25);
  });
  // An aborted insert still takes a dictionary id in the live engine.
  {
    auto tx = *db->Begin();
    ASSERT_TRUE(db->Insert(tx, table, {Value(int64_t{1000}),
                                       Value(std::string("aborted-new"))})
                    .ok());
    ASSERT_TRUE(db->Abort(tx).ok());
  }
  insert(100, 130, [](int64_t k) { return "late-" + std::to_string(k); });

  std::vector<std::vector<Value>> ids_before(2);
  for (size_t c = 0; c < 2; ++c) {
    const auto& dict = table->delta().column(c).dictionary();
    for (uint64_t id = 0; id < dict.size(); ++id) {
      ids_before[c].push_back(dict.GetValue(static_cast<storage::ValueId>(id)));
    }
  }
  ASSERT_GT(ids_before[1].size(), 20u);

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  auto recovered = std::move(recovered_result).ValueUnsafe();
  storage::Table* rtable = *recovered->GetTable("kv");
  // The dictionaries are whole once the open returns, even while an
  // on-demand open still serves degraded.
  for (size_t c = 0; c < 2; ++c) {
    const auto& dict = rtable->delta().column(c).dictionary();
    ASSERT_EQ(dict.size(), ids_before[c].size()) << "column " << c;
    for (uint64_t id = 0; id < dict.size(); ++id) {
      const auto value_id = static_cast<storage::ValueId>(id);
      EXPECT_EQ(dict.GetValue(value_id), ids_before[c][id])
          << "column " << c << " id " << id;
      EXPECT_EQ(dict.Lookup(ids_before[c][id]), value_id)
          << "column " << c << " id " << id;
    }
  }
  ASSERT_TRUE(recovered->WaitUntilRecovered(10'000).ok());
  std::map<int64_t, std::string> contents;
  rtable->ForEachVisibleRow(
      recovered->ReadSnapshot(), storage::kTidNone,
      [&](storage::RowLocation loc) {
        contents[std::get<int64_t>(rtable->GetValue(loc, 0))] =
            std::get<std::string>(rtable->GetValue(loc, 1));
      });
  EXPECT_EQ(contents, expected);
  recovered.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(
    LogFormatsAndPolicies, CheckpointedDictionaryReplayTest,
    ::testing::Combine(::testing::Values(DurabilityMode::kWalValue,
                                         DurabilityMode::kWalDict),
                       ::testing::Values(LogRecoveryPolicy::kEagerReplay,
                                         LogRecoveryPolicy::kServeOnDemand)),
    [](const auto& info) {
      std::string name =
          std::string(DurabilityModeName(std::get<0>(info.param))) + "_" +
          LogRecoveryPolicyName(std::get<1>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hyrise_nv::core
