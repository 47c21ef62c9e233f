// Two-phase commit and in-doubt recovery (DESIGN.md §16), bottom up:
//
//  1. Engine level (TSan-clean, NVM + WAL): Prepare detaches the
//     transaction and keeps its rows invisible; Decide commits/aborts
//     idempotently; in-doubt transactions survive kill -9 (simulated via
//     CrashAndRecover) and stay invisible until decided; merge and
//     checkpoint are refused while anything is in doubt.
//  2. DecisionLog (TSan-clean): epoch bump per open, commit decisions
//     survive restart, retire forgets them, torn tails truncate.
//  3. In-process router (TSan-clean): routing, fan-out, cross-shard 2PC,
//     and the resolver converging in-doubt transactions both directions
//     (logged commit -> commit, dead-epoch unknown -> presumed abort).
//  4. Real SIGKILL over the wire (skipped under TSan, like
//     serving_recovery_test): a shard killed after prepare-ack restarts
//     in doubt and converges; a shard killed after decide keeps the
//     commit; a cluster under concurrent cross-shard load survives
//     kill -9 of one shard — the surviving shard keeps serving, the
//     restarted shard converges, and a snapshot-atomicity oracle audits
//     every transaction.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/decision_log.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common/fault_injection.h"
#include "core/database.h"
#include "net/client.h"
#include "net/net_util.h"
#include "net/server.h"
#include "nvm/nvm_env.h"

#if defined(__SANITIZE_THREAD__)
#define HYRISE_NV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYRISE_NV_TSAN 1
#endif
#endif

namespace hyrise_nv::cluster {
namespace {

using core::Database;
using core::DatabaseOptions;
using core::DurabilityMode;
using storage::DataType;
using storage::Value;

std::string MakeDataDir(const std::string& prefix) {
  const std::string dir = nvm::TempPath(prefix);
  std::filesystem::create_directories(dir);
  return dir;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// 1. Engine-level prepare/decide/in-doubt, parameterized over durability.
// ---------------------------------------------------------------------------

class Engine2pcTest : public ::testing::TestWithParam<DurabilityMode> {
 protected:
  DatabaseOptions MakeOptions() {
    DatabaseOptions options;
    options.mode = GetParam();
    options.region_size = 64 << 20;
    dir_ = MakeDataDir("cluster_2pc");
    options.data_dir = dir_;
    if (options.mode == DurabilityMode::kNvm) {
      options.tracking = nvm::TrackingMode::kShadow;
    }
    return options;
  }

  void TearDown() override {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  size_t VisibleCount(Database* db, storage::Table* table, int64_t key) {
    auto rows = db->ScanEqual(table, 0, Value(key), db->ReadSnapshot(),
                              storage::kTidNone);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows->size() : 0;
  }

  std::string dir_;
};

TEST_P(Engine2pcTest, PrepareDetachesAndDecideCommits) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(*db_result);
  auto table_result = db->CreateTable(
      "kv", *storage::Schema::Make(
                {{"k", DataType::kInt64}, {"v", DataType::kString}}));
  ASSERT_TRUE(table_result.ok());
  storage::Table* table = *table_result;

  auto tx = db->Begin();
  ASSERT_TRUE(tx.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        db->Insert(*tx, table, {Value(int64_t{7}), Value(std::string("x"))})
            .ok());
  }
  const uint64_t gtid = (1ull << 32) | 1;
  ASSERT_TRUE(db->Prepare(*tx, gtid).ok());
  // Prepared is not committed: nothing visible, and the transaction is
  // detached from the session handle.
  EXPECT_EQ(VisibleCount(db.get(), table, 7), 0u);
  EXPECT_FALSE(tx->active());
  EXPECT_EQ(db->InDoubtGtids(), std::vector<uint64_t>{gtid});

  ASSERT_TRUE(db->Decide(gtid, /*commit=*/true).ok());
  EXPECT_EQ(VisibleCount(db.get(), table, 7), 3u);
  EXPECT_TRUE(db->InDoubtGtids().empty());
  // Idempotence (the drive-by regression): a replayed decide for a
  // retired or unknown gtid answers OK and changes nothing.
  ASSERT_TRUE(db->Decide(gtid, /*commit=*/true).ok());
  ASSERT_TRUE(db->Decide(gtid, /*commit=*/false).ok());
  ASSERT_TRUE(db->Decide(0xdeadbeef, /*commit=*/false).ok());
  EXPECT_EQ(VisibleCount(db.get(), table, 7), 3u);
  ASSERT_TRUE(db->Close().ok());
}

TEST_P(Engine2pcTest, DecideAbortDropsPreparedRows) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(*db_result);
  auto table_result = db->CreateTable(
      "kv", *storage::Schema::Make(
                {{"k", DataType::kInt64}, {"v", DataType::kString}}));
  ASSERT_TRUE(table_result.ok());
  storage::Table* table = *table_result;

  auto tx = db->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(
      db->Insert(*tx, table, {Value(int64_t{1}), Value(std::string("a"))})
          .ok());
  const uint64_t gtid = (1ull << 32) | 2;
  ASSERT_TRUE(db->Prepare(*tx, gtid).ok());
  ASSERT_TRUE(db->Decide(gtid, /*commit=*/false).ok());
  EXPECT_EQ(VisibleCount(db.get(), table, 1), 0u);
  EXPECT_TRUE(db->InDoubtGtids().empty());
  // The next transaction works normally.
  auto tx2 = db->Begin();
  ASSERT_TRUE(tx2.ok());
  ASSERT_TRUE(
      db->Insert(*tx2, table, {Value(int64_t{1}), Value(std::string("b"))})
          .ok());
  ASSERT_TRUE(db->Commit(*tx2).ok());
  EXPECT_EQ(VisibleCount(db.get(), table, 1), 1u);
  ASSERT_TRUE(db->Close().ok());
}

TEST_P(Engine2pcTest, InDoubtSurvivesCrashAndConvergesBothWays) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(*db_result);
  auto table_result = db->CreateTable(
      "kv", *storage::Schema::Make(
                {{"k", DataType::kInt64}, {"v", DataType::kString}}));
  ASSERT_TRUE(table_result.ok());

  // Two prepared transactions in flight at the crash.
  const uint64_t commit_gtid = (1ull << 32) | 10;
  const uint64_t abort_gtid = (1ull << 32) | 11;
  for (const auto& [key, gtid] :
       {std::pair<int64_t, uint64_t>{100, commit_gtid},
        std::pair<int64_t, uint64_t>{200, abort_gtid}}) {
    auto tx = db->Begin();
    ASSERT_TRUE(tx.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(db->Insert(*tx, *table_result,
                             {Value(key), Value(std::string("p"))})
                      .ok());
    }
    ASSERT_TRUE(db->Prepare(*tx, gtid).ok());
  }

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok())
      << recovered_result.status().ToString();
  auto recovered = std::move(*recovered_result);
  auto rtable = recovered->GetTable("kv");
  ASSERT_TRUE(rtable.ok());

  // Both survive the crash in doubt, rows invisible.
  std::vector<uint64_t> in_doubt = recovered->InDoubtGtids();
  std::sort(in_doubt.begin(), in_doubt.end());
  EXPECT_EQ(in_doubt, (std::vector<uint64_t>{commit_gtid, abort_gtid}));
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 100), 0u);
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 200), 0u);

  // Converge one each way (the recovery handshake's two answers).
  ASSERT_TRUE(recovered->Decide(commit_gtid, /*commit=*/true).ok());
  ASSERT_TRUE(recovered->Decide(abort_gtid, /*commit=*/false).ok());
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 100), 2u);
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 200), 0u);
  EXPECT_TRUE(recovered->InDoubtGtids().empty());

  // And the outcome is durable across a second crash.
  auto again_result = Database::CrashAndRecover(std::move(recovered));
  ASSERT_TRUE(again_result.ok()) << again_result.status().ToString();
  auto again = std::move(*again_result);
  auto atable = again->GetTable("kv");
  ASSERT_TRUE(atable.ok());
  EXPECT_TRUE(again->InDoubtGtids().empty());
  EXPECT_EQ(VisibleCount(again.get(), *atable, 100), 2u);
  EXPECT_EQ(VisibleCount(again.get(), *atable, 200), 0u);
  ASSERT_TRUE(again->Close().ok());
}

TEST_P(Engine2pcTest, MergeAndCheckpointRefusedWhileInDoubt) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(*db_result);
  auto table_result = db->CreateTable(
      "kv", *storage::Schema::Make(
                {{"k", DataType::kInt64}, {"v", DataType::kString}}));
  ASSERT_TRUE(table_result.ok());

  auto tx = db->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(
      db->Insert(*tx, *table_result, {Value(int64_t{1}), Value(std::string("a"))})
          .ok());
  const uint64_t gtid = (1ull << 32) | 42;
  ASSERT_TRUE(db->Prepare(*tx, gtid).ok());

  // A merge would relocate rows the prepared write set points at, and a
  // checkpoint would move the replay base past an undecided transaction.
  // (In NVM mode checkpoint is a WAL-less no-op, so only merge applies.)
  EXPECT_FALSE(db->Merge("kv").ok());
  if (GetParam() != DurabilityMode::kNvm) {
    EXPECT_FALSE(db->Checkpoint().ok());
  }

  ASSERT_TRUE(db->Decide(gtid, /*commit=*/true).ok());
  EXPECT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Modes, Engine2pcTest,
                         ::testing::Values(DurabilityMode::kNvm,
                                           DurabilityMode::kWalValue,
                                           DurabilityMode::kWalDict));

/// The in-doubt scenario under serve-on-demand recovery. The log pass
/// itself adopts prepared transactions, so the open stays on demand: the
/// in-doubt inserts stay claimed and invisible, and the in-doubt deletes
/// claim a checkpointed row and a row only the log holds.
class Engine2pcOnDemandTest : public Engine2pcTest {
 protected:
  DatabaseOptions MakeOnDemandOptions() {
    DatabaseOptions options = MakeOptions();
    options.log_recovery = core::LogRecoveryPolicy::kServeOnDemand;
    // A delay before the index build: decisions land while degraded.
    options.drain_pause_us = 500'000;
    return options;
  }

  /// Delta rows still invisible (begin = ∞) under a live transaction's
  /// claim: the rows of in-doubt inserts.
  static size_t ClaimedInvisibleRows(Database* db, storage::Table* table) {
    size_t claimed = 0;
    for (uint64_t r = 0; r < table->delta_row_count(); ++r) {
      const storage::MvccEntry* entry = table->mvcc({false, r});
      if (entry->begin == storage::kCidInfinity &&
          db->txn_manager().IsActive(entry->tid)) {
        ++claimed;
      }
    }
    return claimed;
  }

  /// Whether a fresh transaction may delete the one visible row of `key`
  /// (it is aborted either way, so nothing changes).
  static bool CanDelete(Database* db, storage::Table* table, int64_t key) {
    auto tx = db->Begin();
    EXPECT_TRUE(tx.ok());
    auto rows = db->ScanEqual(table, 0, Value(key), tx->snapshot(),
                              tx->tid());
    EXPECT_TRUE(rows.ok() && rows->size() == 1) << "key " << key;
    const bool deleted =
        rows.ok() && !rows->empty() && db->Delete(*tx, table, (*rows)[0]).ok();
    EXPECT_TRUE(db->Abort(*tx).ok());
    return deleted;
  }
};

TEST_P(Engine2pcOnDemandTest, InDoubtSurvivesCrashAndConvergesBothWays) {
  const DatabaseOptions options = MakeOnDemandOptions();
  auto db_result = Database::Create(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(*db_result);
  auto table_result = db->CreateTable(
      "kv", *storage::Schema::Make(
                {{"k", DataType::kInt64}, {"v", DataType::kString}}));
  ASSERT_TRUE(table_result.ok());
  storage::Table* table = *table_result;
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());

  // Key 300 reaches the checkpoint; key 400 only the log.
  ASSERT_TRUE(db->InsertAutoCommit(
                    table, {Value(int64_t{300}), Value(std::string("c"))})
                  .ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->InsertAutoCommit(
                    table, {Value(int64_t{400}), Value(std::string("l"))})
                  .ok());

  // Two prepared transactions in flight at the crash, each inserting two
  // rows and deleting one committed row.
  const uint64_t commit_gtid = (1ull << 32) | 20;
  const uint64_t abort_gtid = (1ull << 32) | 21;
  for (const auto& [key, deleted_key, gtid] :
       {std::tuple<int64_t, int64_t, uint64_t>{100, 300, commit_gtid},
        std::tuple<int64_t, int64_t, uint64_t>{200, 400, abort_gtid}}) {
    auto tx = db->Begin();
    ASSERT_TRUE(tx.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          db->Insert(*tx, table, {Value(key), Value(std::string("p"))}).ok());
    }
    auto victim = db->ScanEqual(table, 0, Value(deleted_key),
                                tx->snapshot(), tx->tid());
    ASSERT_TRUE(victim.ok() && victim->size() == 1);
    ASSERT_TRUE(db->Delete(*tx, table, (*victim)[0]).ok());
    ASSERT_TRUE(db->Prepare(*tx, gtid).ok());
  }

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok())
      << recovered_result.status().ToString();
  auto recovered = std::move(*recovered_result);
  EXPECT_TRUE(recovered->last_recovery_report().log.on_demand);
  EXPECT_EQ(recovered->serving_state(), core::ServingState::kServingDegraded);
  auto rtable = recovered->GetTable("kv");
  ASSERT_TRUE(rtable.ok());

  // Both survive the crash in doubt: inserts invisible and claimed,
  // deleted rows still visible but claimed against other writers.
  std::vector<uint64_t> in_doubt = recovered->InDoubtGtids();
  std::sort(in_doubt.begin(), in_doubt.end());
  EXPECT_EQ(in_doubt, (std::vector<uint64_t>{commit_gtid, abort_gtid}));
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 100), 0u);
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 200), 0u);
  EXPECT_EQ(ClaimedInvisibleRows(recovered.get(), *rtable), 4u);
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 300), 1u);
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 400), 1u);
  EXPECT_FALSE(CanDelete(recovered.get(), *rtable, 300));
  EXPECT_FALSE(CanDelete(recovered.get(), *rtable, 400));

  // Converge one each way while still degraded.
  ASSERT_TRUE(recovered->Decide(commit_gtid, /*commit=*/true).ok());
  ASSERT_TRUE(recovered->Decide(abort_gtid, /*commit=*/false).ok());
  EXPECT_TRUE(recovered->InDoubtGtids().empty());
  EXPECT_EQ(ClaimedInvisibleRows(recovered.get(), *rtable), 0u);
  const auto expect_converged = [this](Database* db, storage::Table* t) {
    EXPECT_EQ(VisibleCount(db, t, 100), 2u);
    EXPECT_EQ(VisibleCount(db, t, 200), 0u);
    EXPECT_EQ(VisibleCount(db, t, 300), 0u);
    EXPECT_EQ(VisibleCount(db, t, 400), 1u);
    EXPECT_TRUE(CanDelete(db, t, 400));
  };
  expect_converged(recovered.get(), *rtable);
  // The build finishes and the deferred index serves the same answers.
  ASSERT_TRUE(recovered->WaitUntilRecovered(30'000).ok());
  expect_converged(recovered.get(), *rtable);

  // And the outcome is durable across a second crash.
  auto again_result = Database::CrashAndRecover(std::move(recovered));
  ASSERT_TRUE(again_result.ok()) << again_result.status().ToString();
  auto again = std::move(*again_result);
  EXPECT_TRUE(again->last_recovery_report().log.on_demand);
  auto atable = again->GetTable("kv");
  ASSERT_TRUE(atable.ok());
  EXPECT_TRUE(again->InDoubtGtids().empty());
  expect_converged(again.get(), *atable);
  ASSERT_TRUE(again->WaitUntilRecovered(30'000).ok());
  ASSERT_TRUE(again->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(WalModes, Engine2pcOnDemandTest,
                         ::testing::Values(DurabilityMode::kWalValue,
                                           DurabilityMode::kWalDict));

/// A commit decision whose WAL group sync fails. The decide enters the
/// commit path with the prepared slot; the failed hook re-seals that slot
/// kPrepared instead of freeing it, so the transaction stays in doubt in
/// the commit table as in the log, and the decision can be delivered again
/// after a restart.
class Engine2pcWalFaultTest : public Engine2pcTest {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    Engine2pcTest::TearDown();
  }

  static size_t SlotsIn(Database* db, uint64_t state) {
    size_t count = 0;
    for (const txn::PCommitSlot& slot :
         db->txn_manager().commit_table().block()->slots) {
      if (slot.state == state) ++count;
    }
    return count;
  }
};

TEST_P(Engine2pcWalFaultTest, FailedCommitDecisionStaysInDoubt) {
  auto db_result = Database::Create(MakeOptions());
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(*db_result);
  auto table_result = db->CreateTable(
      "kv", *storage::Schema::Make(
                {{"k", DataType::kInt64}, {"v", DataType::kString}}));
  ASSERT_TRUE(table_result.ok());
  auto tx = db->Begin();
  ASSERT_TRUE(tx.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(db->Insert(*tx, *table_result,
                           {Value(int64_t{5}), Value(std::string("p"))})
                    .ok());
  }
  const uint64_t gtid = (1ull << 32) | 30;
  ASSERT_TRUE(db->Prepare(*tx, gtid).ok());

  FaultInjector::Instance().Arm(FaultPoint::kWalSyncFail, FaultPlan{});
  EXPECT_FALSE(db->Decide(gtid, /*commit=*/true).ok());
  FaultInjector::Instance().DisarmAll();
  EXPECT_EQ(db->InDoubtGtids(), std::vector<uint64_t>{gtid});
  EXPECT_EQ(SlotsIn(db.get(), txn::PCommitSlot::kPrepared), 1u);
  EXPECT_EQ(SlotsIn(db.get(), txn::PCommitSlot::kCommitting), 0u);
  EXPECT_EQ(VisibleCount(db.get(), *table_result, 5), 0u);

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok())
      << recovered_result.status().ToString();
  auto recovered = std::move(*recovered_result);
  auto rtable = recovered->GetTable("kv");
  ASSERT_TRUE(rtable.ok());
  EXPECT_EQ(recovered->InDoubtGtids(), std::vector<uint64_t>{gtid});
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 5), 0u);
  ASSERT_TRUE(recovered->Decide(gtid, /*commit=*/true).ok());
  EXPECT_TRUE(recovered->InDoubtGtids().empty());
  EXPECT_EQ(VisibleCount(recovered.get(), *rtable, 5), 2u);
  ASSERT_TRUE(recovered->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(WalModes, Engine2pcWalFaultTest,
                         ::testing::Values(DurabilityMode::kWalValue,
                                           DurabilityMode::kWalDict));

// ---------------------------------------------------------------------------
// 2. DecisionLog.
// ---------------------------------------------------------------------------

TEST(DecisionLogTest, EpochBumpsAndCommitDecisionsSurviveRestart) {
  const std::string dir = MakeDataDir("decision_log");
  const std::string path = dir + "/decisions.log";
  uint64_t gtid = 0;
  {
    auto log = DecisionLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->epoch(), 1u);
    gtid = (*log)->NextGtid();
    EXPECT_EQ(gtid >> 32, 1u);
    ASSERT_TRUE((*log)->LogCommit(gtid).ok());
    ASSERT_TRUE((*log)->LogAbort((*log)->NextGtid()).ok());
    EXPECT_TRUE((*log)->KnownCommit(gtid));
  }
  {
    // Restart: epoch bumps, the commit decision survives, the abort is
    // (correctly) indistinguishable from never-logged.
    auto log = DecisionLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->epoch(), 2u);
    EXPECT_TRUE((*log)->KnownCommit(gtid));
    EXPECT_EQ((*log)->live_commits(), 1u);
    ASSERT_TRUE((*log)->LogRetired(gtid).ok());
    EXPECT_FALSE((*log)->KnownCommit(gtid));
  }
  {
    auto log = DecisionLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->epoch(), 3u);
    EXPECT_FALSE((*log)->KnownCommit(gtid));
    EXPECT_EQ((*log)->live_commits(), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DecisionLogTest, TornTailIsTruncatedNotFatal) {
  const std::string dir = MakeDataDir("decision_log_torn");
  const std::string path = dir + "/decisions.log";
  uint64_t gtid = 0;
  {
    auto log = DecisionLog::Open(path);
    ASSERT_TRUE(log.ok());
    gtid = (*log)->NextGtid();
    ASSERT_TRUE((*log)->LogCommit(gtid).ok());
  }
  {
    // A crash mid-append leaves a partial record after the sealed one.
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn.write("\x01garbage", 7);
  }
  auto log = DecisionLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_TRUE((*log)->KnownCommit(gtid));
  std::filesystem::remove_all(dir);
}

TEST(ShardMapTest, RangeAndHashPartitioning) {
  const ShardMap range(4, Partitioning::kRange, /*range_width=*/10);
  EXPECT_EQ(range.ShardForKey(Value(int64_t{0})), 0u);
  EXPECT_EQ(range.ShardForKey(Value(int64_t{9})), 0u);
  EXPECT_EQ(range.ShardForKey(Value(int64_t{10})), 1u);
  EXPECT_EQ(range.ShardForKey(Value(int64_t{39})), 3u);
  // Out-of-range keys clamp instead of crashing.
  EXPECT_EQ(range.ShardForKey(Value(int64_t{1000})), 3u);
  EXPECT_EQ(range.ShardForKey(Value(int64_t{-5})), 0u);

  const ShardMap hash(4, Partitioning::kHash);
  std::vector<size_t> hits(4, 0);
  for (int64_t k = 0; k < 4000; ++k) {
    const size_t shard = hash.ShardForKey(Value(k));
    ASSERT_LT(shard, 4u);
    ++hits[shard];
  }
  for (size_t shard = 0; shard < 4; ++shard) {
    // Dense integer keys must spread: each shard within 2x of fair share.
    EXPECT_GT(hits[shard], 500u) << "shard " << shard << " starved";
    EXPECT_LT(hits[shard], 2000u) << "shard " << shard << " overloaded";
  }
  // Determinism: the same key always lands on the same shard.
  EXPECT_EQ(hash.ShardForKey(Value(int64_t{77})),
            hash.ShardForKey(Value(int64_t{77})));
}

// ---------------------------------------------------------------------------
// 3. In-process router: routing, cross-shard 2PC, resolver convergence.
// ---------------------------------------------------------------------------

class RouterTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRangeWidth = 100;  // keys <100 -> shard 0

  void SetUp() override {
    dir_ = MakeDataDir("router_test");
    for (int i = 0; i < 2; ++i) {
      DatabaseOptions options;
      options.mode = DurabilityMode::kNone;
      auto db_result = Database::Create(options);
      ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
      dbs_.push_back(std::move(*db_result));
      net::ServerOptions server_options;
      server_options.num_workers = 2;
      auto server_result = net::Server::Start(dbs_.back().get(),
                                              server_options);
      ASSERT_TRUE(server_result.ok()) << server_result.status().ToString();
      servers_.push_back(std::move(*server_result));
    }
  }

  RouterOptions MakeRouterOptions() {
    RouterOptions options;
    options.data_dir = dir_;
    options.partitioning = Partitioning::kRange;
    options.range_width = kRangeWidth;
    options.resolver_interval_ms = 50;
    options.shard_max_retries = 3;
    for (const auto& server : servers_) {
      options.shards.push_back({"127.0.0.1", server->port()});
    }
    return options;
  }

  void StartRouter() {
    auto router_result = Router::Start(MakeRouterOptions());
    ASSERT_TRUE(router_result.ok()) << router_result.status().ToString();
    router_ = std::move(*router_result);
  }

  void TearDown() override {
    router_.reset();
    for (auto& server : servers_) {
      server->Drain();
      server->Wait();
    }
    servers_.clear();
    for (auto& db : dbs_) ASSERT_TRUE(db->Close().ok());
    dbs_.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  net::ClientOptions RouterClientOptions() {
    net::ClientOptions options;
    options.port = router_->port();
    options.max_retries = 3;
    return options;
  }

  std::string dir_;
  std::vector<std::unique_ptr<Database>> dbs_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::unique_ptr<Router> router_;
};

TEST_F(RouterTest, RoutesPartitionsAndCommitsCrossShard) {
  StartRouter();
  net::Client client(RouterClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client
                  .CreateTable("t", {{"k", DataType::kInt64},
                                     {"v", DataType::kString}})
                  .ok());

  // Cross-shard transaction: one row below the range split, one above.
  ASSERT_TRUE(client.Begin().ok());
  auto low = client.Insert("t", {Value(int64_t{5}), Value(std::string("lo"))});
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  auto high = client.Insert(
      "t", {Value(int64_t{150}), Value(std::string("hi"))});
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  // The shard tag in bits 56..63 routes the rows differently.
  EXPECT_EQ(low->row >> 56, 0u);
  EXPECT_EQ(high->row >> 56, 1u);
  auto cid = client.Commit();
  ASSERT_TRUE(cid.ok()) << cid.status().ToString();
  EXPECT_NE(*cid, 0u);  // the gtid doubles as the commit token

  // Each shard physically holds exactly its own row.
  for (int i = 0; i < 2; ++i) {
    auto table = dbs_[i]->GetTable("t");
    ASSERT_TRUE(table.ok());
    auto rows = dbs_[i]->ScanEqual(*table, 0, Value(int64_t{i == 0 ? 5 : 150}),
                                   dbs_[i]->ReadSnapshot(),
                                   storage::kTidNone);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 1u) << "shard " << i;
  }

  // Fan-out: count sums shards; a non-key scan merges both.
  auto count = client.Count("t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  auto merged = client.ScanRange("t", 0, Value(int64_t{0}),
                                 Value(int64_t{1000}));
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rows.size(), 2u);

  // Point update and delete route by the tagged location (DML needs an
  // open transaction, exactly like a single server).
  ASSERT_TRUE(client.Begin().ok());
  auto updated = client.Update(
      "t", *high, {Value(int64_t{150}), Value(std::string("hi2"))});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->row >> 56, 1u);
  // Moving the shard key across the split is refused, not mangled.
  auto moved = client.Update(
      "t", *updated, {Value(int64_t{5}), Value(std::string("no"))});
  EXPECT_FALSE(moved.ok());
  ASSERT_TRUE(client.Delete("t", *updated).ok());
  ASSERT_TRUE(client.Commit().ok());
  count = client.Count("t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);

  // Observability: the stats carry the cluster section nvql \shards
  // renders, and recovery info aggregates to ready.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"cluster\":"), std::string::npos);
  EXPECT_NE(stats->find("\"commits_cross_shard\":1"), std::string::npos);
  auto info = client.RecoveryInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->find("\"serving_state\":\"ready\""), std::string::npos);
}

TEST_F(RouterTest, ResolverConvergesInDoubtBothDirections) {
  // A dead coordinator incarnation left two in-doubt transactions on
  // shard 0: one with a logged commit decision, one never decided.
  net::Client shard_client({.port = servers_[0]->port()});
  ASSERT_TRUE(shard_client.Connect().ok());
  ASSERT_TRUE(shard_client
                  .CreateTable("t", {{"k", DataType::kInt64},
                                     {"v", DataType::kString}})
                  .ok());
  uint64_t committed_gtid = 0;
  uint64_t abandoned_gtid = 0;
  {
    auto log = DecisionLog::Open(dir_ + "/decisions.log");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    committed_gtid = (*log)->NextGtid();
    abandoned_gtid = (*log)->NextGtid();

    ASSERT_TRUE(shard_client.Begin().ok());
    ASSERT_TRUE(shard_client
                    .Insert("t", {Value(int64_t{1}),
                                  Value(std::string("committed"))})
                    .ok());
    ASSERT_TRUE(shard_client.Prepare(committed_gtid).ok());
    ASSERT_TRUE((*log)->LogCommit(committed_gtid).ok());
    // "Crash" here: the decision never reached the participant.

    ASSERT_TRUE(shard_client.Begin().ok());
    ASSERT_TRUE(shard_client
                    .Insert("t", {Value(int64_t{2}),
                                  Value(std::string("abandoned"))})
                    .ok());
    ASSERT_TRUE(shard_client.Prepare(abandoned_gtid).ok());
    // "Crash" before the decision was even logged: presumed abort.
  }

  auto in_doubt = shard_client.InDoubt();
  ASSERT_TRUE(in_doubt.ok());
  EXPECT_EQ(in_doubt->size(), 2u);

  // The restarted router (same decision log, bumped epoch) must converge
  // both: the logged commit commits, the dead-epoch unknown aborts.
  StartRouter();
  net::Client client(RouterClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        auto remaining = shard_client.InDoubt();
        return remaining.ok() && remaining->empty();
      },
      10'000))
      << "resolver did not converge the in-doubt transactions";

  auto committed = client.ScanEqual("t", 0, Value(int64_t{1}));
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->rows.size(), 1u) << "logged commit was lost";
  auto abandoned = client.ScanEqual("t", 0, Value(int64_t{2}));
  ASSERT_TRUE(abandoned.ok());
  EXPECT_TRUE(abandoned->rows.empty()) << "presumed abort did not happen";
}

/// Sends one v1-framed `payload` on `fd` and returns the reply payload.
std::vector<uint8_t> Exchange(int fd, const std::vector<uint8_t>& payload) {
  EXPECT_TRUE(net::WriteFrame(fd, payload).ok());
  auto reply = net::ReadFrame(fd, 2000);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? *reply : std::vector<uint8_t>();
}

TEST_F(RouterTest, OversizedDmlBatchCountIsRefusedNotFatal) {
  // A batch announcing 2^32-1 ops and carrying none: the router must
  // answer it like a shard does, not size anything by the peer's count.
  StartRouter();
  auto fd = net::ConnectTcp("127.0.0.1", router_->port(), 2000);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> hello;
  net::WireWriter hello_writer(&hello);
  hello_writer.U8(static_cast<uint8_t>(net::Opcode::kHello));
  hello_writer.U32(net::kHelloMagic);
  hello_writer.U16(1);
  hello_writer.U16(1);
  const std::vector<uint8_t> hello_reply = Exchange(fd->get(), hello);
  ASSERT_GE(hello_reply.size(), 2u);
  ASSERT_EQ(hello_reply[1], static_cast<uint8_t>(net::WireCode::kOk));
  std::vector<uint8_t> batch;
  net::WireWriter batch_writer(&batch);
  batch_writer.U8(static_cast<uint8_t>(net::Opcode::kDmlBatch));
  batch_writer.U32(0xFFFFFFFFu);
  const std::vector<uint8_t> batch_reply = Exchange(fd->get(), batch);
  ASSERT_GE(batch_reply.size(), 2u);
  EXPECT_EQ(batch_reply[1],
            static_cast<uint8_t>(net::WireCode::kInvalidArgument));

  net::Client client(RouterClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RouterTest, HelloAnsweredExactlyAsTheShardAnswers) {
  // An inverted range and a range above the protocol: through the
  // router the client must get the shard's own code and message.
  StartRouter();
  for (const auto& [min_version, max_version] :
       {std::pair<uint16_t, uint16_t>{2, 1},
        std::pair<uint16_t, uint16_t>{3, 9}}) {
    std::vector<uint8_t> hello;
    net::WireWriter writer(&hello);
    writer.U8(static_cast<uint8_t>(net::Opcode::kHello));
    writer.U32(net::kHelloMagic);
    writer.U16(min_version);
    writer.U16(max_version);
    if (max_version >= 2) writer.U32(0);
    auto shard_fd = net::ConnectTcp("127.0.0.1", servers_[0]->port(), 2000);
    auto router_fd = net::ConnectTcp("127.0.0.1", router_->port(), 2000);
    ASSERT_TRUE(shard_fd.ok());
    ASSERT_TRUE(router_fd.ok());
    const std::vector<uint8_t> shard_reply = Exchange(shard_fd->get(), hello);
    const std::vector<uint8_t> router_reply =
        Exchange(router_fd->get(), hello);
    ASSERT_GE(shard_reply.size(), 2u);
    EXPECT_EQ(shard_reply[1],
              static_cast<uint8_t>(net::WireCode::kNotSupported));
    EXPECT_EQ(router_reply, shard_reply)
        << "hello [" << min_version << "," << max_version << "]";
  }
}

/// What the peer does after answering: "answered" when it still answers
/// a ping, "closed" when it has hung up, "silent" when neither happens.
std::string NextPingOutcome(int fd, uint16_t version) {
  const std::vector<uint8_t> ping = {static_cast<uint8_t>(net::Opcode::kPing)};
  (void)net::SendFrame(fd, version, 77, ping);
  auto reply = net::RecvFrame(fd, version, 1000);
  if (reply.ok()) return "answered";
  return reply.status().message() == "read timeout" ? "silent" : "closed";
}

TEST_F(RouterTest, MalformedFramesAnsweredExactlyAsTheShardAnswers) {
  // The same bytes sent to a shard and to the router must draw the same
  // reply bytes and leave the session in the same state.
  StartRouter();
  const std::vector<uint8_t> ping = {static_cast<uint8_t>(net::Opcode::kPing)};
  std::vector<uint8_t> bad_crc = net::EncodeFrame(ping);
  bad_crc[4] ^= 0xFF;
  std::vector<uint8_t> oversized(net::kFrameHeaderBytes, 0);
  const uint32_t too_long = net::kMaxFrameBytes + 1;
  std::memcpy(oversized.data(), &too_long, sizeof(too_long));
  std::vector<uint8_t> bad_tag = net::EncodeTaggedFrame(42, ping);
  bad_tag[8] ^= 0x01;
  struct Case {
    const char* name;
    uint16_t version;  // negotiated by the hello sent first; 0 sends none
    std::vector<uint8_t> bytes;
    net::WireCode code;
    const char* outcome;
  };
  const Case cases[] = {
      {"unknown opcode", 1, net::EncodeFrame({0xEE, 1, 2, 3}),
       net::WireCode::kNotSupported, "answered"},
      {"ping before hello", 0, net::EncodeFrame(ping),
       net::WireCode::kProtocolError, "closed"},
      {"bad v1 CRC", 1, bad_crc, net::WireCode::kProtocolError, "closed"},
      {"oversized length", 1, oversized, net::WireCode::kProtocolError,
       "closed"},
      {"flipped v2 tag bit", 2, bad_tag, net::WireCode::kProtocolError,
       "closed"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> replies[2];
    uint32_t tags[2] = {};
    std::string outcomes[2];
    const uint16_t ports[2] = {servers_[0]->port(), router_->port()};
    for (int i = 0; i < 2; ++i) {
      auto fd = net::ConnectTcp("127.0.0.1", ports[i], 2000);
      ASSERT_TRUE(fd.ok());
      if (c.version != 0) {
        const std::vector<uint8_t> hello_reply =
            Exchange(fd->get(), net::EncodeHello({1, c.version, 0}));
        ASSERT_GE(hello_reply.size(), 2u);
        ASSERT_EQ(hello_reply[1], static_cast<uint8_t>(net::WireCode::kOk));
      }
      ASSERT_TRUE(
          net::SendAll(fd->get(), c.bytes.data(), c.bytes.size()).ok());
      const uint16_t version = std::max<uint16_t>(c.version, 1);
      auto reply = net::RecvFrame(fd->get(), version, 2000, &tags[i]);
      ASSERT_TRUE(reply.ok()) << (i == 0 ? "shard: " : "router: ")
                              << reply.status().ToString();
      replies[i] = *reply;
      outcomes[i] = NextPingOutcome(fd->get(), version);
    }
    ASSERT_GE(replies[0].size(), 2u);
    EXPECT_EQ(replies[0][1], static_cast<uint8_t>(c.code));
    EXPECT_EQ(outcomes[0], c.outcome);
    EXPECT_EQ(replies[1], replies[0]);
    EXPECT_EQ(tags[1], tags[0]);
    EXPECT_EQ(outcomes[1], outcomes[0]);
  }
}

TEST_F(RouterTest, RefusedHelloIsFollowedByEof) {
  // A shard closes the connection right after refusing a hello; so must
  // the router, or the client waits out its read timeout.
  StartRouter();
  for (const uint16_t port : {servers_[0]->port(), router_->port()}) {
    auto fd = net::ConnectTcp("127.0.0.1", port, 2000);
    ASSERT_TRUE(fd.ok());
    const std::vector<uint8_t> reply =
        Exchange(fd->get(), net::EncodeHello({3, 9, 0}));
    ASSERT_GE(reply.size(), 2u);
    EXPECT_EQ(reply[1], static_cast<uint8_t>(net::WireCode::kNotSupported));
    uint8_t byte;
    EXPECT_EQ(net::RecvAll(fd->get(), &byte, 1, 1000).message(),
              "connection closed by peer")
        << (port == router_->port() ? "router" : "shard");
  }
}

size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST_F(RouterTest, EndedSessionsAreFreed) {
  // Every ended session's socket and thread must go, not wait for Stop.
  StartRouter();
  const auto connect_and_ping = [this] {
    net::Client client(RouterClientOptions());
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Ping().ok());
  };
  connect_and_ping();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const size_t before = OpenFdCount();
  for (int i = 0; i < 200; ++i) connect_and_ping();
  EXPECT_TRUE(WaitFor([&] { return OpenFdCount() <= before + 8; }, 1000))
      << OpenFdCount() << " fds open, " << before << " before the cycles";
}

// ---------------------------------------------------------------------------
// 4. Real SIGKILL over the wire. Forked with live threads -> no TSan.
// ---------------------------------------------------------------------------

#ifndef HYRISE_NV_TSAN

uint16_t PickPort() {
  auto listener = net::CreateListener("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok());
  auto port = net::LocalPort(listener->get());
  EXPECT_TRUE(port.ok());
  return *port;
}

[[noreturn]] void ServeChild(DatabaseOptions db_options, uint16_t port,
                             bool create, const std::string& marker) {
  // Die with the test: a child that outlives an ASSERT-failed parent
  // would keep the test harness's stdout pipe open forever.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(5);  // parent already gone
  auto db_result =
      create ? Database::Create(db_options) : Database::Open(db_options);
  if (!db_result.ok()) ::_exit(2);
  auto db = std::move(db_result).ValueUnsafe();
  net::ServerOptions server_options;
  server_options.port = port;
  server_options.num_workers = 2;
  auto server_result = net::Server::Start(db.get(), server_options);
  if (!server_result.ok()) ::_exit(3);
  if (::creat(marker.c_str(), 0644) < 0) ::_exit(4);
  (*server_result)->Wait();
  server_result->reset();
  (void)db->Close();
  ::_exit(0);
}

pid_t SpawnShard(const DatabaseOptions& db_options, uint16_t port,
                 bool create, const std::string& marker) {
  std::filesystem::remove(marker);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) ServeChild(db_options, port, create, marker);
  for (int i = 0; i < 2000 && !std::filesystem::exists(marker); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(std::filesystem::exists(marker)) << "shard child never ready";
  return pid;
}

void KillNine(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
}

TEST(Cluster2pcKillTest, ShardKilledAfterPrepareAckConverges) {
  const std::string dir =
      "/tmp/hyrise-nv-2pc-prep-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DatabaseOptions db_options;
  db_options.mode = DurabilityMode::kWalValue;
  db_options.data_dir = dir;
  const uint16_t port = PickPort();

  const pid_t first =
      SpawnShard(db_options, port, /*create=*/true, dir + "/ready1");
  net::ClientOptions client_options;
  client_options.port = port;
  client_options.max_retries = 100;
  net::Client client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client
                  .CreateTable("t", {{"k", DataType::kInt64},
                                     {"v", DataType::kString}})
                  .ok());

  // Prepare is acked, then the participant dies before any decide.
  const uint64_t gtid = (9ull << 32) | 1;
  ASSERT_TRUE(client.Begin().ok());
  ASSERT_TRUE(
      client.Insert("t", {Value(int64_t{1}), Value(std::string("p"))}).ok());
  ASSERT_TRUE(client.Prepare(gtid).ok());
  KillNine(first);

  const pid_t second =
      SpawnShard(db_options, port, /*create=*/false, dir + "/ready2");
  // The restart surfaces it in doubt; its row stays invisible; the
  // coordinator's decide commits it (and a replayed decide is harmless).
  // The first call after the kill only re-dials (the client never
  // replays a request it cannot prove unexecuted), so retry once.
  auto in_doubt = client.InDoubt();
  if (!in_doubt.ok()) in_doubt = client.InDoubt();
  ASSERT_TRUE(in_doubt.ok()) << in_doubt.status().ToString();
  EXPECT_EQ(*in_doubt, std::vector<uint64_t>{gtid});
  auto hidden = client.ScanEqual("t", 0, Value(int64_t{1}));
  ASSERT_TRUE(hidden.ok());
  EXPECT_TRUE(hidden->rows.empty());
  ASSERT_TRUE(client.Decide(gtid, /*commit=*/true).ok());
  ASSERT_TRUE(client.Decide(gtid, /*commit=*/true).ok());
  auto visible = client.ScanEqual("t", 0, Value(int64_t{1}));
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible->rows.size(), 1u);

  // And the decision survives yet another kill -9.
  KillNine(second);
  const pid_t third =
      SpawnShard(db_options, port, /*create=*/false, dir + "/ready3");
  auto after = client.ScanEqual("t", 0, Value(int64_t{1}));
  if (!after.ok()) after = client.ScanEqual("t", 0, Value(int64_t{1}));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), 1u);
  auto clean = client.InDoubt();
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->empty());
  KillNine(third);
  std::filesystem::remove_all(dir);
}

TEST(Cluster2pcKillTest, ClusterSurvivesShardKillNineUnderLoad) {
  const std::string dir =
      "/tmp/hyrise-nv-2pc-load-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/s0");
  std::filesystem::create_directories(dir + "/s1");
  std::filesystem::create_directories(dir + "/router");

  constexpr int64_t kSplit = 1'000;  // range partition: k/1000 = shard
  constexpr int kRowsPerTag = 4;     // 2 rows per shard per transaction

  DatabaseOptions s0_options;
  s0_options.mode = DurabilityMode::kWalValue;
  s0_options.data_dir = dir + "/s0";
  DatabaseOptions s1_options = s0_options;
  s1_options.data_dir = dir + "/s1";
  const uint16_t port0 = PickPort();
  const uint16_t port1 = PickPort();
  const pid_t shard0 =
      SpawnShard(s0_options, port0, /*create=*/true, dir + "/ready0");
  pid_t shard1 =
      SpawnShard(s1_options, port1, /*create=*/true, dir + "/ready1");

  RouterOptions router_options;
  router_options.data_dir = dir + "/router";
  router_options.partitioning = Partitioning::kRange;
  router_options.range_width = kSplit;
  router_options.resolver_interval_ms = 100;
  router_options.shards = {{"127.0.0.1", port0}, {"127.0.0.1", port1}};
  auto router_result = Router::Start(router_options);
  ASSERT_TRUE(router_result.ok()) << router_result.status().ToString();
  auto router = std::move(*router_result);

  net::ClientOptions client_options;
  client_options.port = router->port();
  client_options.max_retries = 100;
  net::Client setup(client_options);
  ASSERT_TRUE(setup.Connect().ok());
  ASSERT_TRUE(setup
                  .CreateTable("pairs", {{"k", DataType::kInt64},
                                         {"tag", DataType::kInt64},
                                         {"r", DataType::kString}})
                  .ok());
  ASSERT_TRUE(setup.CreateIndex("pairs", 1).ok());

  // Cross-shard loader: every transaction writes kRowsPerTag rows under
  // one tag, half on each shard. Acked tags must be fully visible after
  // everything converges; unacked tags must be all-or-nothing.
  std::set<int64_t> acked;
  std::atomic<bool> stop_load{false};
  std::thread cross_loader([&] {
    net::Client loader(client_options);
    if (!loader.Connect().ok()) return;
    for (int64_t tag = 0; !stop_load.load(); ++tag) {
      if (!loader.Begin().ok()) break;
      bool ok = true;
      for (int i = 0; ok && i < kRowsPerTag; ++i) {
        const int64_t key = (i % 2 == 0 ? tag % kSplit
                                        : kSplit + tag % kSplit);
        ok = loader
                 .Insert("pairs", {Value(key), Value(tag),
                                   Value(std::string("r") +
                                         std::to_string(i))})
                 .ok();
      }
      if (!ok) {
        (void)loader.Abort();
        continue;  // shard outage: the reconnecting client rides it out
      }
      if (loader.Commit().ok()) acked.insert(tag);
    }
  });

  // Shard-0-only traffic must keep working while shard 1 is down.
  std::atomic<uint64_t> survivor_ok{0};
  std::atomic<uint64_t> survivor_failed{0};
  std::atomic<bool> outage_live{false};
  std::thread survivor_loader([&] {
    net::Client loader(client_options);
    if (!loader.Connect().ok()) return;
    for (int64_t i = 0; !stop_load.load(); ++i) {
      const bool during_outage = outage_live.load();
      bool ok = loader.Begin().ok();
      ok = ok && loader
                     .Insert("pairs", {Value(int64_t{1}), Value(int64_t{-1}),
                                       Value(std::string("s"))})
                     .ok();
      ok = ok && loader.Commit().ok();
      if (!ok) {
        (void)loader.Abort();
        if (during_outage) survivor_failed.fetch_add(1);
      } else if (during_outage) {
        survivor_ok.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Let the load ramp, then kill -9 shard 1 mid-2PC traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  outage_live.store(true);
  KillNine(shard1);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  outage_live.store(false);
  shard1 = SpawnShard(s1_options, port1, /*create=*/false, dir + "/ready2");

  // Let everything recover and converge, then stop the load.
  std::this_thread::sleep_for(std::chrono::milliseconds(1'500));
  stop_load.store(true);
  cross_loader.join();
  survivor_loader.join();

  EXPECT_GT(survivor_ok.load(), 0u)
      << "surviving shard stopped serving during the outage";
  EXPECT_EQ(survivor_failed.load(), 0u)
      << "single-shard traffic on the surviving shard failed";
  ASSERT_GT(acked.size(), 5u) << "load barely ran";

  // Wait for the resolver to drain the restarted shard's in-doubt list.
  net::Client probe({.port = port1, .max_retries = 100});
  ASSERT_TRUE(probe.Connect().ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        auto in_doubt = probe.InDoubt();
        return in_doubt.ok() && in_doubt->empty();
      },
      20'000))
      << "restarted shard still has in-doubt transactions";

  // Snapshot-atomicity oracle over the wire: every acked tag is fully
  // there; every other tag is all-or-nothing. (During the decide window
  // of a live 2PC a fan-out read may see one shard early — the oracle
  // audits the converged state, which is what 2PC guarantees.)
  net::Client audit(client_options);
  ASSERT_TRUE(audit.Connect().ok());
  const int64_t max_tag = acked.empty() ? 0 : *acked.rbegin();
  for (int64_t tag = 0; tag <= max_tag; ++tag) {
    auto rows = audit.ScanEqual("pairs", 1, Value(tag));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    if (acked.count(tag) > 0) {
      EXPECT_EQ(rows->rows.size(), static_cast<size_t>(kRowsPerTag))
          << "acked tag " << tag << " lost rows across the shard kill";
    } else {
      EXPECT_TRUE(rows->rows.empty() ||
                  rows->rows.size() == static_cast<size_t>(kRowsPerTag))
          << "torn cross-shard transaction for tag " << tag << ": "
          << rows->rows.size() << " rows";
    }
  }

  router.reset();
  KillNine(shard0);
  KillNine(shard1);
  std::filesystem::remove_all(dir);
}

#endif  // !HYRISE_NV_TSAN

}  // namespace
}  // namespace hyrise_nv::cluster
