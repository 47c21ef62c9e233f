// Multi-threaded smoke tests: concurrent transactions across tables,
// concurrent readers against a writer on one table, and conflict-heavy
// contention on a single row. The engine's concurrency contract:
// arbitrary concurrent transactions, single writer per table.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "core/database.h"
#include "core/query.h"
#include "nvm/nvm_env.h"

namespace hyrise_nv::core {
namespace {

using storage::DataType;
using storage::Value;

std::unique_ptr<Database> MakeDb() {
  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 256 << 20;
  options.tracking = nvm::TrackingMode::kNone;
  return std::move(Database::Create(options)).ValueUnsafe();
}

storage::Schema KvSchema() {
  return *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"v", DataType::kString}});
}

TEST(ConcurrencyTest, ParallelWritersOnSeparateTables) {
  auto db = MakeDb();
  constexpr int kThreads = 4;
  constexpr int kRowsPerThread = 500;
  std::vector<storage::Table*> tables;
  for (int t = 0; t < kThreads; ++t) {
    tables.push_back(
        *db->CreateTable("t" + std::to_string(t), KvSchema()));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRowsPerThread; ++i) {
        auto tx = db->Begin();
        if (!tx.ok()) {
          ++failures;
          return;
        }
        auto insert = db->Insert(
            *tx, tables[t],
            {Value(int64_t{i}), Value(std::string("w"))});
        if (!insert.ok() || !db->Commit(*tx).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(CountRows(tables[t], db->ReadSnapshot(), storage::kTidNone),
              static_cast<uint64_t>(kRowsPerThread));
  }
}

TEST(ConcurrencyTest, ReadersNeverSeeTornStateUnderWriter) {
  auto db = MakeDb();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  // Writer inserts pairs transactionally: counts must always be even.
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread writer([&]() {
    for (int i = 0; i < 600 && !stop; ++i) {
      auto tx = *db->Begin();
      (void)db->Insert(tx, table, {Value(int64_t{2 * i}),
                                   Value(std::string("a"))});
      (void)db->Insert(tx, table, {Value(int64_t{2 * i + 1}),
                                   Value(std::string("b"))});
      (void)db->Commit(tx);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&]() {
      for (int i = 0; i < 300; ++i) {
        const uint64_t count =
            CountRows(table, db->ReadSnapshot(), storage::kTidNone);
        if (count % 2 != 0) ++violations;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop = true;
  writer.join();
  EXPECT_EQ(violations.load(), 0)
      << "a reader observed a half-committed transaction";
}

TEST(ConcurrencyTest, ContendedDeleteOnlyOneWins) {
  auto db = MakeDb();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  auto tx0 = *db->Begin();
  auto loc = *db->Insert(tx0, table,
                         {Value(int64_t{1}), Value(std::string("x"))});
  ASSERT_TRUE(db->Commit(tx0).ok());

  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      auto tx = *db->Begin();
      Status status = db->Delete(tx, table, loc);
      if (status.ok()) {
        if (db->Commit(tx).ok()) ++winners;
      } else {
        (void)db->Abort(tx);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(winners.load(), 1) << "exactly one delete may commit";
  EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 0u);
}

TEST(ConcurrencyTest, DeleteOfRowDeletedSinceSnapshotConflicts) {
  auto db = MakeDb();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  auto tx0 = *db->Begin();
  auto loc = *db->Insert(tx0, table,
                         {Value(int64_t{1}), Value(std::string("x"))});
  ASSERT_TRUE(db->Commit(tx0).ok());

  auto late = *db->Begin();  // its snapshot keeps seeing the row
  auto first = *db->Begin();
  ASSERT_TRUE(db->Delete(first, table, loc).ok());
  ASSERT_TRUE(db->Commit(first).ok());
  const Status status = db->Delete(late, table, loc);
  EXPECT_TRUE(status.IsConflict()) << status.ToString();
  ASSERT_TRUE(db->Abort(late).ok());
  EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 0u);
}

TEST(ConcurrencyTest, ParallelTidsAreUnique) {
  auto db = MakeDb();
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 2000;
  std::vector<std::vector<storage::Tid>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      seen[t].reserve(kTxnsPerThread);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto tx = *db->Begin();
        seen[t].push_back(tx.tid());
        (void)db->Commit(tx);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<storage::Tid> all;
  for (const auto& tids : seen) {
    for (const auto tid : tids) {
      EXPECT_TRUE(all.insert(tid).second) << "duplicate TID " << tid;
    }
  }
  EXPECT_EQ(all.size(), size_t{kThreads} * kTxnsPerThread);
}

// The timeline samples the passive metrics (log bytes, heap use) every
// millisecond while two writers append to the log and grow the heap. Run
// under TSan, this is the race check for those reads: each must be an
// atomic load, not a read of the writers' plain fields.
TEST(ConcurrencyTest, PassiveMetricsSampleRacesNoWriter) {
  DatabaseOptions options;
  options.mode = DurabilityMode::kWalValue;
  options.region_size = 64 << 20;
  options.data_dir = nvm::TempPath("passive_metrics_race");
  options.enable_timeline = true;
  options.timeline_interval_ms = 1;
  std::filesystem::create_directories(options.data_dir);
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* tables[2] = {*db->CreateTable("a", KvSchema()),
                                 *db->CreateTable("b", KvSchema())};
    const auto stop =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (storage::Table* table : tables) {
      writers.emplace_back([&, table] {
        for (int64_t i = 0; std::chrono::steady_clock::now() < stop; ++i) {
          if (!db->InsertAutoCommit(table, {Value(i), Value(std::string("w"))})
                   .ok()) {
            ++failures;
            return;
          }
        }
      });
    }
    for (auto& writer : writers) writer.join();
    EXPECT_EQ(failures.load(), 0);
#if HYRISE_NV_METRICS_ENABLED
    EXPECT_EQ(db->MetricsSnapshot().CounterValue("wal.bytes.logged"),
              db->log_manager()->device().size());
#endif
    EXPECT_TRUE(db->Close().ok());
  }
  std::error_code ec;
  std::filesystem::remove_all(options.data_dir, ec);
}

}  // namespace
}  // namespace hyrise_nv::core
