// Concurrency tests for the commit pipeline: N threads committing and
// aborting at once, snapshot-visibility atomicity (a multi-row commit is
// seen all-or-nothing by every snapshot — the behavioural assertion that
// the watermark never advances past a half-stamped CID), watermark
// monotonicity under concurrent publish, and kill -9 mid-concurrent-
// commit roll-forward.
//
// Stress hook: when HYRISE_NV_FAULT_STALL_NS is set the fixture arms the
// kNvmPersistStall fault point with that stall, so CI can exercise the
// publish queue under induced persist latency (commits pile up behind a
// stalled predecessor and must still publish in order).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/fault_injection.h"
#include "core/database.h"
#include "core/query.h"
#include "obs/metrics.h"

namespace hyrise_nv::core {
namespace {

using storage::DataType;
using storage::Value;

/// Rows per transaction: the atomicity oracle asserts every tag is
/// visible 0 or exactly kRowsPerTag times under every snapshot.
constexpr int kRowsPerTag = 4;

storage::Schema TagSchema() {
  return *storage::Schema::Make(
      {{"tag", DataType::kInt64}, {"seq", DataType::kInt64}});
}

class TxnConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* stall = std::getenv("HYRISE_NV_FAULT_STALL_NS")) {
      FaultPlan plan;
      plan.probability = 0.05;
      plan.param = std::strtoull(stall, nullptr, 10);
      FaultInjector::Instance().Arm(FaultPoint::kNvmPersistStall, plan);
    }
  }
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  static std::unique_ptr<Database> MakeDb() {
    DatabaseOptions options;
    options.mode = DurabilityMode::kNvm;
    options.region_size = 256 << 20;
    options.tracking = nvm::TrackingMode::kNone;
    return std::move(Database::Create(options)).ValueUnsafe();
  }

  /// Commits one kRowsPerTag-row transaction under `tag`. Returns false
  /// on failure (test asserts none).
  static bool CommitTag(Database* db, storage::Table* table, int64_t tag) {
    auto tx = db->Begin();
    if (!tx.ok()) return false;
    for (int r = 0; r < kRowsPerTag; ++r) {
      if (!db->Insert(*tx, table, {Value(tag), Value(int64_t{r})}).ok()) {
        (void)db->Abort(*tx);
        return false;
      }
    }
    return db->Commit(*tx).ok();
  }
};

TEST_F(TxnConcurrencyTest, ConcurrentCommitsAreAtomicUnderSnapshots) {
  auto db = MakeDb();
  storage::Table* table = *db->CreateTable("tags", TagSchema());
  ASSERT_TRUE(db->CreateIndex("tags", 0).ok());

  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 120;
  std::atomic<int> write_failures{0};
  std::atomic<int64_t> high_tag[kWriters];
  for (auto& h : high_tag) h = -1;
  std::atomic<bool> stop{false};

  // Watermark observer: the persisted watermark must be monotone even
  // while many committers publish concurrently.
  std::atomic<int> watermark_regressions{0};
  std::thread observer([&] {
    storage::Cid prev = db->txn_manager().watermark();
    while (!stop.load(std::memory_order_acquire)) {
      const storage::Cid now = db->txn_manager().watermark();
      if (now < prev) ++watermark_regressions;
      prev = now;
    }
  });

  // Readers: any tag, under any snapshot, is visible all-or-nothing. A
  // watermark that passed a half-stamped CID would fail this — some of
  // the tag's rows would satisfy begin <= snapshot and some would not.
  std::atomic<int> atomicity_violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(1234 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(rng() % kWriters);
        const int64_t tag = high_tag[w].load(std::memory_order_acquire);
        if (tag < 0) continue;
        auto rows = db->ScanEqual(table, 0, Value(tag),
                                  db->ReadSnapshot(), storage::kTidNone);
        if (!rows.ok()) {
          ++atomicity_violations;
          continue;
        }
        const size_t n = rows->size();
        if (n != 0 && n != kRowsPerTag) ++atomicity_violations;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const int64_t tag = int64_t{w} * 1'000'000 + i;
        if (!CommitTag(db.get(), table, tag)) {
          ++write_failures;
          return;
        }
        high_tag[w].store(tag, std::memory_order_release);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  observer.join();

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(atomicity_violations.load(), 0)
      << "a snapshot observed a torn multi-row commit";
  EXPECT_EQ(watermark_regressions.load(), 0);
  // Every commit fully visible at the final snapshot.
  EXPECT_EQ(core::CountRows(table, db->ReadSnapshot(), storage::kTidNone),
            static_cast<uint64_t>(kWriters * kCommitsPerWriter *
                                  kRowsPerTag));
}

TEST_F(TxnConcurrencyTest, MixedCommitsAndAbortsNeverLeak) {
  auto db = MakeDb();
  storage::Table* table = *db->CreateTable("tags", TagSchema());
  ASSERT_TRUE(db->CreateIndex("tags", 0).ok());

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 150;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(99 + w);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        // Aborted transactions use the high tag bit so the final check
        // can prove none of their rows ever became visible.
        const bool abort = (rng() % 3) == 0;
        const int64_t tag = (abort ? int64_t{1} << 40 : 0) +
                            int64_t{w} * 1'000'000 + i;
        auto tx = db->Begin();
        if (!tx.ok()) {
          ++failures;
          return;
        }
        bool inserted = true;
        for (int r = 0; r < kRowsPerTag && inserted; ++r) {
          inserted =
              db->Insert(*tx, table, {Value(tag), Value(int64_t{r})}).ok();
        }
        if (!inserted) {
          ++failures;
          (void)db->Abort(*tx);
          return;
        }
        const Status fin = abort ? db->Abort(*tx) : db->Commit(*tx);
        if (!fin.ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // No aborted row visible; every committed tag complete.
  const storage::Cid snapshot = db->ReadSnapshot();
  std::map<int64_t, uint64_t> by_tag;
  table->ForEachVisibleRow(snapshot, storage::kTidNone,
                           [&](storage::RowLocation loc) {
                             ++by_tag[std::get<int64_t>(
                                 table->GetValue(loc, 0))];
                           });
  uint64_t committed_tags = 0;
  for (const auto& [tag, count] : by_tag) {
    EXPECT_LT(tag, int64_t{1} << 40) << "aborted transaction leaked rows";
    EXPECT_EQ(count, static_cast<uint64_t>(kRowsPerTag))
        << "torn commit for tag " << tag;
    ++committed_tags;
  }
  EXPECT_GT(committed_tags, 0u);
}

TEST_F(TxnConcurrencyTest, ReadOnlyCommitsAreCounted) {
#if !HYRISE_NV_METRICS_ENABLED
  GTEST_SKIP() << "metrics compiled out";
#else
  auto db = MakeDb();
  const auto count = [&] {
    return db->MetricsSnapshot().CounterValue("txn.commit.count");
  };
  const uint64_t before = count();
  auto tx = db->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(db->Commit(*tx).ok());
  EXPECT_EQ(count(), before + 1)
      << "read-only commits must show up in txn.commit.count";
#endif
}

#if defined(__SANITIZE_THREAD__)
#define HYRISE_NV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYRISE_NV_TSAN 1
#endif
#endif

TEST_F(TxnConcurrencyTest, KillNineMidConcurrentCommitRollsForward) {
#ifdef HYRISE_NV_TSAN
  GTEST_SKIP() << "fork with threads is unsupported under TSan";
#else
  const std::string dir =
      "/tmp/hyrise-nv-txn-conc-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string ready_marker = dir + "/loaded";

  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 256 << 20;
  options.data_dir = dir;
  // File-backed without the crash shadow: a SIGKILL leaves exactly the
  // bytes the pipeline persisted — the honest crash image.
  options.tracking = nvm::TrackingMode::kNone;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: concurrent tagged commits until killed.
    auto db_result = Database::Create(options);
    if (!db_result.ok()) ::_exit(2);
    auto db = std::move(db_result).ValueUnsafe();
    auto table_result = db->CreateTable("tags", TagSchema());
    if (!table_result.ok()) ::_exit(2);
    storage::Table* table = *table_result;
    if (::creat(ready_marker.c_str(), 0644) < 0) ::_exit(2);
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
      writers.emplace_back([&, w] {
        for (int64_t i = 0;; ++i) {
          (void)CommitTag(db.get(), table, int64_t{w} * 1'000'000 + i);
        }
      });
    }
    for (auto& t : writers) t.join();
    ::_exit(0);
  }

  // Parent: wait for the child to start committing, let the pipeline
  // run hot for a moment, then SIGKILL mid-commit.
  for (int i = 0; i < 1000 && !std::filesystem::exists(ready_marker);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(std::filesystem::exists(ready_marker)) << "child never loaded";
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

  // Recover: in-flight commits roll forward; every visible tag must be
  // complete (kRowsPerTag rows) — no half-stamped commit survives.
  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(db_result).ValueUnsafe();
  EXPECT_TRUE(db->last_recovery_report().recovered);
  auto table_result = db->GetTable("tags");
  ASSERT_TRUE(table_result.ok());
  storage::Table* table = *table_result;
  const storage::Cid snapshot = db->ReadSnapshot();
  std::map<int64_t, uint64_t> by_tag;
  table->ForEachVisibleRow(snapshot, storage::kTidNone,
                           [&](storage::RowLocation loc) {
                             ++by_tag[std::get<int64_t>(
                                 table->GetValue(loc, 0))];
                           });
  for (const auto& [tag, count] : by_tag) {
    EXPECT_EQ(count, static_cast<uint64_t>(kRowsPerTag))
        << "crash left a torn commit for tag " << tag;
  }
  // The child ran long enough that some commits must have landed.
  EXPECT_GT(by_tag.size(), 0u);
  // Post-recovery writes still work (slots were released).
  EXPECT_TRUE(CommitTag(db.get(), table, int64_t{1} << 50));
  std::filesystem::remove_all(dir);
#endif
}

}  // namespace
}  // namespace hyrise_nv::core
