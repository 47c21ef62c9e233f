// Crash-injection property tests: run a randomized transactional
// workload, cut durability at an arbitrary fence (mid-operation,
// mid-commit — anywhere), crash, recover, and verify that the recovered
// database equals the committed prefix exactly.
//
// The oracle: every committed transaction is recorded with its CID and
// its logical effects. After recovery, the persistent commit watermark
// defines the durable prefix; replaying the recorded effects up to that
// watermark must reproduce the recovered table contents — nothing torn,
// nothing lost, nothing resurrected.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/query.h"
#include "recovery/verify.h"

namespace hyrise_nv::core {
namespace {

using storage::RowLocation;
using storage::Value;

struct LoggedOp {
  enum Kind { kPut, kErase } kind;  // kPut covers insert and update
  int64_t key;
  std::string value;
};

struct LoggedTxn {
  storage::Cid cid;
  std::vector<LoggedOp> ops;
};

class CrashInjectionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashInjectionTest, RecoversExactlyTheCommittedPrefix) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.tracking = nvm::TrackingMode::kShadow;
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  auto schema = *storage::Schema::Make(
      {{"k", storage::DataType::kInt64},
       {"v", storage::DataType::kString}});
  storage::Table* table = *db->CreateTable("kv", schema);
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());

  // Phase 1: a guaranteed-durable prefix, optionally merged.
  std::vector<LoggedTxn> committed;
  std::map<int64_t, std::string> live_keys;  // volatile helper
  int64_t next_key = 0;

  auto run_txn = [&]() -> Status {
    auto tx_result = db->Begin();
    if (!tx_result.ok()) return tx_result.status();
    auto tx = *tx_result;
    LoggedTxn logged;
    const int ops = 1 + static_cast<int>(rng.Uniform(4));
    for (int op = 0; op < ops; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.5 || live_keys.empty()) {
        // Insert a fresh key.
        const int64_t key = next_key++;
        const std::string value = rng.NextString(12);
        auto insert = db->Insert(tx, table, {Value(key), Value(value)});
        if (!insert.ok()) return insert.status();
        logged.ops.push_back({LoggedOp::kPut, key, value});
      } else {
        // Pick a random existing key.
        auto it = live_keys.lower_bound(
            static_cast<int64_t>(rng.Uniform(next_key)));
        if (it == live_keys.end()) it = live_keys.begin();
        const int64_t key = it->first;
        auto rows = db->ScanEqual(table, 0, Value(key), tx.snapshot(),
                                  tx.tid());
        if (!rows.ok()) return rows.status();
        if (rows->empty()) continue;  // deleted by this txn already
        if (dice < 0.75) {
          const std::string value = rng.NextString(12);
          auto update = db->Update(tx, table, rows->front(),
                                   {Value(key), Value(value)});
          if (!update.ok()) return update.status();
          logged.ops.push_back({LoggedOp::kPut, key, value});
        } else {
          Status del = db->Delete(tx, table, rows->front());
          if (!del.ok()) return del;
          logged.ops.push_back({LoggedOp::kErase, key, ""});
        }
      }
    }
    if (rng.Bernoulli(0.1)) {
      return db->Abort(tx);  // aborted txns leave no logged entry
    }
    Status commit_status = db->Commit(tx);
    if (!commit_status.ok()) return commit_status;
    logged.cid = tx.commit_cid();
    committed.push_back(logged);
    for (const auto& op : logged.ops) {
      if (op.kind == LoggedOp::kPut) {
        live_keys[op.key] = op.value;
      } else {
        live_keys.erase(op.key);
      }
    }
    return Status::OK();
  };

  for (int t = 0; t < 30; ++t) {
    ASSERT_TRUE(run_txn().ok()) << "seed " << seed << " txn " << t;
  }
  if (rng.Bernoulli(0.5)) {
    ASSERT_TRUE(db->Merge("kv").ok());
  }

  // Phase 2: freeze durability at a random upcoming fence, then keep
  // running — including merges, so the cut can land mid-merge (group
  // swap, index reset, old-generation retirement).
  db->heap().region().FreezeShadowAfterFences(1 + rng.Uniform(600));
  for (int t = 0; t < 40; ++t) {
    Status status = run_txn();
    ASSERT_TRUE(status.ok()) << "seed " << seed << " post-freeze txn " << t
                             << ": " << status.ToString();
    if (rng.Bernoulli(0.05)) {
      ASSERT_TRUE(db->Merge("kv").ok()) << "seed " << seed;
    }
  }

  // Phase 3: crash + instant restart.
  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok())
      << "seed " << seed << ": " << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  storage::Table* rtable = *recovered->GetTable("kv");

  // Oracle: committed prefix up to the recovered watermark.
  const storage::Cid watermark = recovered->ReadSnapshot();
  std::map<int64_t, std::string> expected;
  size_t durable_txns = 0;
  for (const auto& txn : committed) {
    if (txn.cid > watermark) continue;
    ++durable_txns;
    for (const auto& op : txn.ops) {
      if (op.kind == LoggedOp::kPut) {
        expected[op.key] = op.value;
      } else {
        expected.erase(op.key);
      }
    }
  }

  // 1. Row count matches exactly.
  ASSERT_EQ(CountRows(rtable, watermark, storage::kTidNone),
            expected.size())
      << "seed " << seed << " (durable txns: " << durable_txns << " of "
      << committed.size() << ", watermark " << watermark << ")";

  // 2. Every expected key present exactly once, with the right value,
  //    through the index.
  for (const auto& [key, value] : expected) {
    auto rows = recovered->ScanEqual(rtable, 0, Value(key), watermark,
                                     storage::kTidNone);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u) << "seed " << seed << " key " << key;
    EXPECT_EQ(std::get<std::string>(rtable->GetValue(rows->front(), 1)),
              value)
        << "seed " << seed << " key " << key;
  }

  // 3. No resurrected keys: scan everything and cross-check the model.
  uint64_t seen = 0;
  rtable->ForEachVisibleRow(watermark, storage::kTidNone,
                            [&](RowLocation loc) {
                              const int64_t key = std::get<int64_t>(
                                  rtable->GetValue(loc, 0));
                              ASSERT_TRUE(expected.count(key))
                                  << "seed " << seed
                                  << " resurrected key " << key;
                              ++seen;
                            });
  EXPECT_EQ(seen, expected.size());

  // 4. The recovered database accepts new transactions.
  auto tx = *recovered->Begin();
  ASSERT_TRUE(recovered
                  ->Insert(tx, rtable, {Value(int64_t{1} << 40),
                                        Value(std::string("alive"))})
                  .ok());
  ASSERT_TRUE(recovered->Commit(tx).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashInjectionTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

// A transaction spanning two tables must commit atomically across both,
// for every possible crash point inside the commit.
class CrossTableAtomicityTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CrossTableAtomicityTest, BothTablesOrNeither) {
  const uint64_t crash_fences = GetParam();
  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.tracking = nvm::TrackingMode::kShadow;
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  auto schema = *storage::Schema::Make({{"k", storage::DataType::kInt64}});
  storage::Table* debit = *db->CreateTable("debit", schema);
  storage::Table* credit = *db->CreateTable("credit", schema);

  // A durable baseline transaction in each table.
  ASSERT_TRUE(db->InsertAutoCommit(debit, {Value(int64_t{0})}).ok());
  ASSERT_TRUE(db->InsertAutoCommit(credit, {Value(int64_t{0})}).ok());

  // The cross-table transaction, with durability cut `crash_fences`
  // fences into it.
  db->heap().region().FreezeShadowAfterFences(crash_fences);
  auto tx = *db->Begin();
  ASSERT_TRUE(db->Insert(tx, debit, {Value(int64_t{1})}).ok());
  ASSERT_TRUE(db->Insert(tx, credit, {Value(int64_t{1})}).ok());
  ASSERT_TRUE(db->Commit(tx).ok());

  auto recovered =
      std::move(Database::CrashAndRecover(std::move(db))).ValueUnsafe();
  const storage::Cid snap = recovered->ReadSnapshot();
  const uint64_t debit_rows =
      CountRows(*recovered->GetTable("debit"), snap, storage::kTidNone);
  const uint64_t credit_rows =
      CountRows(*recovered->GetTable("credit"), snap, storage::kTidNone);
  EXPECT_EQ(debit_rows, credit_rows)
      << "crash at fence " << crash_fences
      << " split a cross-table transaction";
  EXPECT_GE(debit_rows, 1u);
  EXPECT_LE(debit_rows, 2u);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrossTableAtomicityTest,
                         ::testing::Range(uint64_t{1}, uint64_t{30}));

// The delta dictionaries' value→id tables under every fence cut of six
// inserts with fresh values, which cross a table growth (the ninth id
// doubles each column's table): the cut can land between a value append
// and its slot store, and before or after the growth publish. The
// crashed image must deep-verify clean (a missing last id is allowed),
// and after instant restart every committed value keeps exactly one id.
class DictionaryTableCrashTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DictionaryTableCrashTest, CommittedValuesKeepExactlyOneId) {
  const uint64_t crash_fences = GetParam();
  DatabaseOptions options;
  options.mode = DurabilityMode::kNvm;
  options.region_size = 16 << 20;
  options.tracking = nvm::TrackingMode::kShadow;
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  auto schema = *storage::Schema::Make(
      {{"k", storage::DataType::kInt64}, {"v", storage::DataType::kString}});
  storage::Table* table = *db->CreateTable("kv", schema);
  ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
  const auto row_of = [](int64_t k) {
    return std::vector<Value>{Value(k), Value("value-" + std::to_string(k))};
  };
  for (int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(db->InsertAutoCommit(table, row_of(k)).ok());
  }
  db->heap().region().FreezeShadowAfterFences(crash_fences);
  for (int64_t k = 8; k < 14; ++k) {
    ASSERT_TRUE(db->InsertAutoCommit(table, row_of(k)).ok());
  }
  ASSERT_TRUE(db->heap().region().SimulateCrash().ok());
  const recovery::VerifyReport crashed =
      recovery::DeepVerify(db->heap().region());
  EXPECT_TRUE(crashed.clean())
      << "cut " << crash_fences << ": " << crashed.Summary();

  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  storage::Table* rtable = *recovered->GetTable("kv");
  const storage::Cid snapshot = recovered->ReadSnapshot();

  // Every committed row's cells hold the one id its value maps to...
  uint64_t committed = 0;
  rtable->ForEachVisibleRow(snapshot, storage::kTidNone, [&](RowLocation loc) {
    ++committed;
    for (size_t c = 0; c < 2; ++c) {
      const auto& dict = rtable->delta().column(c).dictionary();
      EXPECT_EQ(dict.Lookup(rtable->GetValue(loc, c)),
                rtable->delta().column(c).AttrAt(loc.row))
          << "cut " << crash_fences << " row " << loc.row;
    }
  });
  for (int64_t k = 0; k < 14; ++k) {
    auto rows = recovered->ScanEqual(rtable, 0, Value(k), snapshot,
                                     storage::kTidNone);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), k < static_cast<int64_t>(committed) ? 1u : 0u)
        << "cut " << crash_fences << " key " << k;
  }
  // ...every entry maps back to itself, and re-inserting returns it.
  for (size_t c = 0; c < 2; ++c) {
    auto& dict = rtable->delta().column(c).dictionary();
    const uint64_t size = dict.size();
    for (uint64_t id = 0; id < size; ++id) {
      const Value value = dict.GetValue(static_cast<storage::ValueId>(id));
      EXPECT_EQ(dict.Lookup(value), id) << "cut " << crash_fences;
      auto again = dict.GetOrInsert(value);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, id) << "cut " << crash_fences;
    }
    EXPECT_EQ(dict.size(), size);
  }
  const recovery::VerifyReport reopened =
      recovery::DeepVerify(recovered->heap().region());
  EXPECT_TRUE(reopened.clean())
      << "cut " << crash_fences << ": " << reopened.Summary();
}

INSTANTIATE_TEST_SUITE_P(FenceCuts, DictionaryTableCrashTest,
                         ::testing::Range(uint64_t{0}, uint64_t{160}));

// Allocation intents under every fence cut of a CreateTable and the
// first commit through a fresh commit slot (which allocates the slot's
// touch buffer). Each block is published only after its intent is
// retired, so whatever the cut, allocator recovery frees nothing the
// catalog or a commit slot names: the restarted image deep-verifies
// clean and keeps working.
TEST(IntentPublishCrashTest, FenceCutSweepAcrossCreateTableAndFirstCommit) {
  const auto schema = *storage::Schema::Make(
      {{"k", storage::DataType::kInt64}, {"v", storage::DataType::kString}});
  const std::vector<Value> row = {Value(int64_t{1}), Value("one")};
  uint64_t complete_runs = 0;
  for (uint64_t cut = 0; complete_runs < 2; ++cut) {
    ASSERT_LT(cut, 500u) << "sweep never reached an uncut run";
    DatabaseOptions options;
    options.mode = DurabilityMode::kNvm;
    options.region_size = 4 << 20;
    options.tracking = nvm::TrackingMode::kShadow;
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    db->heap().region().FreezeShadowAfterFences(cut);
    storage::Table* table = *db->CreateTable("kv", schema);
    ASSERT_TRUE(db->InsertAutoCommit(table, row).ok());
    if (!db->heap().region().shadow_frozen()) ++complete_runs;

    auto recovered_result = Database::CrashAndRecover(std::move(db));
    ASSERT_TRUE(recovered_result.ok())
        << "cut " << cut << ": " << recovered_result.status().ToString();
    auto& recovered = *recovered_result;
    const recovery::VerifyReport report =
        recovery::DeepVerify(recovered->heap().region());
    ASSERT_TRUE(report.clean()) << "cut " << cut << ": " << report.Summary();
    auto rtable = recovered->GetTable("kv");
    if (!rtable.ok()) rtable = recovered->CreateTable("kv", schema);
    ASSERT_TRUE(rtable.ok()) << "cut " << cut;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(recovered->InsertAutoCommit(*rtable, row).ok())
          << "cut " << cut;
    }
    const recovery::VerifyReport after =
        recovery::DeepVerify(recovered->heap().region());
    ASSERT_TRUE(after.clean()) << "cut " << cut << ": " << after.Summary();
  }
}

// CreateIndex under fence cuts every 7th fence across its build: the
// slot is built while inactive and activated last, so after any cut the
// table either has the whole index or none, and a point read finds every
// committed row either way.
TEST(CreateIndexCrashTest, FenceCutSweepKeepsEveryCommittedRowFindable) {
  const auto schema = *storage::Schema::Make(
      {{"k", storage::DataType::kInt64}, {"v", storage::DataType::kString}});
  constexpr int64_t kRows = 100;
  for (const auto kind : {storage::kIndexHash, storage::kIndexSkipList}) {
    for (uint64_t cut = 1; cut <= 400; cut += 7) {
      DatabaseOptions options;
      options.mode = DurabilityMode::kNvm;
      options.region_size = 8 << 20;
      options.tracking = nvm::TrackingMode::kShadow;
      auto db = std::move(Database::Create(options)).ValueUnsafe();
      storage::Table* table = *db->CreateTable("kv", schema);
      for (int64_t k = 0; k < kRows; ++k) {
        ASSERT_TRUE(db->InsertAutoCommit(
                          table, {Value(k), Value("v" + std::to_string(k))})
                        .ok());
      }
      db->heap().region().FreezeShadowAfterFences(cut);
      ASSERT_TRUE(db->CreateIndex("kv", 0, kind).ok());

      auto recovered_result = Database::CrashAndRecover(std::move(db));
      ASSERT_TRUE(recovered_result.ok())
          << "kind " << kind << " cut " << cut << ": "
          << recovered_result.status().ToString();
      auto& recovered = *recovered_result;
      storage::Table* rtable = *recovered->GetTable("kv");
      const storage::Cid snapshot = recovered->ReadSnapshot();
      for (int64_t k = 0; k < kRows; ++k) {
        auto rows = recovered->ScanEqual(rtable, 0, Value(k), snapshot,
                                         storage::kTidNone);
        ASSERT_TRUE(rows.ok()) << "kind " << kind << " cut " << cut;
        ASSERT_EQ(rows->size(), 1u)
            << "kind " << kind << " cut " << cut << " key " << k;
      }
      const recovery::VerifyReport report =
          recovery::DeepVerify(recovered->heap().region());
      EXPECT_FALSE(report.HasStructure("index"))
          << "kind " << kind << " cut " << cut << ": " << report.Summary();
    }
  }
}

// Fence cuts across three indexed inserts: a new value, a repeated value
// (its link must reach the committed older version; its slot grows the
// slot vector) and a new value after that growth. Each cut also tears the
// epoch it cuts every way over that epoch's first three flushes, as
// persistent memory may drain one epoch's lines in any order. Link and
// count are fenced before the head is published, so after any cut the
// crashed image has no index finding, and after restart a point read
// returns exactly the visible rows a full scan finds, also after one more
// insert of a repeated value.
TEST(DeltaIndexCrashTest, FenceCutSweepFindsEveryCommittedRowOnce) {
  const auto schema = *storage::Schema::Make(
      {{"k", storage::DataType::kInt64}, {"v", storage::DataType::kString}});
  const auto row_of = [](int64_t k, const std::string& v) {
    return std::vector<Value>{Value(k), Value(v)};
  };
  // 15 preloaded keys fill 15 of the first 16 slots.
  constexpr int64_t kPreload = 15;
  uint64_t complete_runs = 0;
  for (uint64_t cut = 0; complete_runs < 2; ++cut) {
    ASSERT_LT(cut, 500u) << "sweep never reached an uncut run";
    for (uint64_t torn = 0; torn < 8; ++torn) {
      SCOPED_TRACE("cut " + std::to_string(cut) + " torn mask " +
                   std::to_string(torn));
      DatabaseOptions options;
      options.mode = DurabilityMode::kNvm;
      options.region_size = 4 << 20;
      options.tracking = nvm::TrackingMode::kShadow;
      auto db = std::move(Database::Create(options)).ValueUnsafe();
      storage::Table* table = *db->CreateTable("kv", schema);
      ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
      for (int64_t k = 0; k < kPreload; ++k) {
        ASSERT_TRUE(db->InsertAutoCommit(table, row_of(k, "old")).ok());
      }
      db->heap().region().FreezeShadowAfterFences(cut, torn);
      ASSERT_TRUE(
          db->InsertAutoCommit(table, row_of(kPreload, "new")).ok());
      ASSERT_TRUE(db->InsertAutoCommit(table, row_of(3, "again")).ok());
      ASSERT_TRUE(
          db->InsertAutoCommit(table, row_of(kPreload + 1, "new")).ok());
      if (torn == 0 && !db->heap().region().shadow_frozen()) {
        ++complete_runs;
      }
      ASSERT_TRUE(db->heap().region().SimulateCrash().ok());
      const recovery::VerifyReport crashed =
          recovery::DeepVerify(db->heap().region());
      EXPECT_FALSE(crashed.HasStructure("index")) << crashed.Summary();

      auto recovered_result = Database::CrashAndRecover(std::move(db));
      ASSERT_TRUE(recovered_result.ok())
          << recovered_result.status().ToString();
      auto& recovered = *recovered_result;
      storage::Table* rtable = *recovered->GetTable("kv");
      for (int pass = 0; pass < 2; ++pass) {
        const storage::Cid snapshot = recovered->ReadSnapshot();
        std::map<int64_t, std::set<uint64_t>> visible;
        rtable->ForEachVisibleRow(snapshot, storage::kTidNone,
                                  [&](RowLocation loc) {
                                    visible[std::get<int64_t>(
                                                rtable->GetValue(loc, 0))]
                                        .insert(loc.row);
                                  });
        for (int64_t k = 0; k < kPreload; ++k) {
          EXPECT_FALSE(visible[k].empty()) << "key " << k;
        }
        for (int64_t k = 0; k <= kPreload + 1; ++k) {
          auto rows = recovered->ScanEqual(rtable, 0, Value(k), snapshot,
                                           storage::kTidNone);
          ASSERT_TRUE(rows.ok()) << "pass " << pass << " key " << k << ": "
                                 << rows.status().ToString();
          std::set<uint64_t> found;
          for (const RowLocation& loc : *rows) found.insert(loc.row);
          EXPECT_EQ(found.size(), rows->size())
              << "pass " << pass << " key " << k;
          EXPECT_EQ(found, visible[k]) << "pass " << pass << " key " << k;
        }
        const recovery::VerifyReport report =
            recovery::DeepVerify(recovered->heap().region());
        EXPECT_FALSE(report.HasStructure("index"))
            << "pass " << pass << ": " << report.Summary();
        ASSERT_TRUE(
            recovered->InsertAutoCommit(rtable, row_of(3, "after")).ok());
      }
    }
  }
}

// 2PC under every fence cut of Prepare and Decide, for both decisions.
// The transaction inserts three rows and deletes a committed one. After
// the crash it is never prepared, in doubt, or decided, never part of
// it: not prepared and in doubt show none of its effects, in doubt
// converges when the decision is delivered again, and a decided commit
// shows all of them. An in-doubt transaction keeps its delete claim,
// except after a cut inside an abort decision's rollback, which releases
// claims before it frees the slot: then another writer may claim the row
// after the restart, and the repeated abort must leave that claim alone.
// No commit slot stays sealed once the outcome is settled.
TEST(TwoPhaseCrashTest, FenceCutSweepAcrossPrepareAndDecide) {
  const auto schema = *storage::Schema::Make(
      {{"k", storage::DataType::kInt64}, {"v", storage::DataType::kString}});
  const auto row_of = [](int64_t k) {
    return std::vector<Value>{Value(k), Value("v" + std::to_string(k))};
  };
  const auto visible_keys = [](Database& db, storage::Table* table) {
    std::multiset<int64_t> keys;
    table->ForEachVisibleRow(db.ReadSnapshot(), storage::kTidNone,
                             [&](RowLocation loc) {
                               keys.insert(std::get<int64_t>(
                                   table->GetValue(loc, 0)));
                             });
    return keys;
  };
  const auto sealed_slots = [](Database& db) {
    size_t sealed = 0;
    for (const txn::PCommitSlot& slot :
         db.txn_manager().commit_table().block()->slots) {
      if (slot.state != txn::PCommitSlot::kFree) ++sealed;
    }
    return sealed;
  };
  const std::multiset<int64_t> before{0};
  const std::multiset<int64_t> after{1, 2, 3};
  constexpr uint64_t kGtid = (uint64_t{1} << 32) | 7;
  for (const bool commit : {true, false}) {
    uint64_t not_prepared_or_aborted = 0;
    uint64_t in_doubt = 0;
    uint64_t claim_released = 0;
    uint64_t committed = 0;
    bool uncut = false;
    for (uint64_t cut = 0; !uncut; ++cut) {
      ASSERT_LT(cut, 100u) << "sweep never reached an uncut run";
      SCOPED_TRACE(std::string(commit ? "commit" : "abort") + " cut " +
                   std::to_string(cut));
      DatabaseOptions options;
      options.mode = DurabilityMode::kNvm;
      options.region_size = 4 << 20;
      options.tracking = nvm::TrackingMode::kShadow;
      auto db = std::move(Database::Create(options)).ValueUnsafe();
      storage::Table* table = *db->CreateTable("kv", schema);
      ASSERT_TRUE(db->InsertAutoCommit(table, row_of(0)).ok());
      auto tx = *db->Begin();
      for (int64_t k = 1; k <= 3; ++k) {
        ASSERT_TRUE(db->Insert(tx, table, row_of(k)).ok());
      }
      auto victim = db->ScanEqual(table, 0, Value(int64_t{0}),
                                  tx.snapshot(), tx.tid());
      ASSERT_TRUE(victim.ok() && victim->size() == 1);
      ASSERT_TRUE(db->Delete(tx, table, (*victim)[0]).ok());

      db->heap().region().FreezeShadowAfterFences(cut);
      ASSERT_TRUE(db->Prepare(tx, kGtid).ok());
      ASSERT_TRUE(db->Decide(kGtid, commit).ok());
      uncut = !db->heap().region().shadow_frozen();

      auto recovered_result = Database::CrashAndRecover(std::move(db));
      ASSERT_TRUE(recovered_result.ok())
          << recovered_result.status().ToString();
      auto& recovered = *recovered_result;
      storage::Table* rtable = *recovered->GetTable("kv");
      const std::multiset<int64_t> keys = visible_keys(*recovered, rtable);
      if (!recovered->InDoubtGtids().empty()) {
        ++in_doubt;
        EXPECT_EQ(recovered->InDoubtGtids(), std::vector<uint64_t>{kGtid});
        EXPECT_EQ(keys, before);
        EXPECT_EQ(sealed_slots(*recovered), 1u);
        const auto try_delete_old_row = [&](txn::Transaction& writer) {
          auto rows = recovered->ScanEqual(rtable, 0, Value(int64_t{0}),
                                           writer.snapshot(), writer.tid());
          return rows.ok() && rows->size() == 1 &&
                 recovered->Delete(writer, rtable, (*rows)[0]).ok();
        };
        auto probe = *recovered->Begin();
        const bool probe_claimed = try_delete_old_row(probe);
        if (probe_claimed) {
          ++claim_released;
          EXPECT_FALSE(commit) << "a commit decision lost its delete claim";
        } else {
          ASSERT_TRUE(recovered->Abort(probe).ok());
        }

        ASSERT_TRUE(recovered->Decide(kGtid, commit).ok());
        EXPECT_TRUE(recovered->InDoubtGtids().empty());
        if (probe_claimed) {
          // The repeated abort left the probe's claim in place.
          auto rival = *recovered->Begin();
          EXPECT_FALSE(try_delete_old_row(rival));
          ASSERT_TRUE(recovered->Abort(rival).ok());
          ASSERT_TRUE(recovered->Abort(probe).ok());
        }
        EXPECT_EQ(visible_keys(*recovered, rtable), commit ? after : before);
      } else if (commit && keys == after) {
        ++committed;
      } else {
        ++not_prepared_or_aborted;
        EXPECT_EQ(keys, before);
      }
      EXPECT_EQ(sealed_slots(*recovered), 0u);
    }
    EXPECT_GT(in_doubt, 0u);
    EXPECT_GT(not_prepared_or_aborted, 0u);
    if (commit) {
      EXPECT_GT(committed, 0u);
    } else {
      EXPECT_GT(claim_released, 0u);
    }
  }
}

}  // namespace
}  // namespace hyrise_nv::core
