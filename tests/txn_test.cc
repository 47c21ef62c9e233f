#include "txn/txn_manager.h"

#include <gtest/gtest.h>

#include "storage/merge.h"
#include "storage/mvcc.h"

namespace hyrise_nv::txn {
namespace {

using storage::DataType;
using storage::RowLocation;
using storage::Value;

class TxnTest : public ::testing::Test {
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
    auto manager_result = TxnManager::Format(*heap_);
    ASSERT_TRUE(manager_result.ok());
    manager_ = std::move(manager_result).ValueUnsafe();
    auto schema = *storage::Schema::Make({{"k", DataType::kInt64}});
    auto table_result = catalog_->CreateTable("t", schema);
    ASSERT_TRUE(table_result.ok());
    table_ = *table_result;
  }

  // Engine-level insert within a transaction.
  Result<RowLocation> Insert(Transaction& tx, int64_t k) {
    auto loc = table_->AppendRow({Value(k)}, tx.tid());
    if (!loc.ok()) return loc.status();
    tx.RecordInsert(table_, *loc);
    return *loc;
  }

  // Engine-level delete of a visible row.
  Status Delete(Transaction& tx, RowLocation loc) {
    auto* entry = table_->mvcc(loc);
    auto active = [this](storage::Tid t) { return manager_->IsActive(t); };
    HYRISE_NV_RETURN_NOT_OK(storage::ClaimForInvalidate(
        heap_->region(), entry, tx.tid(), active));
    if (entry->begin == storage::kCidInfinity) {
      storage::MarkSelfDeleted(heap_->region(), entry);
    }
    tx.RecordInvalidate(table_, loc);
    return Status::OK();
  }

  uint64_t VisibleCount() {
    return table_->CountVisible(manager_->ReadSnapshot(),
                                storage::kTidNone);
  }

  std::unique_ptr<alloc::PHeap> heap_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<TxnManager> manager_;
  storage::Table* table_ = nullptr;
};

TEST_F(TxnTest, BeginAssignsUniqueTidsAndSnapshot) {
  auto a = manager_->Begin();
  auto b = manager_->Begin();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->tid(), b->tid());
  EXPECT_NE(a->tid(), storage::kTidNone);
  EXPECT_EQ(a->snapshot(), manager_->watermark());
  EXPECT_TRUE(manager_->IsActive(a->tid()));
}

TEST_F(TxnTest, CommitMakesInsertVisible) {
  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(Insert(*tx, 1).ok());
  EXPECT_EQ(VisibleCount(), 0u) << "uncommitted insert invisible globally";
  ASSERT_TRUE(manager_->Commit(*tx).ok());
  EXPECT_EQ(tx->state(), TxnState::kCommitted);
  EXPECT_EQ(VisibleCount(), 1u);
  EXPECT_FALSE(manager_->IsActive(tx->tid()));
}

TEST_F(TxnTest, AbortHidesInsertForever) {
  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(Insert(*tx, 1).ok());
  ASSERT_TRUE(manager_->Abort(*tx).ok());
  EXPECT_EQ(VisibleCount(), 0u);
  // The aborted version is retired by merge.
  auto stats = storage::MergeTable(*table_, manager_->watermark());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_after, 0u);
}

TEST_F(TxnTest, SnapshotIsolationForReaders) {
  auto writer = manager_->Begin();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(Insert(*writer, 1).ok());

  auto reader = manager_->Begin();  // snapshot before writer commits
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(manager_->Commit(*writer).ok());

  EXPECT_EQ(table_->CountVisible(reader->snapshot(), reader->tid()), 0u)
      << "reader's snapshot predates the commit";
  auto late_reader = manager_->Begin();
  ASSERT_TRUE(late_reader.ok());
  EXPECT_EQ(
      table_->CountVisible(late_reader->snapshot(), late_reader->tid()),
      1u);
  ASSERT_TRUE(manager_->Commit(*reader).ok());
  ASSERT_TRUE(manager_->Commit(*late_reader).ok());
}

TEST_F(TxnTest, DeleteCommitRemovesRow) {
  auto tx1 = manager_->Begin();
  ASSERT_TRUE(tx1.ok());
  auto loc = Insert(*tx1, 1);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(manager_->Commit(*tx1).ok());
  ASSERT_EQ(VisibleCount(), 1u);

  auto tx2 = manager_->Begin();
  ASSERT_TRUE(tx2.ok());
  ASSERT_TRUE(Delete(*tx2, *loc).ok());
  EXPECT_EQ(VisibleCount(), 1u) << "uncommitted delete invisible globally";
  EXPECT_EQ(table_->CountVisible(tx2->snapshot(), tx2->tid()), 0u)
      << "deleter no longer sees the row";
  ASSERT_TRUE(manager_->Commit(*tx2).ok());
  EXPECT_EQ(VisibleCount(), 0u);
}

TEST_F(TxnTest, DeleteAbortRestoresRow) {
  auto tx1 = manager_->Begin();
  ASSERT_TRUE(tx1.ok());
  auto loc = Insert(*tx1, 1);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(manager_->Commit(*tx1).ok());

  auto tx2 = manager_->Begin();
  ASSERT_TRUE(tx2.ok());
  ASSERT_TRUE(Delete(*tx2, *loc).ok());
  ASSERT_TRUE(manager_->Abort(*tx2).ok());
  EXPECT_EQ(VisibleCount(), 1u);
  EXPECT_EQ(table_->mvcc(*loc)->tid, storage::kTidNone);
}

TEST_F(TxnTest, WriteWriteConflictDetected) {
  auto tx1 = manager_->Begin();
  ASSERT_TRUE(tx1.ok());
  auto loc = Insert(*tx1, 1);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(manager_->Commit(*tx1).ok());

  auto tx2 = manager_->Begin();
  auto tx3 = manager_->Begin();
  ASSERT_TRUE(tx2.ok() && tx3.ok());
  ASSERT_TRUE(Delete(*tx2, *loc).ok());
  EXPECT_TRUE(Delete(*tx3, *loc).IsConflict());
  ASSERT_TRUE(manager_->Abort(*tx2).ok());
  // After the abort, tx3 can claim the row.
  EXPECT_TRUE(Delete(*tx3, *loc).ok());
  ASSERT_TRUE(manager_->Commit(*tx3).ok());
  EXPECT_EQ(VisibleCount(), 0u);
}

TEST_F(TxnTest, InsertThenDeleteSameTxn) {
  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  auto loc = Insert(*tx, 1);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(table_->CountVisible(tx->snapshot(), tx->tid()), 1u);
  ASSERT_TRUE(Delete(*tx, *loc).ok());
  EXPECT_EQ(table_->CountVisible(tx->snapshot(), tx->tid()), 0u);
  ASSERT_TRUE(manager_->Commit(*tx).ok());
  EXPECT_EQ(VisibleCount(), 0u);
}

TEST_F(TxnTest, ReadOnlyCommitCheap) {
  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  const storage::Cid before = manager_->watermark();
  ASSERT_TRUE(manager_->Commit(*tx).ok());
  EXPECT_EQ(manager_->watermark(), before)
      << "read-only commits must not burn CIDs";
}

TEST_F(TxnTest, DoubleCommitRejected) {
  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(Insert(*tx, 1).ok());
  ASSERT_TRUE(manager_->Commit(*tx).ok());
  EXPECT_FALSE(manager_->Commit(*tx).ok());
  EXPECT_FALSE(manager_->Abort(*tx).ok());
}

TEST_F(TxnTest, CommittedDataSurvivesCrashUncommittedDoesNot) {
  auto committed = manager_->Begin();
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(Insert(*committed, 1).ok());
  ASSERT_TRUE(manager_->Commit(*committed).ok());

  auto in_flight = manager_->Begin();
  ASSERT_TRUE(in_flight.ok());
  ASSERT_TRUE(Insert(*in_flight, 2).ok());
  // No commit: crash now.
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());

  // Restart sequence: allocator recover, catalog attach, txn attach,
  // in-flight roll-forward, table repair.
  alloc::PAllocator fresh_alloc(heap_->region());
  ASSERT_TRUE(fresh_alloc.Recover().ok());
  auto catalog = storage::Catalog::Attach(*heap_);
  ASSERT_TRUE(catalog.ok());
  auto manager = TxnManager::Attach(*heap_);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->RecoverCommitSlots(**catalog).ok());
  ASSERT_TRUE((*catalog)->RepairAfterCrash().ok());

  storage::Table* table = *(*catalog)->GetTable("t");
  EXPECT_EQ(table->CountVisible((*manager)->ReadSnapshot(),
                                storage::kTidNone),
            1u);
}

TEST_F(TxnTest, CrashMidCommitRollsForward) {
  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  auto loc = Insert(*tx, 42);
  ASSERT_TRUE(loc.ok());

  // Reproduce the commit protocol up to (and including) the commit-slot
  // flip, then crash before stamping — the exact window recovery must
  // roll forward.
  std::vector<TouchEntry> touches{
      TouchEntry::Make(table_->id(), *loc, false)};
  auto cid_result = manager_->commit_table().ClaimCidBlock();
  ASSERT_TRUE(cid_result.ok());
  const storage::Cid cid = *cid_result;
  auto slot = manager_->commit_table().AcquireSlot(touches);
  ASSERT_TRUE(slot.ok());
  manager_->commit_table().SealSlot(*slot, cid);
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());

  alloc::PAllocator fresh_alloc(heap_->region());
  ASSERT_TRUE(fresh_alloc.Recover().ok());
  auto catalog = storage::Catalog::Attach(*heap_);
  ASSERT_TRUE(catalog.ok());
  auto manager = TxnManager::Attach(*heap_);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->RecoverCommitSlots(**catalog).ok());
  ASSERT_TRUE((*catalog)->RepairAfterCrash().ok());

  storage::Table* table = *(*catalog)->GetTable("t");
  EXPECT_EQ((*manager)->watermark(), cid) << "watermark rolled forward";
  EXPECT_EQ(table->CountVisible((*manager)->ReadSnapshot(),
                                storage::kTidNone),
            1u)
      << "in-flight commit must be completed";
  EXPECT_EQ(table->mvcc(*loc)->begin, cid);
}

// Crash inside the restart's own roll-forward. A sealed commit of four
// touches (three inserts and the delete of a committed row) crashes
// before any stamp; the first restart is cut at fence `cut`, its cut
// epoch torn by `torn`; a second restart then runs clean. The roll-forward
// frees the slot only after the stamps and the watermark are durable, so
// wherever the cut lands the second restart finishes the commit: every
// stamp holds, the watermark covers the CID, every slot is free.
TEST(TxnRestartTest, RollForwardSurvivesACrashInsideItself) {
  struct Engine {
    std::unique_ptr<storage::Catalog> catalog;
    std::unique_ptr<TxnManager> manager;
  };
  const auto restart = [](alloc::PHeap& heap) {
    alloc::PAllocator allocator(heap.region());
    EXPECT_TRUE(allocator.Recover().ok());
    Engine engine;
    engine.catalog = storage::Catalog::Attach(heap).ValueUnsafe();
    engine.manager = TxnManager::Attach(heap).ValueUnsafe();
    EXPECT_TRUE(engine.manager->RecoverCommitSlots(*engine.catalog).ok());
    EXPECT_TRUE(engine.catalog->RepairAfterCrash().ok());
    return engine;
  };
  const auto schema = *storage::Schema::Make({{"k", DataType::kInt64}});
  uint64_t uncut_runs = 0;
  for (uint64_t cut = 0; cut < 24; ++cut) {
    for (const uint64_t torn : {0, 1, 2, 5, 7}) {
      SCOPED_TRACE("cut " + std::to_string(cut) + " torn mask " +
                   std::to_string(torn));
      nvm::PmemRegionOptions opts;
      opts.tracking = nvm::TrackingMode::kShadow;
      auto heap = alloc::PHeap::Create(4 << 20, opts).ValueUnsafe();
      auto catalog = storage::Catalog::Format(*heap).ValueUnsafe();
      auto manager = TxnManager::Format(*heap).ValueUnsafe();
      storage::Table* table = *catalog->CreateTable("t", schema);

      auto setup = *manager->Begin();
      const RowLocation old_row = *table->AppendRow({Value(int64_t{0})},
                                                    setup.tid());
      setup.RecordInsert(table, old_row);
      ASSERT_TRUE(manager->Commit(setup).ok());

      auto tx = *manager->Begin();
      std::vector<RowLocation> inserted;
      for (int64_t k = 1; k <= 3; ++k) {
        inserted.push_back(*table->AppendRow({Value(k)}, tx.tid()));
        tx.RecordInsert(table, inserted.back());
      }
      ASSERT_TRUE(storage::ClaimForInvalidate(
                      heap->region(), table->mvcc(old_row), tx.tid(),
                      [&](storage::Tid t) { return manager->IsActive(t); })
                      .ok());
      tx.RecordInvalidate(table, old_row);
      std::vector<TouchEntry> touches;
      for (const Write& write : tx.writes()) {
        touches.push_back(
            TouchEntry::Make(table->id(), write.loc, write.invalidate));
      }
      const storage::Cid cid = *manager->commit_table().ClaimCidBlock();
      auto slot = manager->commit_table().AcquireSlot(touches);
      ASSERT_TRUE(slot.ok());
      manager->commit_table().SealSlot(*slot, cid);
      ASSERT_TRUE(heap->region().SimulateCrash().ok());

      heap->region().FreezeShadowAfterFences(cut, torn);
      restart(*heap);
      if (!heap->region().shadow_frozen()) ++uncut_runs;
      ASSERT_TRUE(heap->region().SimulateCrash().ok());
      Engine engine = restart(*heap);

      storage::Table* rtable = *engine.catalog->GetTable("t");
      for (const RowLocation& loc : inserted) {
        EXPECT_EQ(rtable->mvcc(loc)->begin, cid) << "row " << loc.row;
        EXPECT_EQ(rtable->mvcc(loc)->tid, storage::kTidNone);
      }
      EXPECT_EQ(rtable->mvcc(old_row)->end, cid);
      EXPECT_EQ(rtable->mvcc(old_row)->tid, storage::kTidNone);
      EXPECT_GE(engine.manager->watermark(), cid);
      for (const PCommitSlot& s : engine.manager->commit_table().block()->slots) {
        EXPECT_EQ(s.state, PCommitSlot::kFree);
      }
    }
  }
  EXPECT_GT(uncut_runs, 0u) << "no cut lay past the first restart";
}

TEST_F(TxnTest, TidsNeverReusedAcrossRestart) {
  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  const storage::Tid before = tx->tid();
  ASSERT_TRUE(manager_->Commit(*tx).ok());
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());

  auto manager = TxnManager::Attach(*heap_);
  ASSERT_TRUE(manager.ok());
  auto tx2 = (*manager)->Begin();
  ASSERT_TRUE(tx2.ok());
  EXPECT_GT(tx2->tid(), before);
}

TEST_F(TxnTest, CommitHookInvoked) {
  struct Hook : CommitHook {
    int commits = 0, aborts = 0;
    storage::Cid last_cid = 0;
    Status OnCommit(storage::Cid cid, const Transaction&) override {
      ++commits;
      last_cid = cid;
      return Status::OK();
    }
    Status OnAbort(const Transaction&) override {
      ++aborts;
      return Status::OK();
    }
  } hook;
  manager_->set_commit_hook(&hook);

  auto tx = manager_->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(Insert(*tx, 1).ok());
  ASSERT_TRUE(manager_->Commit(*tx).ok());
  EXPECT_EQ(hook.commits, 1);
  EXPECT_EQ(hook.last_cid, tx->commit_cid());

  auto tx2 = manager_->Begin();
  ASSERT_TRUE(tx2.ok());
  ASSERT_TRUE(Insert(*tx2, 2).ok());
  ASSERT_TRUE(manager_->Abort(*tx2).ok());
  EXPECT_EQ(hook.aborts, 1);
}

}  // namespace
}  // namespace hyrise_nv::txn
