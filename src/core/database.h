#ifndef HYRISE_NV_CORE_DATABASE_H_
#define HYRISE_NV_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "index/index_set.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "storage/catalog.h"
#include "storage/merge.h"
#include "txn/txn_manager.h"
#include "wal/checkpoint.h"

namespace hyrise_nv::core {

/// Availability state of an open database. A WAL open under
/// LogRecoveryPolicy::kServeOnDemand with indexes to build starts
/// kServingDegraded: every row is in place, reads and writes work (scans
/// run index-free), but checkpoint/merge/index DDL are refused until the
/// background index build finishes and flips the engine to kReady.
enum class ServingState {
  kReady,
  kServingDegraded,
};

/// The Hyrise-NV storage engine facade: tables, MVCC transactions,
/// secondary indexes, merges, and the durability mode chosen in
/// DatabaseOptions (instant-restart NVM vs. log-based baselines).
///
/// Thread safety: concurrent transactions from multiple threads are
/// supported; DDL (CreateTable/CreateIndex) and Merge require quiescence
/// (no concurrent writers).
class Database {
 public:
  /// Creates a fresh database.
  static Result<std::unique_ptr<Database>> Create(
      const DatabaseOptions& options);

  /// Opens an existing database, running the mode's recovery path.
  /// Inspect `last_recovery_report()` for what recovery did and cost.
  static Result<std::unique_ptr<Database>> Open(
      const DatabaseOptions& options);

  /// Simulates a power failure and recovers: everything not durable under
  /// the mode's rules is lost. Consumes the old handle, returns the
  /// recovered one.
  static Result<std::unique_ptr<Database>> CrashAndRecover(
      std::unique_ptr<Database> db);

  /// Offline deep verification of the NVM image named by `options`:
  /// maps it read-only and walks every persistent structure. Never
  /// mutates the image and never runs recovery — safe on corrupt input.
  static Result<recovery::VerifyReport> VerifyImage(
      const DatabaseOptions& options);

  /// Stops and joins a background index build still running.
  ~Database();

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(Database);

  // --- DDL ---------------------------------------------------------------

  Result<storage::Table*> CreateTable(const std::string& name,
                                      const storage::Schema& schema);
  /// Fails with Corruption for tables quarantined by a salvage open.
  Result<storage::Table*> GetTable(const std::string& name) const;
  Status CreateIndex(const std::string& table_name, size_t column,
                     storage::PIndexKind kind = storage::kIndexHash);

  /// Ordered (skip-list) index: equality and range lookups.
  Status CreateOrderedIndex(const std::string& table_name, size_t column) {
    return CreateIndex(table_name, column, storage::kIndexSkipList);
  }

  // --- Transactions -------------------------------------------------------

  /// Fails when the database is read-only: beginning a transaction
  /// claims TID blocks, which mutates the persistent image.
  Result<txn::Transaction> Begin() {
    HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
    return txn_manager_->Begin();
  }
  Status Commit(txn::Transaction& tx);
  Status Abort(txn::Transaction& tx) { return txn_manager_->Abort(tx); }

  // --- Two-phase commit (DESIGN.md §16) ------------------------------------

  /// Phase one: durably prepares `tx` under the coordinator-issued global
  /// transaction id. On success the transaction is detached from its
  /// session (kPrepared); only Decide moves it further. On failure the
  /// transaction stays active and the caller should abort it.
  Status Prepare(txn::Transaction& tx, uint64_t gtid);

  /// Phase two: commits or aborts the prepared transaction `gtid`.
  /// Idempotent — unknown gtids answer OK.
  Status Decide(uint64_t gtid, bool commit);

  /// Gtids of every prepared-but-undecided transaction (recovery
  /// handshake answer).
  std::vector<uint64_t> InDoubtGtids() const {
    return txn_manager_->InDoubtGtids();
  }

  // --- DML (within a transaction) ------------------------------------------

  /// Inserts a row; returns its location.
  Result<storage::RowLocation> Insert(txn::Transaction& tx,
                                      storage::Table* table,
                                      const std::vector<storage::Value>& row);

  /// Deletes a row that is visible to `tx`.
  Status Delete(txn::Transaction& tx, storage::Table* table,
                storage::RowLocation loc);

  /// Update = delete old version + insert new one (insert-only MVCC).
  Result<storage::RowLocation> Update(
      txn::Transaction& tx, storage::Table* table, storage::RowLocation loc,
      const std::vector<storage::Value>& row);

  /// Convenience: runs a single-operation transaction.
  Status InsertAutoCommit(storage::Table* table,
                          const std::vector<storage::Value>& row);

  // --- Queries (see also core/query.h) -------------------------------------

  /// Rows of `table` where column == value, visible to (snapshot, tid).
  /// Uses indexes when present, except while degraded: the background
  /// build may be writing them. Pass an active transaction's snapshot/tid
  /// or ReadSnapshot()/kTidNone for an ad-hoc read.
  Result<std::vector<storage::RowLocation>> ScanEqual(
      storage::Table* table, size_t column, const storage::Value& value,
      storage::Cid snapshot, storage::Tid tid) const;

  /// Rows of `table` where lo <= column <= hi, visible to (snapshot,
  /// tid). Uses an ordered index when one exists; index-free while
  /// degraded, like ScanEqual.
  Result<std::vector<storage::RowLocation>> ScanRange(
      storage::Table* table, size_t column, const storage::Value& lo,
      const storage::Value& hi, storage::Cid snapshot,
      storage::Tid tid) const;

  storage::Cid ReadSnapshot() const { return txn_manager_->ReadSnapshot(); }

  // --- Maintenance ---------------------------------------------------------

  /// Stop-the-world delta→main merge (requires no active transactions).
  /// In WAL modes a checkpoint follows immediately, because logged row
  /// positions reference the pre-merge layout.
  Result<storage::MergeStats> Merge(const std::string& table_name);

  /// Writes a checkpoint now (WAL modes; no-op for kNvm/kNone).
  Status Checkpoint();

  /// Clean shutdown: marks the region clean / syncs files.
  Status Close();

  // --- Introspection -------------------------------------------------------

  const DatabaseOptions& options() const { return options_; }
  const RecoveryReport& last_recovery_report() const { return recovery_; }

  /// kServingDegraded while an on-demand open's background index build
  /// is in flight; kReady otherwise (including every non-WAL mode and
  /// eager replay). The acquire load pairs with the build's release
  /// store, so a caller that sees kReady also sees the built indexes.
  ServingState serving_state() const {
    return ready_.load(std::memory_order_acquire)
               ? ServingState::kReady
               : ServingState::kServingDegraded;
  }

  /// Blocks until the background index build finishes and the engine is
  /// fully recovered (immediately OK when not degraded). Fails with
  /// Status::Aborted after `timeout_ms`.
  Status WaitUntilRecovered(uint64_t timeout_ms);

  /// Point-in-time snapshot of every engine metric. Syncs the passive
  /// sources (NVM region stats, WAL writer totals, allocator usage) into
  /// the registry first, so the snapshot is complete even for metrics no
  /// hot path mirrors live.
  obs::MetricsSnapshot MetricsSnapshot();

  /// Phase-annotated timeline from the background recorder
  /// (`{"samples":[]}` shape when options.enable_timeline is off).
  std::string TimelineJson() const;
  /// CSV form of the same timeline (header row + one row per sample).
  std::string TimelineCsv() const;
  /// The timeline recorder, or nullptr when disabled.
  obs::TimelineRecorder* timeline() { return timeline_.get(); }

  /// Mirrors passively-maintained totals (NVM region stats, WAL writer
  /// fields, allocator usage, process RSS, serving state) into the
  /// metrics registry. MetricsSnapshot() and each timeline tick call
  /// this; call it directly before reading those gauges from the
  /// registry without taking a snapshot.
  void SyncPassiveMetrics();

  /// Span tree of the most recent trace-sampled commit (empty before the
  /// first sample or when options.txn_sample_every is 0).
  obs::SpanNode LastSampledTxnTrace() const {
    return txn_manager_->LastSampledTrace();
  }

  /// True when the database refuses writes — either a salvage open or a
  /// WAL device that failed past its retry budget mid-run.
  bool read_only() const { return read_only_; }
  const std::string& read_only_reason() const { return read_only_reason_; }
  storage::Catalog& catalog() { return *catalog_; }
  txn::TxnManager& txn_manager() { return *txn_manager_; }
  alloc::PHeap& heap() { return *heap_; }
  wal::LogManager* log_manager() { return log_manager_.get(); }
  index::IndexSet* indexes(storage::Table* table) const;
  nvm::NvmStats& nvm_stats() { return heap_->region().stats(); }

 private:
  explicit Database(DatabaseOptions options)
      : options_(std::move(options)) {}

  static Result<std::unique_ptr<Database>> CreateFresh(
      const DatabaseOptions& options, bool open_existing_log);
  /// NVM image failed verification but a WAL exists: rebuild the image
  /// from checkpoint + log into a scratch file, atomically swap it in,
  /// retire the log, and re-open.
  static Result<std::unique_ptr<Database>> OpenViaLogFallback(
      const DatabaseOptions& options);
  /// Log-based recovery into the freshly formatted heap: checkpoint load,
  /// then the log pass, which leaves every row in place. Eager
  /// (`on_demand` false) builds the indexes before returning; on-demand
  /// with indexes to build leaves the engine degraded for
  /// BuildIndexesInBackground, which the caller starts once the database
  /// is live. Either way, in-doubt 2PC transactions are adopted last.
  /// Spans go into `tracer` under "log_recovery".
  Status RecoverFromWal(obs::SpanTracer& tracer, bool on_demand);
  /// Takes over an NVM instant restart's heap, catalog and txn manager
  /// (in-flight commits rolled forward, in-doubt 2PC transactions
  /// adopted), fills the recovery report, grafts the restart trace under
  /// `tracer`, attaches the index sets and starts the engine. Shared by
  /// Open and CrashAndRecover; Open sets the salvage flags first.
  Status BindRestart(recovery::NvmRestartResult restart,
                     obs::SpanTracer& tracer);
  Status AttachAllIndexSets();
  nvm::PmemRegionOptions MakeRegionOptions() const;
  Status EnsureWritable() const;
  /// Refuses maintenance/DDL (`what`) while serving degraded: deferred
  /// indexes are still being built, so these wait for the build.
  Status EnsureNotDegraded(const char* what) const;
  /// Builds every index the checkpoint and log recorded, once the log
  /// pass has appended every row: inline in an eager open, or on the
  /// background thread of an on-demand one. Stops between indexes with
  /// Aborted once StopIndexBuild was called.
  Status BuildDeferredIndexes();
  /// The background thread of an on-demand open: waits
  /// `options_.drain_pause_us`, builds the deferred indexes and flips
  /// the engine ready with a release store. A failed or stopped build
  /// leaves it degraded, so no half-built index ever serves.
  void BuildIndexesInBackground();
  /// Stops the background build between indexes and joins it (Close and
  /// the destructor). Safe to call repeatedly.
  void StopIndexBuild();
  /// Flips the database read-only when a WAL write error exhausted the
  /// writer's retry budget (degraded mode).
  void NoteLogFailure(const Status& status);
  /// Applies the observability options once the engine is live: txn
  /// sampling, timeline recorder, crash handler, and the kOpen recorder
  /// event. Called at the end of Create/Open/CrashAndRecover.
  void StartObservability(bool recovered);

  DatabaseOptions options_;
  RecoveryReport recovery_;
  bool read_only_ = false;
  std::string read_only_reason_;
  std::vector<std::string> quarantined_;
  std::unique_ptr<alloc::PHeap> heap_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<txn::TxnManager> txn_manager_;
  std::unique_ptr<wal::LogManager> log_manager_;
  std::unordered_map<storage::Table*, std::unique_ptr<index::IndexSet>>
      index_sets_;
  /// Indexes from the checkpoint and log, built after the log pass.
  std::vector<wal::CheckpointInfo::IndexedColumn> deferred_indexes_;
  /// False while an on-demand open's background index build runs.
  std::atomic<bool> ready_{true};
  std::atomic<bool> stop_index_build_{false};
  /// Joined in the destructor's body, so it ends before any structure it
  /// builds into is destroyed.
  std::thread index_build_thread_;
  // Last member on purpose: destroyed first, so the timeline thread is
  // stopped before the heap (and its flight recorder) go away.
  std::unique_ptr<obs::TimelineRecorder> timeline_;
};

}  // namespace hyrise_nv::core

#endif  // HYRISE_NV_CORE_DATABASE_H_
