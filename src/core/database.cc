#include "core/database.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/logging.h"
#include "core/query.h"
#include "nvm/nvm_env.h"
#include "obs/blackbox.h"
#include "obs/crash_handler.h"
#include "obs/trace.h"
#include "recovery/log_index.h"
#include "recovery/log_recovery.h"
#include "recovery/verify.h"
#include "storage/mvcc.h"

namespace hyrise_nv::core {

namespace {

void NoteOpened() {
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& open_count =
      obs::MetricsRegistry::Instance().GetCounter("db.open.count");
  open_count.Inc();
#endif
}

// Adopts every in-doubt 2PC transaction the log pass surfaced: builds a
// kPrepared context carrying the rebuilt write set and seals a prepared
// commit slot for it (no OnPrepare hook — the log already holds the
// prepare record), so the transaction survives further restarts and its
// row claims stay protected from claim-stealing until a decision lands.
Status AdoptInDoubt(const recovery::LogRecoveryReport& report,
                    storage::Catalog& catalog,
                    txn::TxnManager& txn_manager) {
  for (const auto& in_doubt : report.in_doubt) {
    auto ctx = std::make_shared<txn::TxnContext>();
    ctx->tid = in_doubt.tid;
    ctx->gtid = in_doubt.gtid;
    ctx->state = txn::TxnState::kPrepared;
    ctx->writes.reserve(in_doubt.writes.size());
    for (const auto& write : in_doubt.writes) {
      auto table = catalog.GetTableById(write.table_id);
      if (!table.ok()) return table.status();
      ctx->writes.push_back(txn::Write{*table, write.loc, write.invalidate});
    }
    HYRISE_NV_LOG(kInfo) << "adopting in-doubt transaction gtid="
                         << in_doubt.gtid << " tid=" << in_doubt.tid
                         << " (" << in_doubt.writes.size()
                         << " writes) from the log";
    HYRISE_NV_RETURN_NOT_OK(txn_manager.AdoptPrepared(std::move(ctx)));
  }
  return Status::OK();
}

}  // namespace

nvm::PmemRegionOptions Database::MakeRegionOptions() const {
  nvm::PmemRegionOptions region_options;
  if (options_.mode == DurabilityMode::kNvm) {
    region_options.latency = options_.nvm_latency;
    region_options.tracking = options_.tracking;
    if (!options_.data_dir.empty()) {
      region_options.file_path = options_.NvmImagePath();
    }
  } else {
    // WAL / no-durability engines keep table structures in DRAM: an
    // anonymous region with zero persist latency and no shadow. The
    // persist calls still execute (same code path) but cost only the
    // accounting, which models DRAM honestly.
    region_options.latency = nvm::NvmLatencyModel::DramSpeed();
    region_options.tracking = nvm::TrackingMode::kNone;
  }
  return region_options;
}

Result<std::unique_ptr<Database>> Database::CreateFresh(
    const DatabaseOptions& options, bool open_existing_log) {
  auto db = std::unique_ptr<Database>(new Database(options));
  auto heap_result =
      alloc::PHeap::Create(options.region_size, db->MakeRegionOptions());
  if (!heap_result.ok()) return heap_result.status();
  db->heap_ = std::move(heap_result).ValueUnsafe();

  auto catalog_result = storage::Catalog::Format(*db->heap_);
  if (!catalog_result.ok()) return catalog_result.status();
  db->catalog_ = std::move(catalog_result).ValueUnsafe();

  auto txn_result = txn::TxnManager::Format(*db->heap_);
  if (!txn_result.ok()) return txn_result.status();
  db->txn_manager_ = std::move(txn_result).ValueUnsafe();

  if (options.uses_wal()) {
    auto log_result =
        open_existing_log
            ? wal::LogManager::OpenExisting(options.MakeLogOptions())
            : wal::LogManager::Create(options.MakeLogOptions());
    if (!log_result.ok()) return log_result.status();
    db->log_manager_ = std::move(log_result).ValueUnsafe();
    db->txn_manager_->set_commit_hook(db->log_manager_.get());
  }
  return db;
}

Result<std::unique_ptr<Database>> Database::Create(
    const DatabaseOptions& options) {
  if (options.uses_wal() && options.data_dir.empty()) {
    return Status::InvalidArgument("WAL modes need a data_dir");
  }
  auto db_result = CreateFresh(options, /*open_existing_log=*/false);
  if (!db_result.ok()) return db_result;
  (*db_result)->recovery_.mode = options.mode;
  (*db_result)->recovery_.recovered = false;
  (*db_result)->StartObservability(/*recovered=*/false);
  return db_result;
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  obs::SpanTracer tracer("open");
  if (options.mode == DurabilityMode::kNvm) {
    if (options.data_dir.empty()) {
      return Status::InvalidArgument(
          "opening an NVM database needs a data_dir");
    }
    auto db = std::unique_ptr<Database>(new Database(options));
    recovery::NvmRestartOptions restart_options;
    restart_options.region = db->MakeRegionOptions();
    restart_options.level = options.open_mode == OpenMode::kNormal
                                ? recovery::ValidationLevel::kFastHeaderOnly
                                : recovery::ValidationLevel::kDeep;
    restart_options.salvage =
        options.open_mode == OpenMode::kSalvageReadOnly;
    auto restart_result = recovery::InstantRestart(restart_options);
    if (!restart_result.ok()) {
      // A corrupt image is still recoverable when a WAL covering the
      // same data sits next to it: rebuild rather than fail.
      if (restart_result.status().IsCorruption() &&
          nvm::FileExists(options.LogPath())) {
        HYRISE_NV_LOG(kWarn)
            << "NVM image is corrupt ("
            << restart_result.status().ToString()
            << "); falling back to log-based recovery";
        return OpenViaLogFallback(options);
      }
      return restart_result.status();
    }
    if (restart_result->salvage_read_only) {
      db->read_only_ = true;
      db->read_only_reason_ =
          "opened in salvage mode; deep verification found corruption";
      db->quarantined_ = restart_result->quarantined_tables;
      db->recovery_.read_only = true;
      db->recovery_.quarantined_tables = db->quarantined_;
    }
    HYRISE_NV_RETURN_NOT_OK(
        db->BindRestart(std::move(restart_result).ValueUnsafe(), tracer));
    return db;
  }

  if (options.uses_wal()) {
    auto db_result = CreateFresh(options, /*open_existing_log=*/true);
    if (!db_result.ok()) return db_result;
    auto& db = *db_result;
    HYRISE_NV_RETURN_NOT_OK(db->RecoverFromWal(
        tracer,
        options.log_recovery == LogRecoveryPolicy::kServeOnDemand));
    db->log_manager_->ResetDictWatermarks(*db->catalog_);
    db->recovery_.trace = tracer.Finish();
    db->recovery_.total_seconds = db->recovery_.trace.seconds;
    NoteOpened();
    db->StartObservability(/*recovered=*/true);
    if (db->serving_state() == ServingState::kServingDegraded) {
      db->index_build_thread_ =
          std::thread(&Database::BuildIndexesInBackground, db.get());
    }
    return db_result;
  }

  return Status::InvalidArgument("mode has nothing to open");
}

Result<std::unique_ptr<Database>> Database::OpenViaLogFallback(
    const DatabaseOptions& options) {
  // Rebuild into a scratch file; the corrupt image stays untouched until
  // the rebuilt one is complete and clean. The rename is the commit
  // point — a crash mid-rebuild leaves the old image (and the log) as
  // they were, so the fallback simply runs again.
  const std::string rebuild_path = options.NvmImagePath() + ".rebuild";
  nvm::RemoveFileIfExists(rebuild_path);
  obs::SpanTracer tracer("open");
  recovery::LogRecoveryReport log_report;
  tracer.Begin("rebuild_image");
  {
    nvm::PmemRegionOptions region_options;
    region_options.latency = options.nvm_latency;
    region_options.tracking = nvm::TrackingMode::kNone;
    region_options.file_path = rebuild_path;
    auto scratch = std::unique_ptr<Database>(new Database(options));
    auto heap_result =
        alloc::PHeap::Create(options.region_size, region_options);
    if (!heap_result.ok()) return heap_result.status();
    scratch->heap_ = std::move(heap_result).ValueUnsafe();
    auto catalog_result = storage::Catalog::Format(*scratch->heap_);
    if (!catalog_result.ok()) return catalog_result.status();
    scratch->catalog_ = std::move(catalog_result).ValueUnsafe();
    auto txn_result = txn::TxnManager::Format(*scratch->heap_);
    if (!txn_result.ok()) return txn_result.status();
    scratch->txn_manager_ = std::move(txn_result).ValueUnsafe();
    // Eager recovery into the scratch image, in-doubt 2PC transactions
    // included: the log is retired below, so the image alone must carry
    // their prepared slots for the re-open to adopt.
    HYRISE_NV_RETURN_NOT_OK(
        scratch->RecoverFromWal(tracer, /*on_demand=*/false));
    log_report = scratch->recovery_.log;
    recovery::SealForCleanShutdown(*scratch->heap_);
    HYRISE_NV_RETURN_NOT_OK(scratch->heap_->CloseClean());
  }
  tracer.End();
  tracer.Begin("install_image");
  std::error_code ec;
  std::filesystem::rename(rebuild_path, options.NvmImagePath(), ec);
  if (ec) {
    return Status::IOError("installing rebuilt NVM image: " + ec.message());
  }
  // Retire the log + checkpoint: their history now lives in the image,
  // and replaying it again on top of newer state would corrupt data.
  // (Also breaks the fallback recursion: no log file, no second try.)
  std::filesystem::rename(options.LogPath(),
                          options.LogPath() + ".applied", ec);
  if (ec) {
    return Status::IOError("retiring applied log: " + ec.message());
  }
  if (nvm::FileExists(options.CheckpointPath())) {
    std::filesystem::rename(options.CheckpointPath(),
                            options.CheckpointPath() + ".applied", ec);
    if (ec) {
      return Status::IOError("retiring applied checkpoint: " + ec.message());
    }
  }
  tracer.End();
  auto db_result = Open(options);
  if (!db_result.ok()) return db_result;
  // The re-open produced its own "open" trace; graft it in as "reopen"
  // under the fallback's trace so the final tree covers everything.
  obs::SpanNode reopen = std::move((*db_result)->recovery_.trace);
  reopen.name = "reopen";
  tracer.Attach(std::move(reopen));
  (*db_result)->recovery_.fell_back_to_log = true;
  (*db_result)->recovery_.log = log_report;
  (*db_result)->recovery_.trace = tracer.Finish();
  (*db_result)->recovery_.total_seconds =
      (*db_result)->recovery_.trace.seconds;
  return db_result;
}

Status Database::RecoverFromWal(obs::SpanTracer& tracer, bool on_demand) {
  const wal::LogManagerOptions log_options = options_.MakeLogOptions();
  tracer.Begin("log_recovery");
  tracer.Begin("checkpoint_load");
  auto index_result = recovery::LoadLogCheckpoint(*heap_, *catalog_,
                                                  *txn_manager_, log_options);
  if (!index_result.ok()) return index_result.status();
  recovery::LogIndex& index = *index_result;
  recovery::LogRecoveryReport& report = index.report;
  report.checkpoint_load_seconds = tracer.End();
  // The same pass for both policies; it appends every row with its
  // values. Only where the index builds run differs.
  tracer.Begin(on_demand ? "analysis" : "replay");
  HYRISE_NV_RETURN_NOT_OK(recovery::AnalyzeLog(
      *heap_, *catalog_, *txn_manager_, log_options, tracer, index));
  if (on_demand) {
    report.on_demand = true;
    report.analysis_seconds = tracer.End();
  } else {
    report.replay_seconds = tracer.End();
  }
  tracer.Begin("attach_index_sets");
  HYRISE_NV_RETURN_NOT_OK(AttachAllIndexSets());
  tracer.End();
  deferred_indexes_ = std::move(index.indexed_columns);
  if (on_demand && !deferred_indexes_.empty()) {
    // Serve now, degraded: scans run index-free until the background
    // build (started once the database is live) flips the engine ready.
    ready_.store(false, std::memory_order_relaxed);
    if (obs::BlackboxWriter* bb = heap_->blackbox()) {
      bb->Record(obs::BlackboxEventType::kDegradedOpen,
                 deferred_indexes_.size(), report.replayed_rows);
    }
  } else {
    tracer.Begin("index_rebuild");
    HYRISE_NV_RETURN_NOT_OK(BuildDeferredIndexes());
    report.index_rebuild_seconds = tracer.End();
  }
  recovery_.mode = options_.mode;
  recovery_.recovered = true;
  recovery_.log = report;
  tracer.End();
  return AdoptInDoubt(recovery_.log, *catalog_, *txn_manager_);
}

Result<recovery::VerifyReport> Database::VerifyImage(
    const DatabaseOptions& options) {
  nvm::PmemRegionOptions region_options;
  region_options.tracking = nvm::TrackingMode::kNone;
  region_options.file_path = options.NvmImagePath();
  auto region_result = nvm::PmemRegion::Open(region_options);
  if (!region_result.ok()) return region_result.status();
  return recovery::DeepVerify(**region_result);
}

Result<std::unique_ptr<Database>> Database::CrashAndRecover(
    std::unique_ptr<Database> db) {
  const DatabaseOptions options = db->options_;
  // Stop the timeline before the simulated power failure: its thread
  // flushes/decodes the flight recorder via the process-wide Current()
  // pointer, which re-attaching the heap below is about to swap out.
  db->timeline_.reset();

  if (options.mode == DurabilityMode::kNvm) {
    HYRISE_NV_RETURN_NOT_OK(db->heap_->region().SimulateCrash());
    // The timer starts after the simulated power failure: restoring the
    // shadow image is the *crash*, not the recovery.
    obs::SpanTracer tracer("open");
    auto recovered = std::unique_ptr<Database>(new Database(options));
    auto restart_result =
        recovery::InstantRestartFromHeap(std::move(db->heap_));
    if (!restart_result.ok()) return restart_result.status();
    db.reset();
    HYRISE_NV_RETURN_NOT_OK(recovered->BindRestart(
        std::move(restart_result).ValueUnsafe(), tracer));
    return recovered;
  }

  if (options.uses_wal()) {
    // Power failure: the unsynced log tail is gone, DRAM is gone.
    HYRISE_NV_RETURN_NOT_OK(db->log_manager_->device().SimulateCrash());
    db.reset();
    return Open(options);
  }

  return Status::NotSupported("kNone mode loses everything in a crash");
}

Status Database::BindRestart(recovery::NvmRestartResult restart,
                             obs::SpanTracer& tracer) {
  heap_ = std::move(restart.heap);
  catalog_ = std::move(restart.catalog);
  txn_manager_ = std::move(restart.txn_manager);
  recovery_.mode = options_.mode;
  recovery_.recovered = true;
  recovery_.nvm = std::move(restart.report);
  tracer.Attach(recovery_.nvm.trace);
  tracer.Begin("attach_index_sets");
  HYRISE_NV_RETURN_NOT_OK(AttachAllIndexSets());
  tracer.End();
  recovery_.trace = tracer.Finish();
  recovery_.total_seconds = recovery_.trace.seconds;
  NoteOpened();
  StartObservability(/*recovered=*/true);
  return Status::OK();
}

Status Database::AttachAllIndexSets() {
  index_sets_.clear();
  for (const auto& table : catalog_->tables()) {
    auto set = std::make_unique<index::IndexSet>(table.get());
    HYRISE_NV_RETURN_NOT_OK(set->Attach());
    // A salvage open must leave the image untouched.
    if (!read_only_) HYRISE_NV_RETURN_NOT_OK(set->Repair());
    index_sets_[table.get()] = std::move(set);
  }
  return Status::OK();
}

index::IndexSet* Database::indexes(storage::Table* table) const {
  auto it = index_sets_.find(table);
  return it == index_sets_.end() ? nullptr : it->second.get();
}

Status Database::EnsureWritable() const {
  if (!read_only_) return Status::OK();
  return Status::IOError("database is read-only: " + read_only_reason_);
}

Status Database::EnsureNotDegraded(const char* what) const {
  if (serving_state() == ServingState::kReady) return Status::OK();
  return Status::Aborted(std::string(what) +
                         " unavailable while serving degraded: background "
                         "index build in progress");
}

Status Database::BuildDeferredIndexes() {
  for (const auto& indexed : deferred_indexes_) {
    if (stop_index_build_.load(std::memory_order_acquire)) {
      return Status::Aborted("index build stopped");
    }
    auto table_result = catalog_->GetTable(indexed.table);
    if (!table_result.ok()) return table_result.status();
    storage::Table* table = *table_result;
    index::IndexSet* set = indexes(table);
    HYRISE_NV_CHECK(set != nullptr, "table without index set");
    // Same lock as Insert: rows appended while degraded either land
    // before the build (the build sees them) or after (OnInsert sees the
    // bound index).
    std::lock_guard<std::mutex> write_guard(table->write_mutex());
    if (set->HasIndex(indexed.column)) continue;
    HYRISE_NV_RETURN_NOT_OK(set->CreateIndexOfKind(
        indexed.column, static_cast<storage::PIndexKind>(indexed.kind)));
    if (table->main_row_count() > 0) {
      HYRISE_NV_RETURN_NOT_OK(
          storage::BuildMainGroupKey(*table, indexed.column));
      HYRISE_NV_RETURN_NOT_OK(set->Attach());
    }
  }
  deferred_indexes_.clear();
  return Status::OK();
}

void Database::BuildIndexesInBackground() {
  const uint64_t start_ticks = obs::FastClock::NowTicks();
  // The one pause before the build: it holds the degraded window open
  // for tests and smoke runs.
  const auto resume = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(options_.drain_pause_us);
  while (!stop_index_build_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < resume) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t built = deferred_indexes_.size();
  Status status = BuildDeferredIndexes();
  if (!status.ok()) {
    // Stay degraded: scans keep answering index-free.
    if (!stop_index_build_.load(std::memory_order_acquire)) {
      HYRISE_NV_LOG(kError) << "background index build failed: "
                            << status.ToString();
    }
    return;
  }
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kRecoveryDrainDone, built,
               obs::FastClock::TicksToNanos(static_cast<int64_t>(
                   obs::FastClock::NowTicks() - start_ticks)));
  }
  ready_.store(true, std::memory_order_release);
}

void Database::StopIndexBuild() {
  stop_index_build_.store(true, std::memory_order_release);
  if (index_build_thread_.joinable()) index_build_thread_.join();
}

Database::~Database() { StopIndexBuild(); }

Status Database::WaitUntilRecovered(uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (serving_state() == ServingState::kServingDegraded) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Aborted(
          "timed out waiting for the background index build");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

void Database::NoteLogFailure(const Status& status) {
  if (status.ok() || status.code() != StatusCode::kIOError) return;
  if (log_manager_ == nullptr || !log_manager_->writer().degraded()) return;
  if (read_only_) return;
  read_only_ = true;
  read_only_reason_ =
      "WAL device failed past its retry budget: " + status.message();
  HYRISE_NV_LOG(kError) << "database is now read-only: "
                        << read_only_reason_;
}

Result<storage::Table*> Database::GetTable(const std::string& name) const {
  for (const auto& quarantined : quarantined_) {
    if (quarantined == name) {
      return Status::Corruption("table '" + name +
                                "' is quarantined: it failed deep "
                                "verification at open");
    }
  }
  return catalog_->GetTable(name);
}

Status Database::Commit(txn::Transaction& tx) {
  Status status = txn_manager_->Commit(tx);
  NoteLogFailure(status);
  return status;
}

Status Database::Prepare(txn::Transaction& tx, uint64_t gtid) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  Status status = txn_manager_->Prepare(tx, gtid);
  NoteLogFailure(status);
  return status;
}

Status Database::Decide(uint64_t gtid, bool commit) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  Status status = txn_manager_->Decide(gtid, commit);
  NoteLogFailure(status);
  return status;
}

Result<storage::Table*> Database::CreateTable(const std::string& name,
                                              const storage::Schema& schema) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  auto table_result = catalog_->CreateTable(name, schema);
  if (!table_result.ok()) return table_result;
  auto set = std::make_unique<index::IndexSet>(*table_result);
  HYRISE_NV_RETURN_NOT_OK(set->Attach());
  index_sets_[*table_result] = std::move(set);
  if (log_manager_ != nullptr) {
    Status log_status = log_manager_->LogCreateTable(**table_result);
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return table_result;
}

Status Database::CreateIndex(const std::string& table_name, size_t column,
                             storage::PIndexKind kind) {
  // The build would race the background build of the deferred indexes.
  HYRISE_NV_RETURN_NOT_OK(EnsureNotDegraded("create-index"));
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  auto table_result = catalog_->GetTable(table_name);
  if (!table_result.ok()) return table_result.status();
  index::IndexSet* set = indexes(*table_result);
  HYRISE_NV_CHECK(set != nullptr, "table without index set");
  // The build reads every delta row: no insert may land beside it.
  std::lock_guard<std::mutex> write_guard((*table_result)->write_mutex());
  HYRISE_NV_RETURN_NOT_OK(set->CreateIndexOfKind(column, kind));
  // Build the main side too if a main partition already exists.
  if ((*table_result)->main_row_count() > 0) {
    HYRISE_NV_RETURN_NOT_OK(
        storage::BuildMainGroupKey(**table_result, column));
    HYRISE_NV_RETURN_NOT_OK(set->Attach());
  }
  if (log_manager_ != nullptr) {
    Status log_status = log_manager_->LogCreateIndex(
        (*table_result)->id(), static_cast<uint32_t>(column),
        static_cast<uint32_t>(kind));
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return Status::OK();
}

Result<storage::RowLocation> Database::Insert(
    txn::Transaction& tx, storage::Table* table,
    const std::vector<storage::Value>& row) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (!tx.active()) {
    return Status::InvalidArgument("transaction not active");
  }
  // One writer per table at a time: the delta append, index insert, and
  // dict-encoded WAL logging all touch single-writer structures. Writers
  // on different tables proceed in parallel.
  std::lock_guard<std::mutex> write_guard(table->write_mutex());
  auto loc_result = table->AppendRow(row, tx.tid());
  if (!loc_result.ok()) return loc_result;
  tx.RecordInsert(table, *loc_result);
  index::IndexSet* set = indexes(table);
  if (set != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(set->OnInsert(row, loc_result->row));
  }
  if (log_manager_ != nullptr) {
    Status log_status =
        log_manager_->LogInsert(*table, tx.tid(), row, *loc_result);
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return loc_result;
}

Status Database::Delete(txn::Transaction& tx, storage::Table* table,
                        storage::RowLocation loc) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (!tx.active()) {
    return Status::InvalidArgument("transaction not active");
  }
  storage::MvccEntry* entry = table->mvcc(loc);
  if (!storage::IsVisible(*entry, tx.snapshot(), tx.tid())) {
    return Status::NotFound("row not visible to this transaction");
  }
  auto active = [this](storage::Tid t) { return txn_manager_->IsActive(t); };
  HYRISE_NV_RETURN_NOT_OK(storage::ClaimForInvalidate(
      heap_->region(), entry, tx.tid(), active));
  if (entry->begin == storage::kCidInfinity) {
    // Deleting our own uncommitted insert.
    storage::MarkSelfDeleted(heap_->region(), entry);
  }
  tx.RecordInvalidate(table, loc);
  if (log_manager_ != nullptr) {
    Status log_status = log_manager_->LogDelete(*table, tx.tid(), loc);
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return Status::OK();
}

Result<storage::RowLocation> Database::Update(
    txn::Transaction& tx, storage::Table* table, storage::RowLocation loc,
    const std::vector<storage::Value>& row) {
  HYRISE_NV_RETURN_NOT_OK(Delete(tx, table, loc));
  return Insert(tx, table, row);
}

Status Database::InsertAutoCommit(storage::Table* table,
                                  const std::vector<storage::Value>& row) {
  auto tx_result = Begin();
  if (!tx_result.ok()) return tx_result.status();
  auto insert_result = Insert(*tx_result, table, row);
  if (!insert_result.ok()) {
    (void)Abort(*tx_result);
    return insert_result.status();
  }
  return Commit(*tx_result);
}

Result<std::vector<storage::RowLocation>> Database::ScanEqual(
    storage::Table* table, size_t column, const storage::Value& value,
    storage::Cid snapshot, storage::Tid tid) const {
  // While degraded the scan runs index-free: consulting the set would
  // race the background build. Every row already holds its value.
  std::vector<storage::RowLocation> rows;
  index::IndexSet* set =
      serving_state() == ServingState::kReady ? indexes(table) : nullptr;
  if (set != nullptr && set->HasIndex(column)) {
    HYRISE_NV_RETURN_NOT_OK(set->ForEachEqualCandidate(
        column, value, [&](storage::RowLocation loc) {
          if (storage::IsVisible(*table->mvcc(loc), snapshot, tid)) {
            rows.push_back(loc);
          }
        }));
    return rows;
  }

  // Index-free scan: resolve the value to per-partition ids once, then
  // compare encoded ids only.
  const auto& main_col = table->main().column(column);
  const storage::ValueId main_id = main_col.dictionary().Find(value);
  if (main_id != storage::kInvalidValueId) {
    const uint64_t main_rows = table->main_row_count();
    for (uint64_t r = 0; r < main_rows; ++r) {
      if (main_col.AttrAt(r) == main_id &&
          storage::IsVisible(*table->main().mvcc(r), snapshot, tid)) {
        rows.push_back({true, r});
      }
    }
  }
  const auto& delta_col = table->delta().column(column);
  const storage::ValueId delta_id = delta_col.dictionary().Lookup(value);
  if (delta_id != storage::kInvalidValueId) {
    const uint64_t delta_rows = table->delta_row_count();
    for (uint64_t r = 0; r < delta_rows; ++r) {
      if (delta_col.AttrAt(r) == delta_id &&
          storage::IsVisible(*table->delta().mvcc(r), snapshot, tid)) {
        rows.push_back({false, r});
      }
    }
  }
  return rows;
}

Result<std::vector<storage::RowLocation>> Database::ScanRange(
    storage::Table* table, size_t column, const storage::Value& lo,
    const storage::Value& hi, storage::Cid snapshot,
    storage::Tid tid) const {
  // Index-free while degraded, for the same reason as ScanEqual.
  return core::ScanRange(
      table, column, lo, hi, snapshot, tid,
      serving_state() == ServingState::kReady ? indexes(table) : nullptr);
}

Result<storage::MergeStats> Database::Merge(const std::string& table_name) {
  HYRISE_NV_RETURN_NOT_OK(EnsureNotDegraded("merge"));
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (txn_manager_->PreparedCount() > 0) {
    // A merge would relocate rows the prepared write sets point at, and
    // the checkpoint below would move the replay base past the prepare
    // records. Retry once the coordinator has decided.
    return Status::Aborted(
        "merge refused: prepared 2PC transactions are in doubt");
  }
  auto table_result = catalog_->GetTable(table_name);
  if (!table_result.ok()) return table_result.status();
  obs::BlackboxWriter* bb = heap_->blackbox();
  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kMergeStart,
               (*table_result)->id(), (*table_result)->delta_row_count());
  }
  const uint64_t merge_start_ticks = obs::FastClock::NowTicks();
  auto stats_result =
      storage::MergeTable(**table_result, txn_manager_->watermark());
  if (!stats_result.ok()) return stats_result;
  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kMergeEnd, (*table_result)->id(),
               stats_result->rows_after, stats_result->dropped_rows,
               obs::FastClock::TicksToNanos(static_cast<int64_t>(
                   obs::FastClock::NowTicks() - merge_start_ticks)));
  }
  // Rebind index handles to the new generation.
  index::IndexSet* set = indexes(*table_result);
  if (set != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(set->Attach());
  }
  // WAL modes must checkpoint now: logged row positions reference the
  // pre-merge layout, so the replay base has to move past the merge.
  if (log_manager_ != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(log_manager_->WriteCheckpointNow(
        *catalog_, txn_manager_->commit_table()));
  }
  return stats_result;
}

Status Database::Checkpoint() {
  if (log_manager_ == nullptr) return Status::OK();
  // A checkpoint records only built indexes: the deferred ones would be
  // lost from it.
  HYRISE_NV_RETURN_NOT_OK(EnsureNotDegraded("checkpoint"));
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (txn_manager_->PreparedCount() > 0) {
    // A checkpoint would move the replay base past the kPrepare records
    // that keep in-doubt transactions recoverable. Retry after decide.
    return Status::Aborted(
        "checkpoint refused: prepared 2PC transactions are in doubt");
  }
  const uint64_t start_ticks = obs::FastClock::NowTicks();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kCheckpointStart);
  }
  Status status = log_manager_->WriteCheckpointNow(
      *catalog_, txn_manager_->commit_table());
  if (status.ok()) {
    if (obs::BlackboxWriter* bb = heap_->blackbox()) {
      bb->Record(obs::BlackboxEventType::kCheckpoint,
                 obs::FastClock::TicksToNanos(static_cast<int64_t>(
                     obs::FastClock::NowTicks() - start_ticks)));
    }
  }
  return status;
}

Status Database::Close() {
  // Stop the timeline first: it must not flush or decode the recorder
  // after the close event seals the session (its hook also dereferences
  // heap_ state that Close tears down).
  timeline_.reset();
  // Stop the background build before touching shared state below. A
  // close while still degraded is fine: the build logs nothing, so the
  // next open runs the same log pass and builds the indexes again.
  StopIndexBuild();
  if (read_only_) {
    // Salvage / degraded: nothing here may touch the image or the log.
    // In particular the image must NOT be marked clean — its seals were
    // never refreshed and parts of it are known-corrupt.
    return Status::OK();
  }
  // Transactions still open at shutdown (a serving session whose client
  // never committed, a leaked handle) are aborted, not leaked: their
  // claims are released and their inserts tombstoned, so the sealed
  // image contains no in-flight state and the next open sees none of
  // their effects.
  txn_manager_->AbortAllActive();
  if (log_manager_ != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(log_manager_->SyncNow());
  }
  if (options_.mode == DurabilityMode::kNvm) {
    // Refresh the close-time checksums so the next open can deep-verify
    // mutable structures too (they are only authoritative after a clean
    // shutdown; MarkDirty at the next open invalidates them).
    recovery::SealForCleanShutdown(*heap_);
  }
  return heap_->CloseClean();
}

void Database::StartObservability(bool recovered) {
  txn_manager_->SetTxnSampling(options_.txn_sample_every);
  if (options_.install_crash_handler) {
    obs::InstallCrashHandler();
  }
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kOpen,
               static_cast<uint64_t>(options_.mode), recovered ? 1 : 0);
  }
  if (options_.enable_timeline) {
    obs::TimelineConfig config = obs::TimelineConfig::Default();
    config.interval_ms = options_.timeline_interval_ms;
    config.capacity = options_.timeline_capacity;
    timeline_ = std::make_unique<obs::TimelineRecorder>(std::move(config));
    // Gauges like RSS and NVM-region utilization are not maintained by
    // any hot path; sync them right before each sample so the timeline
    // sees live values.
    timeline_->SetPreSampleHook([this] { SyncPassiveMetrics(); });
    timeline_->Start();
  }
}

std::string Database::TimelineJson() const {
  if (timeline_ == nullptr) {
    return "{\"interval_ms\":0,\"capacity\":0,\"samples\":[]}";
  }
  return timeline_->ToJson();
}

std::string Database::TimelineCsv() const {
  if (timeline_ == nullptr) return "";
  return timeline_->ToCsv();
}

namespace {

/// Resident set size from /proc/self/statm (0 where unavailable).
int64_t ReadRssBytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long vm_pages = 0;
  long long rss_pages = 0;
  int fields = std::fscanf(f, "%lld %lld", &vm_pages, &rss_pages);
  std::fclose(f);
  if (fields != 2) return 0;
  return static_cast<int64_t>(rss_pages) * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

}  // namespace

void Database::SyncPassiveMetrics() {
  auto& registry = obs::MetricsRegistry::Instance();
  // Mirror passively-maintained totals into the registry so one snapshot
  // holds everything. These sources already count in their own hot paths
  // (NvmStats atomics, WAL writer fields); re-counting them live would
  // double the bookkeeping for no benefit.
  const nvm::NvmStats& stats = heap_->region().stats();
  registry.GetCounter("nvm.persist.count")
      .Store(stats.persist_calls.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.fence.count")
      .Store(stats.fences.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.flush.lines")
      .Store(stats.flush_lines.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.flush.bytes")
      .Store(stats.flushed_bytes.load(std::memory_order_relaxed));
  registry.GetGauge("alloc.heap_used.bytes")
      .Set(static_cast<int64_t>(heap_->allocator().HeapUsedBytes()));
  registry.GetGauge("process.rss_bytes").Set(ReadRssBytes());
  // Region utilization includes the metadata prefix (header, intent
  // table, flight recorder) ahead of the allocatable heap, so
  // used/capacity reflects how full the mapped image actually is.
  registry.GetGauge("nvm.region.used_bytes")
      .Set(static_cast<int64_t>(alloc::PAllocator::HeapBegin() +
                                heap_->allocator().HeapUsedBytes()));
  registry.GetGauge("nvm.region.capacity_bytes")
      .Set(static_cast<int64_t>(heap_->region().size()));
  registry.GetGauge("db.read_only").Set(read_only_ ? 1 : 0);
  registry.GetGauge("db.serving_degraded")
      .Set(serving_state() == ServingState::kServingDegraded ? 1 : 0);
  if (log_manager_ != nullptr) {
    const wal::LogWriter& writer = log_manager_->writer();
    registry.GetCounter("wal.io.retries").Store(writer.io_retries());
    registry.GetCounter("wal.commits.total").Store(writer.total_commits());
    registry.GetCounter("wal.bytes.logged")
        .Store(log_manager_->bytes_logged());
  }
}

obs::MetricsSnapshot Database::MetricsSnapshot() {
  SyncPassiveMetrics();
  return obs::MetricsRegistry::Instance().Snapshot();
}

}  // namespace hyrise_nv::core
