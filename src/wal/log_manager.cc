#include "wal/log_manager.h"

namespace hyrise_nv::wal {

Result<std::unique_ptr<LogManager>> LogManager::Create(
    const LogManagerOptions& options) {
  auto manager = std::unique_ptr<LogManager>(new LogManager(options));
  auto device_result = BlockDevice::Create(options.log_path, options.device);
  if (!device_result.ok()) return device_result.status();
  manager->device_ = std::move(device_result).ValueUnsafe();
  manager->writer_ = std::make_unique<LogWriter>(manager->device_.get());
  return manager;
}

Result<std::unique_ptr<LogManager>> LogManager::OpenExisting(
    const LogManagerOptions& options) {
  auto manager = std::unique_ptr<LogManager>(new LogManager(options));
  auto device_result = BlockDevice::Open(options.log_path, options.device);
  if (!device_result.ok()) return device_result.status();
  manager->device_ = std::move(device_result).ValueUnsafe();
  manager->writer_ = std::make_unique<LogWriter>(manager->device_.get());
  return manager;
}

Status LogManager::LogInsert(storage::Table& table, storage::Tid tid,
                             const std::vector<storage::Value>& row,
                             storage::RowLocation loc) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (options_.format == LogFormat::kValue) {
    return writer_->Append(LogRecord::Insert(tid, table.id(), row));
  }

  // Dictionary-encoded logging: emit new dictionary entries, then the
  // encoded row. Order matters — replay reconstructs dictionaries by
  // applying DictAdds in log order, reproducing the same value ids.
  const uint64_t ncols = table.schema().num_columns();
  std::vector<storage::ValueId> ids(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    const auto& dict = table.delta().column(c).dictionary();
    uint64_t& logged = dict_logged_[{table.id(), c}];
    for (uint64_t id = logged; id < dict.size(); ++id) {
      HYRISE_NV_RETURN_NOT_OK(writer_->Append(LogRecord::DictAdd(
          table.id(), c, dict.GetValue(static_cast<storage::ValueId>(id)))));
    }
    logged = dict.size();
    ids[c] = table.delta().column(c).AttrAt(loc.row);
  }
  return writer_->Append(LogRecord::InsertEncoded(tid, table.id(), ids));
}

Status LogManager::LogDelete(storage::Table& table, storage::Tid tid,
                             storage::RowLocation loc) {
  std::lock_guard<std::mutex> guard(mutex_);
  return writer_->Append(LogRecord::Delete(tid, table.id(), loc));
}

Status LogManager::LogCreateTable(storage::Table& table) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    HYRISE_NV_RETURN_NOT_OK(writer_->Append(LogRecord::CreateTable(
        table.id(), table.name(), table.schema().Serialize())));
  }
  return writer_->SyncNow();
}

Status LogManager::LogCreateIndex(uint64_t table_id, uint32_t column,
                                  uint32_t kind) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    HYRISE_NV_RETURN_NOT_OK(
        writer_->Append(LogRecord::CreateIndex(table_id, column, kind)));
  }
  return writer_->SyncNow();
}

Status LogManager::OnCommit(storage::Cid cid, const txn::Transaction& tx) {
  return writer_->Commit(LogRecord::Commit(tx.tid(), cid));
}

Status LogManager::OnAbort(const txn::Transaction& tx) {
  if (tx.context() != nullptr && tx.context()->gtid != 0) {
    // 2PC decide-abort: the ack promises the outcome, so the record must
    // be durable like a commit — a buffered abort lost to kill -9 would
    // resurrect the transaction as in-doubt after it was decided.
    return writer_->Commit(LogRecord::Abort(tx.tid()));
  }
  std::lock_guard<std::mutex> guard(mutex_);
  return writer_->Append(LogRecord::Abort(tx.tid()));
}

Status LogManager::OnPrepare(uint64_t gtid, const txn::Transaction& tx) {
  // The prepare vote must be durable before it is acked to the
  // coordinator, exactly like a commit record — Commit() joins the
  // leader/follower group fsync, amortising prepares with commits.
  return writer_->Commit(LogRecord::Prepare(tx.tid(), gtid));
}

Status LogManager::WriteCheckpointNow(storage::Catalog& catalog,
                                      txn::CommitTable& commit_table) {
  // Everything up to the current LSN must be durable before the
  // checkpoint claims to cover it.
  HYRISE_NV_RETURN_NOT_OK(writer_->SyncNow());
  const uint64_t log_offset = writer_->lsn();
  HYRISE_NV_RETURN_NOT_OK(WriteCheckpoint(options_.checkpoint_path,
                                          options_.device, catalog,
                                          commit_table, log_offset));
  ResetDictWatermarks(catalog);
  return Status::OK();
}

void LogManager::ResetDictWatermarks(storage::Catalog& catalog) {
  std::lock_guard<std::mutex> guard(mutex_);
  dict_logged_.clear();
  for (const auto& table : catalog.tables()) {
    for (uint32_t c = 0; c < table->schema().num_columns(); ++c) {
      dict_logged_[{table->id(), c}] =
          table->delta().column(c).dictionary().size();
    }
  }
}

}  // namespace hyrise_nv::wal
