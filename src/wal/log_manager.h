#ifndef HYRISE_NV_WAL_LOG_MANAGER_H_
#define HYRISE_NV_WAL_LOG_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "storage/table.h"
#include "txn/txn_manager.h"
#include "wal/block_device.h"
#include "wal/checkpoint.h"
#include "wal/log_writer.h"

namespace hyrise_nv::wal {

/// WAL record encodings (the paper-era Hyrise logging formats).
enum class LogFormat {
  kValue,        // full values per insert
  kDictEncoded,  // value ids + incremental dictionary additions
};

struct LogManagerOptions {
  LogFormat format = LogFormat::kValue;
  BlockDeviceOptions device;
  std::string log_path;
  std::string checkpoint_path;
};

/// Coordinates the log-based durability baseline: per-operation records,
/// group-committed commit records (as the engine's CommitHook), and
/// checkpoints.
class LogManager : public txn::CommitHook {
 public:
  /// Starts a fresh log (truncates an existing file).
  static Result<std::unique_ptr<LogManager>> Create(
      const LogManagerOptions& options);

  /// Opens the existing log for continued appending after recovery.
  static Result<std::unique_ptr<LogManager>> OpenExisting(
      const LogManagerOptions& options);

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(LogManager);

  /// Logs the insert of `row` (already applied at `loc`). In
  /// dictionary-encoded mode, first emits DictAdd records for dictionary
  /// entries that are new since the last logged state.
  Status LogInsert(storage::Table& table, storage::Tid tid,
                   const std::vector<storage::Value>& row,
                   storage::RowLocation loc);

  Status LogDelete(storage::Table& table, storage::Tid tid,
                   storage::RowLocation loc);

  /// DDL records; synced immediately (DDL is durable on return).
  Status LogCreateTable(storage::Table& table);
  Status LogCreateIndex(uint64_t table_id, uint32_t column, uint32_t kind);

  // txn::CommitHook: commit record + sync policy / abort record. The 2PC
  // prepare record rides the same group-commit path as commits, so one
  // fsync covers a whole batch of prepares and commits.
  Status OnCommit(storage::Cid cid, const txn::Transaction& tx) override;
  Status OnAbort(const txn::Transaction& tx) override;
  Status OnPrepare(uint64_t gtid, const txn::Transaction& tx) override;

  /// Writes a checkpoint of the current state and records the log replay
  /// offset. Also resets dictionary logging watermarks.
  Status WriteCheckpointNow(storage::Catalog& catalog,
                            txn::CommitTable& commit_table);

  /// Re-seeds the dictionary logging watermarks from the current delta
  /// dictionary sizes (after checkpoint load or write).
  void ResetDictWatermarks(storage::Catalog& catalog);

  /// Makes everything logged so far durable.
  Status SyncNow() { return writer_->SyncNow(); }

  BlockDevice& device() { return *device_; }
  LogWriter& writer() { return *writer_; }
  const LogManagerOptions& options() const { return options_; }
  uint64_t bytes_logged() const { return writer_->lsn(); }

 private:
  explicit LogManager(LogManagerOptions options)
      : options_(std::move(options)) {}

  LogManagerOptions options_;
  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<LogWriter> writer_;
  std::mutex mutex_;
  // (table id, column) -> number of delta dictionary entries already
  // logged; volatile, reseeded at checkpoints.
  std::map<std::pair<uint64_t, uint32_t>, uint64_t> dict_logged_;
};

}  // namespace hyrise_nv::wal

#endif  // HYRISE_NV_WAL_LOG_MANAGER_H_
