#ifndef HYRISE_NV_WAL_CHECKPOINT_H_
#define HYRISE_NV_WAL_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/catalog.h"
#include "txn/commit_table.h"
#include "wal/block_device.h"

namespace hyrise_nv::wal {

/// Metadata recovered from a checkpoint file.
struct CheckpointInfo {
  uint64_t log_offset = 0;  // replay starts here
  storage::Cid watermark = 0;
  uint64_t bytes = 0;  // checkpoint size on device
  /// Indexes present at checkpoint time. Log recovery builds them again
  /// once the log pass has appended every row — the rebuild is a real
  /// cost of log-based recovery that instant restart avoids.
  struct IndexedColumn {
    std::string table;
    uint64_t column;
    uint64_t kind;  // storage::PIndexKind
  };
  std::vector<IndexedColumn> indexed_columns;
};

/// Writes a complete, transactionally consistent snapshot of the database
/// (all tables: dictionaries, attribute vectors, MVCC, index membership;
/// plus the commit watermark and id blocks) to `path`. `log_offset` is
/// the log position from which replay must continue after loading this
/// checkpoint. The file is written to a temp name and renamed, so a crash
/// mid-checkpoint leaves the previous checkpoint intact.
Status WriteCheckpoint(const std::string& path,
                       const BlockDeviceOptions& device_options,
                       storage::Catalog& catalog,
                       txn::CommitTable& commit_table,
                       uint64_t log_offset);

/// Loads a checkpoint into a freshly formatted heap: recreates all tables
/// in `catalog` and restores the transaction state block. Returns
/// NotFound if `path` does not exist (recovery then replays the whole
/// log).
Result<CheckpointInfo> LoadCheckpoint(
    const std::string& path, const BlockDeviceOptions& device_options,
    alloc::PHeap& heap, storage::Catalog& catalog,
    txn::CommitTable& commit_table);

}  // namespace hyrise_nv::wal

#endif  // HYRISE_NV_WAL_CHECKPOINT_H_
