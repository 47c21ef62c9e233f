#ifndef HYRISE_NV_RECOVERY_LOG_INDEX_H_
#define HYRISE_NV_RECOVERY_LOG_INDEX_H_

#include <vector>

#include "alloc/pheap.h"
#include "obs/trace.h"
#include "recovery/log_recovery.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "txn/txn_manager.h"
#include "wal/checkpoint.h"
#include "wal/log_manager.h"

namespace hyrise_nv::recovery {

/// Per-table slice of the log index: the unreplayed inserts, already
/// encoded. Pending ordinal i corresponds to delta row
/// `base_delta_rows + i`; the placeholder rows already exist in the table
/// (attribute cells hold kInvalidValueId) with their final MVCC stamps,
/// so visibility, counts, and deletes are correct before a single value
/// is restored. Value-logged rows are encoded into the delta dictionaries
/// during analysis, so both log formats stage as ids and the dictionaries
/// are read-only for the whole degraded window (restores are pure
/// attribute-cell stores that never race a reader on dictionary growth).
struct TablePending {
  storage::Table* table = nullptr;
  uint64_t base_delta_rows = 0;
  uint64_t row_count = 0;
  /// Row-major: pending row i's column c holds ids[i * columns + c].
  std::vector<storage::ValueId> ids;
};

/// What the log pass produces: the staged rows, the index builds that
/// must wait until every row holds its value, and the report.
struct LogIndex {
  std::vector<TablePending> tables;
  /// Indexes from the checkpoint and the log's create-index records. They
  /// are built after the last row is restored, since a group-key or hash
  /// build must see real values.
  std::vector<wal::CheckpointInfo::IndexedColumn> indexed_columns;
  /// Where the log pass starts: the checkpoint's log offset, or 0.
  uint64_t replay_offset = 0;
  LogRecoveryReport report;
};

/// First step of log recovery: loads the latest checkpoint into the
/// freshly formatted heap. A corrupt checkpoint falls back to the whole
/// log from offset 0, as long as the catalog is still empty (the log then
/// reproduces everything); otherwise the corruption is an error.
Result<LogIndex> LoadLogCheckpoint(alloc::PHeap& heap,
                                   storage::Catalog& catalog,
                                   txn::TxnManager& txn_manager,
                                   const wal::LogManagerOptions& options);

/// The one log-replay pass, shared by eager and on-demand recovery (they
/// differ only in when the engine opens; DESIGN.md §13). It reads the log
/// from `index.replay_offset` once and walks that buffer twice: pass one
/// (span "scan_commits") checks each frame's CRC and parses only record
/// types, tids, cids and gtids, collecting committed and
/// prepared-but-undecided transactions; pass two (span "apply") then
///  - applies DDL (create table) and committed deletes eagerly, and
///    encodes every value-logged payload and dictionary add (dictionary
///    order is on-wire state the dict-encoded log depends on) in log
///    order against per-column DictionaryStages, so ids match the ones
///    the live engine assigned without writing a dictionary per value;
///  - stages each logged insert as a placeholder row whose MVCC entry
///    already carries its final begin/end stamps (committed map applied,
///    deletes folded in), keeping logged row positions faithful;
///  - leaves the inserts of in-doubt 2PC transactions invisible and
///    claimed, claims the rows they delete, and records their write sets
///    in `index.report.in_doubt` for adoption.
/// Finally (span "reserve") each column's staged values are published
/// with one bulk append per dictionary vector and indexed once, so the
/// dictionaries are complete, and thereafter read-only, before the engine
/// serves a single query; the placeholder rows are appended and the
/// transaction state advances past everything the log used. Afterwards
/// counts and visibility are exact; only value reads need the staged rows
/// restored (RestorePendingRow).
Status AnalyzeLog(alloc::PHeap& heap, storage::Catalog& catalog,
                  txn::TxnManager& txn_manager,
                  const wal::LogManagerOptions& options,
                  obs::SpanTracer& tracer, LogIndex& index);

/// Writes staged row `ordinal`'s ids into its placeholder cells. A pure
/// attribute-cell store: analysis already encoded the row, so a restore
/// never grows a dictionary. The caller serializes restores of one table
/// (the RecoveryDriver holds its write mutex; the eager open restores
/// every row on its own thread before serving).
Status RestorePendingRow(TablePending& pending, uint32_t ordinal);

}  // namespace hyrise_nv::recovery

#endif  // HYRISE_NV_RECOVERY_LOG_INDEX_H_
