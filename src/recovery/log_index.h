#ifndef HYRISE_NV_RECOVERY_LOG_INDEX_H_
#define HYRISE_NV_RECOVERY_LOG_INDEX_H_

#include <vector>

#include "alloc/pheap.h"
#include "obs/trace.h"
#include "recovery/log_recovery.h"
#include "storage/catalog.h"
#include "txn/txn_manager.h"
#include "wal/checkpoint.h"
#include "wal/log_manager.h"

namespace hyrise_nv::recovery {

/// What the log pass produces: the index builds left for after the pass,
/// where it starts, and the report.
struct LogIndex {
  /// Indexes from the checkpoint and the log's create-index records,
  /// built once the pass has appended every row (before an eager open,
  /// in the background behind an on-demand one).
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
/// differ only in where the index builds run; DESIGN.md §13). It reads
/// the log from `index.replay_offset` once and walks that buffer twice:
/// pass one (span "scan_commits") checks each frame's CRC and parses
/// only record types, tids, cids and gtids, collecting committed and
/// prepared-but-undecided transactions; pass two (span "apply") then
///  - applies DDL (create table) and committed deletes eagerly, and
///    encodes every value-logged payload and dictionary add (dictionary
///    order is on-wire state the dict-encoded log depends on) in log
///    order against per-column DictionaryStages, so ids match the ones
///    the live engine assigned without writing a dictionary per value;
///  - stages each logged insert's ids with an MVCC entry that already
///    carries its final begin/end stamps (committed map applied, deletes
///    folded in), keeping logged row positions faithful;
///  - leaves the inserts of in-doubt 2PC transactions invisible and
///    claimed, claims the rows they delete, and records their write sets
///    in `index.report.in_doubt` for adoption.
/// Finally (span "reserve") each column's staged values are published
/// with one bulk append per dictionary vector and indexed once, and each
/// table's staged rows are appended with their real ids: one bulk append
/// per attribute vector, a fence, then one for the MVCC entries. The
/// transaction state then advances past everything the log used, so every
/// row, count and value is final before the engine serves.
Status AnalyzeLog(alloc::PHeap& heap, storage::Catalog& catalog,
                  txn::TxnManager& txn_manager,
                  const wal::LogManagerOptions& options,
                  obs::SpanTracer& tracer, LogIndex& index);

}  // namespace hyrise_nv::recovery

#endif  // HYRISE_NV_RECOVERY_LOG_INDEX_H_
