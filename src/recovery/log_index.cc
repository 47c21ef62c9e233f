#include "recovery/log_index.h"

#include <unordered_map>

#include "common/logging.h"
#include "nvm/nvm_env.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"
#include "wal/log_reader.h"

namespace hyrise_nv::recovery {

namespace {

using storage::Cid;
using storage::Tid;

/// Mutable per-table accumulation during the scan: the staged rows' ids,
/// one vector per column so that each column appends with one copy; their
/// MVCC entries (deletes fold into these before the rows are appended in
/// one bulk step at the end); and one dictionary stage per column,
/// published just before that step. Staged row i becomes delta row
/// `base_delta_rows + i`.
struct StagedTable {
  storage::Table* table = nullptr;
  uint64_t base_delta_rows = 0;
  std::vector<std::vector<storage::ValueId>> ids;
  std::vector<storage::MvccEntry> mvcc;
  std::vector<storage::DictionaryStage> dicts;
};

/// Records the checkpoint-fallback decision (blackbox event + metric) so
/// forensics can distinguish "checkpoint ignored" restarts from normal
/// ones.
void NoteCheckpointFallback(alloc::PHeap& heap) {
  if (obs::BlackboxWriter* bb = heap.blackbox()) {
    bb->Record(obs::BlackboxEventType::kCheckpointFallback, 1);
  }
  obs::MetricsRegistry::Instance()
      .GetCounter("recovery.checkpoint_fallback.count")
      .Inc();
}

}  // namespace

Result<LogIndex> LoadLogCheckpoint(alloc::PHeap& heap,
                                   storage::Catalog& catalog,
                                   txn::TxnManager& txn_manager,
                                   const wal::LogManagerOptions& options) {
  LogIndex index;
  auto info_result =
      wal::LoadCheckpoint(options.checkpoint_path, options.device, heap,
                          catalog, txn_manager.commit_table());
  if (info_result.ok()) {
    index.replay_offset = info_result->log_offset;
    index.report.checkpoint_bytes = info_result->bytes;
    index.indexed_columns = std::move(info_result->indexed_columns);
  } else if (info_result.status().IsCorruption() &&
             catalog.num_tables() == 0) {
    // The untouched (freshly formatted) heap lets the log reproduce
    // everything from offset 0. If the catalog already has state, the
    // log alone cannot — the error propagates instead.
    HYRISE_NV_LOG(kWarn)
        << "checkpoint is corrupt (" << info_result.status().ToString()
        << "); falling back to full log replay from offset 0";
    index.report.checkpoint_fallback = true;
    NoteCheckpointFallback(heap);
  } else if (!info_result.status().IsNotFound()) {
    return info_result.status();
  }
  return index;
}

Status AnalyzeLog(alloc::PHeap& heap, storage::Catalog& catalog,
                  txn::TxnManager& txn_manager,
                  const wal::LogManagerOptions& options,
                  obs::SpanTracer& tracer, LogIndex& index) {
  if (!nvm::FileExists(options.log_path)) return Status::OK();
  LogRecoveryReport& report = index.report;
  auto device_result =
      wal::BlockDevice::Open(options.log_path, options.device);
  if (!device_result.ok()) return device_result.status();
  wal::BlockDevice& device = **device_result;
  const uint64_t offset = index.replay_offset;
  report.log_bytes_scanned =
      device.size() > offset ? device.size() - offset : 0;

  // Pass one: committed tid -> cid, plus prepared-but-undecided tids (a
  // kPrepare with no later kCommit/kAbort for the same tid: the
  // transaction is in doubt and awaits the coordinator's decision).
  // Checkpoints are refused while anything is prepared, so every
  // undecided kPrepare lies past the checkpoint offset.
  std::unordered_map<Tid, Cid> committed;
  std::unordered_map<Tid, uint64_t> prepared;  // tid -> gtid
  Cid max_cid = 0;
  Tid max_tid = 0;
  wal::LogReader reader(&device);
  tracer.Begin("scan_commits");
  tracer.Begin("read_log");
  HYRISE_NV_RETURN_NOT_OK(reader.Load(offset));
  tracer.End();
  {
    auto scan = reader.ForEachFrame([&](const wal::LogFrame& frame) -> Status {
      HYRISE_NV_ASSIGN_OR_RETURN(const wal::RecordHeader record,
                                 wal::DecodeRecordHeader(frame));
      max_tid = std::max(max_tid, record.tid);
      if (record.type == wal::RecordType::kCommit) {
        committed.emplace(record.tid, record.cid);
        prepared.erase(record.tid);
        max_cid = std::max(max_cid, record.cid);
      } else if (record.type == wal::RecordType::kAbort) {
        prepared.erase(record.tid);
      } else if (record.type == wal::RecordType::kPrepare) {
        prepared.emplace(record.tid, record.gtid);
      }
      return Status::OK();
    });
    if (!scan.ok()) return scan.status();
  }
  tracer.End();

  // Pass two: apply DDL and MVCC state, stage dictionary values and
  // inserts.
  tracer.Begin("apply");
  auto& region = heap.region();
  std::vector<StagedTable> staged;
  std::unordered_map<uint64_t, size_t> staged_by_id;
  auto staged_for = [&](uint64_t table_id) -> Result<StagedTable*> {
    auto it = staged_by_id.find(table_id);
    if (it != staged_by_id.end()) return &staged[it->second];
    auto table = catalog.GetTableById(table_id);
    if (!table.ok()) return table.status();
    staged_by_id.emplace(table_id, staged.size());
    staged.emplace_back();
    StagedTable& entry = staged.back();
    entry.table = *table;
    // Staged rows are only appended after the scan, so the current delta
    // row count stays the staging base for the whole pass.
    entry.base_delta_rows = (*table)->delta_row_count();
    const size_t columns = (*table)->schema().num_columns();
    entry.ids.resize(columns);
    entry.dicts.reserve(columns);
    for (size_t c = 0; c < columns; ++c) {
      entry.dicts.emplace_back(&(*table)->delta().column(c).dictionary());
    }
    return &entry;
  };
  // Write sets of in-doubt transactions, rebuilt in log order so a later
  // decide-commit stamps exactly what the prepare covered.
  std::unordered_map<Tid, std::vector<LogRecoveryReport::InDoubtWrite>>
      in_doubt_writes;
  // Stages one logged insert whose ids the caller appended. Its MVCC
  // entry is final up front: a committed insert carries its begin stamp;
  // any other stays invisible (begin = ∞) under its writer's claim, and
  // an in-doubt one joins its transaction's write set at the row it will
  // occupy.
  auto stage = [&](StagedTable& entry, const wal::LogRecord& record) {
    storage::MvccEntry mvcc;
    mvcc.begin = storage::kCidInfinity;
    mvcc.end = storage::kCidInfinity;
    mvcc.tid = record.tid;
    auto it = committed.find(record.tid);
    if (it != committed.end()) {
      mvcc.begin = it->second;
      mvcc.tid = storage::kTidNone;
    } else if (prepared.count(record.tid) > 0) {
      const storage::RowLocation loc{
          false, entry.base_delta_rows + entry.mvcc.size()};
      in_doubt_writes[record.tid].push_back({record.table_id, loc, false});
    }
    entry.mvcc.push_back(mvcc);
  };

  auto apply = [&](const wal::LogRecord& record) -> Status {
    switch (record.type) {
      case wal::RecordType::kInsert: {
        HYRISE_NV_ASSIGN_OR_RETURN(StagedTable * entry,
                                   staged_for(record.table_id));
        if (record.values.size() != entry->dicts.size()) {
          return Status::Corruption("logged insert arity mismatch");
        }
        // Encode now, while analysis is single-threaded: staging in log
        // order hands out the ids the live engine assigned, and the
        // stages publish before anything reads the dictionaries.
        for (size_t c = 0; c < record.values.size(); ++c) {
          HYRISE_NV_ASSIGN_OR_RETURN(
              const storage::ValueId id,
              entry->dicts[c].GetOrInsert(record.values[c]));
          entry->ids[c].push_back(id);
        }
        stage(*entry, record);
        break;
      }
      case wal::RecordType::kInsertEncoded: {
        HYRISE_NV_ASSIGN_OR_RETURN(StagedTable * entry,
                                   staged_for(record.table_id));
        if (record.value_ids.size() != entry->dicts.size()) {
          return Status::InvalidArgument("encoded row arity mismatch");
        }
        for (size_t c = 0; c < record.value_ids.size(); ++c) {
          // Dictionary adds precede the inserts that use them in the
          // log, so the staged size is already the bound.
          if (record.value_ids[c] >= entry->dicts[c].size()) {
            return Status::Corruption("encoded id beyond dictionary");
          }
          entry->ids[c].push_back(record.value_ids[c]);
        }
        stage(*entry, record);
        break;
      }
      case wal::RecordType::kDictAdd: {
        HYRISE_NV_ASSIGN_OR_RETURN(StagedTable * entry,
                                   staged_for(record.table_id));
        if (record.column >= entry->dicts.size()) {
          return Status::Corruption("dict-add column out of range");
        }
        auto id = entry->dicts[record.column].GetOrInsert(record.dict_value);
        if (!id.ok()) return id.status();
        break;
      }
      case wal::RecordType::kDelete: {
        auto it = committed.find(record.tid);
        const bool in_doubt =
            it == committed.end() && prepared.count(record.tid) > 0;
        if (it == committed.end() && !in_doubt) {
          break;  // uncommitted delete: no-op
        }
        HYRISE_NV_ASSIGN_OR_RETURN(StagedTable * entry,
                                   staged_for(record.table_id));
        const uint64_t base = entry->base_delta_rows;
        // A row from the checkpoint is stamped in storage directly; a row
        // staged earlier in this scan gets the stamp folded into its
        // staged entry before it is appended.
        const bool checkpointed = record.loc.in_main || record.loc.row < base;
        storage::MvccEntry* mvcc = nullptr;
        if (checkpointed) {
          const uint64_t rows =
              record.loc.in_main ? entry->table->main_row_count() : base;
          if (record.loc.row < rows) mvcc = entry->table->mvcc(record.loc);
        } else if (record.loc.row - base < entry->mvcc.size()) {
          mvcc = &entry->mvcc[record.loc.row - base];
        }
        if (mvcc == nullptr) {
          return Status::Corruption("logged delete references bad row");
        }
        if (in_doubt) {
          // In-doubt delete: claim the row (it stays visible but locked
          // against other writers) until the decision lands.
          mvcc->tid = record.tid;
          in_doubt_writes[record.tid].push_back(
              {record.table_id, record.loc, true});
        } else {
          mvcc->end = it->second;
          mvcc->tid = storage::kTidNone;
        }
        if (checkpointed) region.Persist(mvcc, sizeof(*mvcc));
        break;
      }
      case wal::RecordType::kCreateTable: {
        auto schema_result = storage::Schema::Deserialize(
            record.schema_blob.data(), record.schema_blob.size());
        if (!schema_result.ok()) return schema_result.status();
        HYRISE_NV_RETURN_NOT_OK(
            catalog
                .RestoreTable(record.table_name, *schema_result,
                              record.table_id)
                .status());
        break;
      }
      case wal::RecordType::kCreateIndex: {
        auto table = catalog.GetTableById(record.table_id);
        if (!table.ok()) return table.status();
        index.indexed_columns.push_back(
            {(*table)->name(), record.column, record.index_kind});
        break;
      }
      case wal::RecordType::kCommit:
      case wal::RecordType::kAbort:
      case wal::RecordType::kPrepare:
        break;
    }
    return Status::OK();
  };
  HYRISE_NV_ASSIGN_OR_RETURN(
      report.replayed_records,
      reader.ForEachFrame([&](const wal::LogFrame& frame) -> Status {
        HYRISE_NV_ASSIGN_OR_RETURN(const wal::LogRecord record,
                                   wal::DecodeRecordBody(frame));
        return apply(record);
      }));
  tracer.End();

  // Publish the staged dictionary values, then append the staged rows
  // that reference them.
  tracer.Begin("reserve");
  for (StagedTable& entry : staged) {
    for (storage::DictionaryStage& dict : entry.dicts) {
      HYRISE_NV_RETURN_NOT_OK(dict.Publish());
    }
    if (entry.mvcc.empty()) continue;
    HYRISE_NV_RETURN_NOT_OK(
        entry.table->delta().BulkAppendRows(entry.ids, entry.mvcc));
    report.replayed_rows += entry.mvcc.size();
  }
  tracer.End();

  report.committed_txns = committed.size();
  for (const auto& [tid, gtid] : prepared) {
    report.in_doubt.push_back({tid, gtid, std::move(in_doubt_writes[tid])});
  }

  // Advance transaction state beyond anything the log used.
  auto* block = txn_manager.commit_table().block();
  if (max_cid >= block->commit_watermark) {
    region.AtomicPersist64(&block->commit_watermark, max_cid);
  }
  if (max_cid + 1 > block->cid_block) {
    region.AtomicPersist64(&block->cid_block, max_cid + 1);
  }
  if (max_tid + 1 > block->tid_block) {
    region.AtomicPersist64(&block->tid_block, max_tid + 1);
  }
  return Status::OK();
}

}  // namespace hyrise_nv::recovery
