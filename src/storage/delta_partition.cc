#include "storage/delta_partition.h"

namespace hyrise_nv::storage {

DeltaColumn::DeltaColumn(DataType type, nvm::PmemRegion* region,
                         alloc::PAllocator* alloc, PDeltaColumnMeta* meta)
    : dict_(type, region, alloc, meta),
      attr_(region, alloc, &meta->attr) {}

Status DeltaColumn::Attach() {
  HYRISE_NV_RETURN_NOT_OK(attr_.Validate());
  return dict_.Attach();
}

Status DeltaColumn::AppendValue(const Value& value) {
  // The dictionary append is fully fenced (recovery reads dictionaries
  // as-is); the attribute append only flushes — the row-level fence in
  // AppendRow orders it before the MVCC commit point, and recovery
  // truncates attribute tails to the MVCC row count.
  HYRISE_NV_ASSIGN_OR_RETURN(const ValueId id, dict_.GetOrInsert(value));
  return attr_.AppendUnfenced(id);
}

Value DeltaColumn::GetValue(uint64_t row) const {
  return dict_.GetValue(attr_.Get(row));
}

void DeltaPartition::Format(nvm::PmemRegion& region, PTableGroup* group,
                            uint64_t num_columns) {
  alloc::PVector<MvccEntry>::Format(region, &group->delta_mvcc);
  for (uint64_t c = 0; c < num_columns; ++c) {
    DeltaColumn::Format(region, group->delta_col(c, num_columns));
  }
}

Status DeltaPartition::Attach(const Schema& schema, nvm::PmemRegion* region,
                              alloc::PAllocator* alloc,
                              PTableGroup* group) {
  const uint64_t ncols = schema.num_columns();
  mvcc_ = alloc::PVector<MvccEntry>(region, alloc, &group->delta_mvcc);
  HYRISE_NV_RETURN_NOT_OK(mvcc_.Validate());
  columns_.clear();
  columns_.reserve(ncols);
  for (uint64_t c = 0; c < ncols; ++c) {
    columns_.emplace_back(schema.column(c).type, region, alloc,
                          group->delta_col(c, ncols));
    HYRISE_NV_RETURN_NOT_OK(columns_.back().Attach());
  }
  return Status::OK();
}

Result<uint64_t> DeltaPartition::AppendRow(const std::vector<Value>& row,
                                           Tid tid) {
  // Column values first (flushed, unfenced), one fence for the whole
  // row, then the MVCC entry — the atomic commit point for the row's
  // existence. A crash in between leaves longer attribute vectors,
  // repaired on recovery. This is the paper's CLWB-batching: n flushes,
  // one SFENCE per row instead of one per column.
  for (size_t c = 0; c < columns_.size(); ++c) {
    HYRISE_NV_RETURN_NOT_OK(columns_[c].AppendValue(row[c]));
  }
  mvcc_.region()->Fence();
  const uint64_t new_row = mvcc_.size();
  MvccEntry entry;
  entry.begin = kCidInfinity;
  entry.end = kCidInfinity;
  entry.tid = tid;
  HYRISE_NV_RETURN_NOT_OK(mvcc_.Append(entry));
  return new_row;
}

Status DeltaPartition::BulkAppendRows(
    const std::vector<std::vector<ValueId>>& ids,
    const std::vector<MvccEntry>& entries) {
  if (ids.size() != columns_.size()) {
    return Status::InvalidArgument("encoded rows arity mismatch");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (ids[c].size() != entries.size()) {
      return Status::InvalidArgument("encoded column length mismatch");
    }
    HYRISE_NV_RETURN_NOT_OK(
        columns_[c].BulkAppendEncoded(ids[c].data(), ids[c].size()));
  }
  mvcc_.region()->Fence();
  return mvcc_.BulkAppend(entries.data(), entries.size());
}

Status DeltaPartition::RepairAfterCrash() {
  const uint64_t rows = mvcc_.size();
  for (auto& col : columns_) {
    if (col.attr_size() < rows) {
      return Status::Corruption(
          "delta attribute vector shorter than MVCC vector");
    }
    if (col.attr_size() > rows) {
      col.TruncateAttr(rows);
    }
    HYRISE_NV_RETURN_NOT_OK(col.dictionary().Repair());
  }
  return Status::OK();
}

}  // namespace hyrise_nv::storage
