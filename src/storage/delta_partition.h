#ifndef HYRISE_NV_STORAGE_DELTA_PARTITION_H_
#define HYRISE_NV_STORAGE_DELTA_PARTITION_H_

#include <vector>

#include "alloc/pvector.h"
#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/layout.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace hyrise_nv::storage {

/// One column of the append-only delta partition: unsorted dictionary plus
/// an unencoded value-id vector.
class DeltaColumn {
 public:
  DeltaColumn() = default;
  DeltaColumn(DataType type, nvm::PmemRegion* region,
              alloc::PAllocator* alloc, PDeltaColumnMeta* meta);

  static void Format(nvm::PmemRegion& region, PDeltaColumnMeta* meta) {
    DeltaDictionary::Format(region, meta);
  }

  /// Validates persistent state. Constant work: the dictionary's
  /// value→id table is persistent (see DeltaDictionary::Attach).
  Status Attach();

  /// Appends `value` for the next row: dictionary insert + attribute
  /// append, each persisted. The row itself only exists once the
  /// partition's MVCC entry is appended (the per-row commit point).
  Status AppendValue(const Value& value);

  Value GetValue(uint64_t row) const;
  ValueId AttrAt(uint64_t row) const { return attr_.Get(row); }

  const DeltaDictionary& dictionary() const { return dict_; }
  DeltaDictionary& dictionary() { return dict_; }

  /// Appends `count` already-encoded value ids with one copy and one
  /// persist (log replay; the caller guarantees each id exists in the
  /// dictionary).
  Status BulkAppendEncoded(const ValueId* ids, uint64_t count) {
    return attr_.BulkAppend(ids, count);
  }

  uint64_t attr_size() const { return attr_.size(); }

  /// Rolls torn trailing appends back to `rows` entries (recovery).
  void TruncateAttr(uint64_t rows) { attr_.TruncateTo(rows); }

 private:
  DeltaDictionary dict_;
  alloc::PVector<uint32_t> attr_;
};

/// The delta partition of a table: one DeltaColumn per schema column plus
/// the delta MVCC vector. Row count == mvcc.size(); column attribute
/// vectors may transiently be longer during an insert (torn inserts are
/// truncated on recovery).
class DeltaPartition {
 public:
  DeltaPartition() = default;

  /// Formats all column metas and the MVCC vector of `group`.
  static void Format(nvm::PmemRegion& region, PTableGroup* group,
                     uint64_t num_columns);

  /// Binds handles to the group's delta structures.
  Status Attach(const Schema& schema, nvm::PmemRegion* region,
                alloc::PAllocator* alloc, PTableGroup* group);

  uint64_t row_count() const { return mvcc_.size(); }
  size_t num_columns() const { return columns_.size(); }

  DeltaColumn& column(size_t i) { return columns_[i]; }
  const DeltaColumn& column(size_t i) const { return columns_[i]; }

  /// Appends a full row owned by `tid`. Returns the new delta row number.
  /// Crash-atomic: the row exists iff the MVCC append (last step)
  /// committed.
  Result<uint64_t> AppendRow(const std::vector<Value>& row, Tid tid);

  /// Appends `entries.size()` dictionary-encoded rows with their final
  /// MVCC state (log replay): one bulk append per column, where
  /// `ids[c][i]` is row i's id in column c, then a fence, then the MVCC
  /// entries. The caller guarantees each id exists in its column's
  /// dictionary.
  Status BulkAppendRows(const std::vector<std::vector<ValueId>>& ids,
                        const std::vector<MvccEntry>& entries);

  MvccEntry* mvcc(uint64_t row) {
    HYRISE_NV_DCHECK(row < mvcc_.size(), "mvcc row out of range");
    return mvcc_data() + row;
  }
  const MvccEntry* mvcc(uint64_t row) const {
    HYRISE_NV_DCHECK(row < mvcc_.size(), "mvcc row out of range");
    return const_cast<DeltaPartition*>(this)->mvcc_data() + row;
  }

  alloc::PVector<MvccEntry>& mvcc_vector() { return mvcc_; }

  /// Truncates column attribute vectors that outgrew the MVCC vector
  /// (crash landed mid-insert) and repairs each column's dictionary
  /// table (DeltaDictionary::Repair). Called by recovery.
  Status RepairAfterCrash();

 private:
  MvccEntry* mvcc_data() { return mvcc_.data(); }

  std::vector<DeltaColumn> columns_;
  alloc::PVector<MvccEntry> mvcc_;
};

}  // namespace hyrise_nv::storage

#endif  // HYRISE_NV_STORAGE_DELTA_PARTITION_H_
