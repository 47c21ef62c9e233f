#ifndef HYRISE_NV_INDEX_INDEX_SET_H_
#define HYRISE_NV_INDEX_INDEX_SET_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "index/delta_index.h"
#include "index/group_key_index.h"
#include "index/pskiplist.h"
#include "storage/table.h"

namespace hyrise_nv::index {

/// The secondary indexes of one table generation: per indexed column, a
/// persistent delta-side structure (hash for point lookups or skip list
/// for ordered lookups) and — after the first merge — a group-key index
/// over the main. Handles are volatile; re-Attach after a restart or a
/// merge swap.
class IndexSet {
 public:
  explicit IndexSet(storage::Table* table) : table_(table) {}

  /// Binds handles to every active index slot of the current group.
  /// Read-only, so salvage opens can use it.
  Status Attach();

  /// Re-links the delta rows a crash left out of a hash index (at most
  /// the newest). Writes; call it after Attach on a writable open.
  Status Repair();

  /// Creates a hash index on `column` (point lookups; the main-side
  /// group-key index materialises at the next merge). Backfills existing
  /// delta rows into the still inactive slot and activates it last, so a
  /// crash mid-build only leaks the slot's storage. The caller excludes
  /// concurrent inserts (table write mutex).
  Status CreateIndex(size_t column) {
    return CreateIndexOfKind(column, storage::kIndexHash);
  }

  /// Creates an ordered (skip-list) index on `column`: equality *and*
  /// range lookups on the delta. Backfills existing delta rows.
  Status CreateOrderedIndex(size_t column) {
    return CreateIndexOfKind(column, storage::kIndexSkipList);
  }

  Status CreateIndexOfKind(size_t column, storage::PIndexKind kind);

  /// Whether `column` has any index.
  bool HasIndex(size_t column) const;
  /// Whether `column` has an ordered index.
  bool HasOrderedIndex(size_t column) const;

  /// Must be called after every delta insert, with the inserted values.
  Status OnInsert(const std::vector<storage::Value>& row, uint64_t delta_row);

  /// Calls `fn(RowLocation)` for every *candidate* row whose `column`
  /// equals `value` (group-key or attribute scan on main; hash or skip
  /// list on delta). The caller filters by MVCC visibility; equality is
  /// exact.
  template <typename Fn>
  Status ForEachEqualCandidate(size_t column, const storage::Value& value,
                               Fn&& fn) const {
    const BoundIndex* bound = FindBound(column);
    if (bound == nullptr) {
      return Status::NotFound("no index on column " +
                              std::to_string(column));
    }
    ForEachMainEqual(*bound, column, value, fn);
    if (bound->kind == storage::kIndexSkipList) {
      bound->skip_list.ForEachEqual(value, [&fn](uint64_t row) {
        fn(storage::RowLocation{false, row});
      });
      return Status::OK();
    }
    // The dictionary probe yields the value id the chains are keyed by. A
    // value the delta dictionary lacks has no delta rows.
    const auto& delta_col = table_->delta().column(column);
    const storage::ValueId delta_id = delta_col.dictionary().Lookup(value);
    if (delta_id == storage::kInvalidValueId) return Status::OK();
    return bound->delta_hash.ForEachRow(delta_id, [&](uint64_t row) {
      if (delta_col.AttrAt(row) == delta_id) {
        fn(storage::RowLocation{false, row});
      }
    });
  }

  /// Calls `fn(RowLocation)` for candidates with lo <= column <= hi.
  /// Requires an ordered index. Main side: sorted-dictionary id range
  /// through the group-key CSR (or packed-id scan pre-merge); delta side:
  /// skip-list range walk.
  template <typename Fn>
  Status ForEachRangeCandidate(size_t column, const storage::Value& lo,
                               const storage::Value& hi, Fn&& fn) const {
    const BoundIndex* bound = FindBound(column);
    if (bound == nullptr || bound->kind != storage::kIndexSkipList) {
      return Status::NotFound("no ordered index on column " +
                              std::to_string(column));
    }
    const auto& main_col = table_->main().column(column);
    const storage::ValueId lo_id = main_col.dictionary().LowerBound(lo);
    const storage::ValueId hi_id = main_col.dictionary().UpperBound(hi);
    if (lo_id < hi_id) {
      if (bound->group_key.present()) {
        bound->group_key.ForEachRowInIdRange(lo_id, hi_id,
                                             [&fn](uint64_t row) {
                                               fn(storage::RowLocation{
                                                   true, row});
                                             });
      } else {
        const uint64_t rows = table_->main_row_count();
        for (uint64_t r = 0; r < rows; ++r) {
          const storage::ValueId id = main_col.AttrAt(r);
          if (id >= lo_id && id < hi_id) {
            fn(storage::RowLocation{true, r});
          }
        }
      }
    }
    bound->skip_list.ForEachInRange(lo, hi, [&fn](uint64_t row) {
      fn(storage::RowLocation{false, row});
    });
    return Status::OK();
  }

  size_t num_indexes() const { return bound_.size(); }

 private:
  struct BoundIndex {
    size_t column;
    storage::PIndexKind kind;
    DeltaIndex delta_hash;   // kIndexHash
    PSkipList skip_list;     // kIndexSkipList
    GroupKeyIndex group_key;
  };

  template <typename Fn>
  void ForEachMainEqual(const BoundIndex& bound, size_t column,
                        const storage::Value& value, Fn&& fn) const {
    const auto& main_col = table_->main().column(column);
    const storage::ValueId main_id = main_col.dictionary().Find(value);
    if (main_id == storage::kInvalidValueId) return;
    if (bound.group_key.present()) {
      bound.group_key.ForEachRow(main_id, [&fn](uint64_t row) {
        fn(storage::RowLocation{true, row});
      });
      return;
    }
    const uint64_t rows = table_->main_row_count();
    for (uint64_t r = 0; r < rows; ++r) {
      if (main_col.AttrAt(r) == main_id) {
        fn(storage::RowLocation{true, r});
      }
    }
  }

  const BoundIndex* FindBound(size_t column) const {
    for (const auto& b : bound_) {
      if (b.column == column) return &b;
    }
    return nullptr;
  }

  Status BindSlot(storage::PIndexMeta* meta);

  storage::Table* table_;
  std::vector<BoundIndex> bound_;
};

}  // namespace hyrise_nv::index

#endif  // HYRISE_NV_INDEX_INDEX_SET_H_
