#include "core/query.h"

#include "storage/mvcc.h"

namespace hyrise_nv::core {

using storage::Cid;
using storage::IsVisible;
using storage::RowLocation;
using storage::Table;
using storage::Tid;
using storage::Value;
using storage::ValueId;

int CompareValues(const Value& a, const Value& b) {
  HYRISE_NV_CHECK(a.index() == b.index(), "comparing mixed value types");
  if (const auto* ia = std::get_if<int64_t>(&a)) {
    const int64_t ib = std::get<int64_t>(b);
    return *ia < ib ? -1 : (*ia > ib ? 1 : 0);
  }
  if (const auto* da = std::get_if<double>(&a)) {
    const double db = std::get<double>(b);
    return *da < db ? -1 : (*da > db ? 1 : 0);
  }
  return std::get<std::string>(a).compare(std::get<std::string>(b));
}

Result<std::vector<RowLocation>> ScanRange(Table* table, size_t column,
                                           const Value& lo, const Value& hi,
                                           Cid snapshot, Tid tid,
                                           const index::IndexSet* indexes) {
  if (column >= table->schema().num_columns()) {
    return Status::InvalidArgument("column out of range");
  }
  if (CompareValues(lo, hi) > 0) {
    return std::vector<RowLocation>{};
  }
  std::vector<RowLocation> rows;

  // Ordered index available: group-key id-range on main + skip-list walk
  // on delta, visibility-filtered.
  if (indexes != nullptr && indexes->HasOrderedIndex(column)) {
    HYRISE_NV_RETURN_NOT_OK(indexes->ForEachRangeCandidate(
        column, lo, hi, [&](RowLocation loc) {
          if (IsVisible(*table->mvcc(loc), snapshot, tid)) {
            rows.push_back(loc);
          }
        }));
    return rows;
  }

  // Main: the sorted dictionary turns the value range into an id range.
  const auto& main_col = table->main().column(column);
  const ValueId lo_id = main_col.dictionary().LowerBound(lo);
  const ValueId hi_id = main_col.dictionary().UpperBound(hi);
  if (lo_id < hi_id) {
    const uint64_t main_rows = table->main_row_count();
    for (uint64_t r = 0; r < main_rows; ++r) {
      const ValueId id = main_col.AttrAt(r);
      if (id >= lo_id && id < hi_id &&
          IsVisible(*table->main().mvcc(r), snapshot, tid)) {
        rows.push_back({true, r});
      }
    }
  }

  // Delta: pre-compute the match mask per dictionary id.
  const auto& delta_col = table->delta().column(column);
  const uint64_t dict_size = delta_col.dictionary().size();
  std::vector<bool> matches(dict_size);
  for (uint64_t id = 0; id < dict_size; ++id) {
    const Value v = delta_col.dictionary().GetValue(static_cast<ValueId>(id));
    matches[id] = CompareValues(v, lo) >= 0 && CompareValues(v, hi) <= 0;
  }
  const uint64_t delta_rows = table->delta_row_count();
  for (uint64_t r = 0; r < delta_rows; ++r) {
    // The bound check keeps the mask lookup in bounds for an id the
    // dictionary snapshot above does not cover.
    const ValueId id = delta_col.AttrAt(r);
    if (id < dict_size && matches[id] &&
        IsVisible(*table->delta().mvcc(r), snapshot, tid)) {
      rows.push_back({false, r});
    }
  }
  return rows;
}

uint64_t CountRows(Table* table, Cid snapshot, Tid tid) {
  return table->CountVisible(snapshot, tid);
}

namespace {

template <typename T>
Result<T> SumColumn(Table* table, size_t column, Cid snapshot, Tid tid) {
  if (column >= table->schema().num_columns()) {
    return Status::InvalidArgument("column out of range");
  }
  // Decode each distinct dictionary value once.
  const auto& main_col = table->main().column(column);
  std::vector<T> main_values(main_col.dictionary().size());
  for (uint64_t id = 0; id < main_values.size(); ++id) {
    main_values[id] = std::get<T>(
        main_col.dictionary().GetValue(static_cast<ValueId>(id)));
  }
  const auto& delta_col = table->delta().column(column);
  std::vector<T> delta_values(delta_col.dictionary().size());
  for (uint64_t id = 0; id < delta_values.size(); ++id) {
    delta_values[id] = std::get<T>(
        delta_col.dictionary().GetValue(static_cast<ValueId>(id)));
  }

  T sum{};
  const uint64_t main_rows = table->main_row_count();
  for (uint64_t r = 0; r < main_rows; ++r) {
    if (IsVisible(*table->main().mvcc(r), snapshot, tid)) {
      sum += main_values[main_col.AttrAt(r)];
    }
  }
  const uint64_t delta_rows = table->delta_row_count();
  for (uint64_t r = 0; r < delta_rows; ++r) {
    if (IsVisible(*table->delta().mvcc(r), snapshot, tid)) {
      sum += delta_values[delta_col.AttrAt(r)];
    }
  }
  return sum;
}

}  // namespace

Result<int64_t> SumInt64(Table* table, size_t column, Cid snapshot,
                         Tid tid) {
  if (table->schema().column(column).type != storage::DataType::kInt64) {
    return Status::InvalidArgument("SumInt64 on non-int64 column");
  }
  return SumColumn<int64_t>(table, column, snapshot, tid);
}

Result<double> SumDouble(Table* table, size_t column, Cid snapshot,
                         Tid tid) {
  if (table->schema().column(column).type != storage::DataType::kDouble) {
    return Status::InvalidArgument("SumDouble on non-double column");
  }
  return SumColumn<double>(table, column, snapshot, tid);
}

std::vector<std::vector<Value>> MaterializeRows(
    Table* table, const std::vector<RowLocation>& locs) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(locs.size());
  for (const RowLocation loc : locs) {
    rows.push_back(table->GetRow(loc));
  }
  return rows;
}

}  // namespace hyrise_nv::core
