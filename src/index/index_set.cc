#include "index/index_set.h"

namespace hyrise_nv::index {

namespace {
constexpr uint64_t kDefaultBuckets = 1024;
}

Status IndexSet::BindSlot(storage::PIndexMeta* meta) {
  auto* group = table_->group();
  auto& heap = table_->heap();
  if (meta->column >= table_->schema().num_columns()) {
    return Status::Corruption("index slot references bad column");
  }
  const auto column = static_cast<size_t>(meta->column);
  const storage::DataType type = table_->schema().column(column).type;
  BoundIndex bound;
  bound.column = column;
  bound.kind = static_cast<storage::PIndexKind>(meta->kind);
  bound.group_key =
      GroupKeyIndex(&heap.region(), &heap.allocator(),
                    group->main_col(meta->column));
  HYRISE_NV_RETURN_NOT_OK(bound.group_key.Validate(
      table_->main().column(column).dictionary().size(),
      table_->main_row_count()));
  if (bound.kind == storage::kIndexSkipList) {
    bound.skip_list = PSkipList(type, &heap, meta);
    HYRISE_NV_RETURN_NOT_OK(bound.skip_list.Attach());
  } else {
    bound.delta_hash = DeltaIndex(&heap.region(), &heap.allocator(), meta);
    HYRISE_NV_RETURN_NOT_OK(bound.delta_hash.Attach());
  }
  bound_.push_back(std::move(bound));
  return Status::OK();
}

Status IndexSet::Attach() {
  bound_.clear();
  auto* group = table_->group();
  for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
    if (group->indexes[s].state != 1) continue;
    HYRISE_NV_RETURN_NOT_OK(BindSlot(&group->indexes[s]));
  }
  return Status::OK();
}

bool IndexSet::HasIndex(size_t column) const {
  return FindBound(column) != nullptr;
}

bool IndexSet::HasOrderedIndex(size_t column) const {
  const BoundIndex* bound = FindBound(column);
  return bound != nullptr && bound->kind == storage::kIndexSkipList;
}

Status IndexSet::CreateIndexOfKind(size_t column,
                                   storage::PIndexKind kind) {
  if (column >= table_->schema().num_columns()) {
    return Status::InvalidArgument("column out of range");
  }
  if (HasIndex(column)) {
    return Status::AlreadyExists("column already indexed");
  }
  auto* group = table_->group();
  auto& heap = table_->heap();
  storage::PIndexMeta* slot = nullptr;
  for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
    if (group->indexes[s].state == 0) {
      slot = &group->indexes[s];
      break;
    }
  }
  if (slot == nullptr) {
    return Status::OutOfMemory("all index slots in use");
  }
  const storage::DataType type = table_->schema().column(column).type;
  if (kind == storage::kIndexSkipList) {
    HYRISE_NV_RETURN_NOT_OK(PSkipList::Create(type, heap, slot, column));
  } else {
    HYRISE_NV_RETURN_NOT_OK(DeltaIndex::Create(
        heap.region(), heap.allocator(), slot, column, kDefaultBuckets));
  }
  HYRISE_NV_RETURN_NOT_OK(BindSlot(slot));

  // Backfill existing delta rows.
  BoundIndex& bound = bound_.back();
  const auto& delta_col = table_->delta().column(column);
  for (uint64_t row = 0; row < table_->delta_row_count(); ++row) {
    const storage::Value value = delta_col.GetValue(row);
    if (kind == storage::kIndexSkipList) {
      HYRISE_NV_RETURN_NOT_OK(bound.skip_list.Insert(value, row));
    } else {
      HYRISE_NV_RETURN_NOT_OK(
          bound.delta_hash.Insert(storage::HashValue(value, type), row));
    }
  }
  return Status::OK();
}

Status IndexSet::OnInsert(const std::vector<storage::Value>& row,
                          uint64_t delta_row) {
  for (auto& bound : bound_) {
    const storage::DataType type =
        table_->schema().column(bound.column).type;
    if (bound.kind == storage::kIndexSkipList) {
      HYRISE_NV_RETURN_NOT_OK(
          bound.skip_list.Insert(row[bound.column], delta_row));
    } else {
      HYRISE_NV_RETURN_NOT_OK(bound.delta_hash.Insert(
          storage::HashValue(row[bound.column], type), delta_row));
    }
  }
  return Status::OK();
}

}  // namespace hyrise_nv::index
