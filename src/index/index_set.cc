#include "index/index_set.h"

namespace hyrise_nv::index {

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

Status IndexSet::Repair() {
  for (auto& bound : bound_) {
    if (bound.kind == storage::kIndexSkipList) continue;
    HYRISE_NV_RETURN_NOT_OK(bound.delta_hash.Repair(
        table_->delta().column(bound.column), table_->delta_row_count()));
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
  // Build into the inactive slot and activate it last: a crash before the
  // activation only leaks what the build allocated.
  const storage::DataType type = table_->schema().column(column).type;
  const auto& delta_col = table_->delta().column(column);
  const uint64_t rows = table_->delta_row_count();
  if (kind == storage::kIndexSkipList) {
    HYRISE_NV_RETURN_NOT_OK(PSkipList::Format(heap, slot, column));
    PSkipList list(type, &heap, slot);
    for (uint64_t row = 0; row < rows; ++row) {
      HYRISE_NV_RETURN_NOT_OK(list.Insert(delta_col.GetValue(row), row));
    }
  } else {
    DeltaIndex::Format(heap.region(), slot, column);
    HYRISE_NV_RETURN_NOT_OK(
        DeltaIndex(&heap.region(), &heap.allocator(), slot)
            .Build(delta_col, rows));
  }
  heap.region().AtomicPersist64(&slot->state, 1);
  return BindSlot(slot);
}

Status IndexSet::OnInsert(const std::vector<storage::Value>& row,
                          uint64_t delta_row) {
  for (auto& bound : bound_) {
    if (bound.kind == storage::kIndexSkipList) {
      HYRISE_NV_RETURN_NOT_OK(
          bound.skip_list.Insert(row[bound.column], delta_row));
    } else {
      HYRISE_NV_RETURN_NOT_OK(bound.delta_hash.Insert(
          table_->delta().column(bound.column), delta_row));
    }
  }
  return Status::OK();
}

}  // namespace hyrise_nv::index
