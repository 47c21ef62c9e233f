#include "index/delta_index.h"

#include <algorithm>
#include <string>
#include <vector>

namespace hyrise_nv::index {

using storage::PIndexSlot;

DeltaIndex::DeltaIndex(nvm::PmemRegion* region, alloc::PAllocator* alloc,
                       storage::PIndexMeta* meta)
    : region_(region),
      meta_(meta),
      entries_(region, alloc, &meta->entries) {}

void DeltaIndex::Format(nvm::PmemRegion& region, storage::PIndexMeta* meta,
                        uint64_t column) {
  meta->kind = storage::kIndexHash;
  meta->column = column;
  meta->head_off = 0;
  meta->linked = 0;
  alloc::PVector<PIndexSlot>::Format(region, &meta->entries);
  region.Persist(meta, sizeof(storage::PIndexMeta));
}

Status DeltaIndex::Attach() const {
  if (meta_->state != 1) {
    return Status::InvalidArgument("attaching an inactive index slot");
  }
  if (meta_->kind != storage::kIndexHash) {
    return Status::Corruption("index slot of unknown kind " +
                              std::to_string(meta_->kind));
  }
  return entries_.Validate();
}

Status DeltaIndex::Build(const storage::DeltaColumn& column,
                         uint64_t rows) {
  if (!entries_.empty() || meta_->linked != 0) {
    return Status::InvalidArgument("building into a non-empty delta index");
  }
  const uint64_t ids = column.dictionary().size();
  std::vector<PIndexSlot> slots(std::max(ids, rows), PIndexSlot{0, 0});
  for (uint64_t row = 0; row < rows; ++row) {
    const storage::ValueId id = column.AttrAt(row);
    if (id >= ids) {
      return Status::Corruption("delta row " + std::to_string(row) +
                                " holds no dictionary id");
    }
    slots[row].link = slots[id].head;
    slots[id].head = row + 1;
  }
  HYRISE_NV_RETURN_NOT_OK(entries_.BulkAppend(slots.data(), slots.size()));
  region_->AtomicPersist64(&meta_->linked, rows);
  return Status::OK();
}

Status DeltaIndex::Insert(const storage::DeltaColumn& column, uint64_t row) {
  if (row < meta_->linked) {
    return Status::InvalidArgument("delta row " + std::to_string(row) +
                                   " is already indexed");
  }
  while (meta_->linked <= row) {
    HYRISE_NV_RETURN_NOT_OK(LinkNext(column));
  }
  return Status::OK();
}

Status DeltaIndex::LinkNext(const storage::DeltaColumn& column) {
  const uint64_t row = meta_->linked;
  const storage::ValueId id = column.AttrAt(row);
  if (id >= column.dictionary().size()) {
    return Status::Corruption("delta row " + std::to_string(row) +
                              " holds no dictionary id");
  }
  // Empty slots go in fenced and in bulk, up to the buffer's capacity: a
  // size bump made durable before the slots it covers would leave stale
  // heads in them.
  const uint64_t needed = std::max<uint64_t>(row, id) + 1;
  if (entries_.size() < needed) {
    HYRISE_NV_RETURN_NOT_OK(entries_.Reserve(needed));
    HYRISE_NV_RETURN_NOT_OK(entries_.AppendFill(
        PIndexSlot{0, 0}, entries_.capacity() - entries_.size()));
  }
  // The link, then the count readers bound heads by, then the head.
  // Lines flushed before one fence persist in any order, so the fence
  // makes link and count durable before the head that reaches them.
  PIndexSlot* slots = entries_.data();
  std::atomic_ref<uint64_t>(slots[row].link)
      .store(slots[id].head, std::memory_order_relaxed);
  region_->Flush(&slots[row].link, sizeof(uint64_t));
  std::atomic_ref<uint64_t>(meta_->linked)
      .store(row + 1, std::memory_order_release);
  region_->Flush(&meta_->linked, sizeof(meta_->linked));
  region_->Fence();
  region_->AtomicPersist64(&slots[id].head, row + 1);
  return Status::OK();
}

Status DeltaIndex::Repair(const storage::DeltaColumn& column,
                          uint64_t rows) {
  const uint64_t linked = meta_->linked;
  if (linked > rows) {
    return Status::Corruption("delta index links outnumber the delta rows");
  }
  if (linked > 0) {
    // The newest row is the head of its id once published. If it is not,
    // the crash cut its insert before the head publish, and its link may
    // not be durable: link the row again.
    const storage::ValueId id = column.AttrAt(linked - 1);
    if (linked > entries_.size() || id >= entries_.size() ||
        entries_.Get(id).head != linked) {
      region_->AtomicPersist64(&meta_->linked, linked - 1);
    }
  }
  return rows > meta_->linked ? Insert(column, rows - 1) : Status::OK();
}

}  // namespace hyrise_nv::index
