#ifndef HYRISE_NV_INDEX_DELTA_INDEX_H_
#define HYRISE_NV_INDEX_DELTA_INDEX_H_

#include <atomic>
#include <cstdint>

#include "alloc/pvector.h"
#include "common/status.h"
#include "storage/delta_partition.h"
#include "storage/layout.h"
#include "storage/types.h"

namespace hyrise_nv::index {

/// NVM-resident point-lookup index over one column of the delta partition
/// (DESIGN.md §4.3; the main side is the group-key CSR rebuilt at merge).
/// It chains rows by the delta-dictionary value id their cell holds:
/// heads[id] is 1 + the newest row holding `id`, links[row] is 1 + the
/// next older row holding the same id (0 = none / end). A lookup visits
/// exactly the versions of one value, and the index never rehashes.
/// Heads and links share one vector of 16-byte PIndexSlots, slot i holding
/// heads[i] and links[i]: where each row brings a new value, a row's link
/// sits in its own head's cache line.
///
/// Crash consistency: rows are linked in order, each after its MVCC
/// append. Slots are appended empty, fenced and in bulk up to the buffer's
/// capacity. Insert writes the row's link and the linked count, fences
/// them, then publishes the head with one 8-byte atomic persist.
/// Database::Insert returns only after the index insert, so a crash can
/// leave only the newest row unpublished, and its transaction never
/// committed. Attach is read-only and O(1); Repair re-links that row on a
/// writable open.
///
/// Concurrency: one writer at a time (the table write mutex). Lookups take
/// no lock: they acquire-load each head, link and the linked count, and
/// bound-check them.
class DeltaIndex {
 public:
  DeltaIndex() = default;
  DeltaIndex(nvm::PmemRegion* region, alloc::PAllocator* alloc,
             storage::PIndexMeta* meta);

  /// Formats an empty hash index over `column` into the inactive slot
  /// `meta`. The caller builds it and then activates the slot.
  static void Format(nvm::PmemRegion& region, storage::PIndexMeta* meta,
                     uint64_t column);

  /// Validates an active slot's descriptor. Reads no head or link: each
  /// page it touched would fault at restart.
  Status Attach() const;

  /// Links rows [0, rows) of `column` into a freshly formatted index with
  /// one bulk append (the slot is not yet active, so no row needs its own
  /// publish).
  Status Build(const storage::DeltaColumn& column, uint64_t rows);

  /// Indexes delta row `row` of `column`, and any earlier row a failed
  /// insert left unlinked. Refuses a cell whose id is not in the
  /// dictionary, such as a corrupt cell's kInvalidValueId.
  Status Insert(const storage::DeltaColumn& column, uint64_t row);

  /// Re-links the newest row if a crash cut its insert before the head
  /// publish, then links rows up to `rows`. Writes; call it only while no
  /// reader holds the index, i.e. at a writable open.
  Status Repair(const storage::DeltaColumn& column, uint64_t rows);

  /// Slots, empty ones included: at least one per value id and per row.
  uint64_t slot_count() const { return entries_.size(); }
  /// Delta rows linked, in row order.
  uint64_t link_count() const { return LoadAcquire(&meta_->linked); }

  /// Calls `fn(row)` for every row chained under value id `id`, newest
  /// first. The caller re-checks the row's id and its visibility.
  /// Corruption if a head lies beyond the linked rows or a link does not
  /// point strictly backwards, so a damaged chain cannot loop.
  template <typename Fn>
  Status ForEachRow(storage::ValueId id, Fn&& fn) const {
    if (id >= entries_.size()) return Status::OK();
    uint64_t pos = LoadAcquire(&entries_.data()[id].head);
    // Loaded after the head, so it covers every row the head can reach.
    if (pos > link_count()) {
      return Status::Corruption("delta index head beyond the linked rows");
    }
    while (pos != 0) {
      // The link's miss overlaps the caller's row checks.
      __builtin_prefetch(&entries_.data()[pos - 1].link);
      fn(pos - 1);
      const uint64_t next = LoadAcquire(&entries_.data()[pos - 1].link);
      if (next >= pos) {
        return Status::Corruption("delta index link does not point back");
      }
      pos = next;
    }
    return Status::OK();
  }

 private:
  static uint64_t LoadAcquire(const uint64_t* word) {
    return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(word))
        .load(std::memory_order_acquire);
  }

  /// Links row link_count(), the next one.
  Status LinkNext(const storage::DeltaColumn& column);

  nvm::PmemRegion* region_ = nullptr;
  storage::PIndexMeta* meta_ = nullptr;
  alloc::PVector<storage::PIndexSlot> entries_;
};

}  // namespace hyrise_nv::index

#endif  // HYRISE_NV_INDEX_DELTA_INDEX_H_
