#ifndef HYRISE_NV_INDEX_DELTA_INDEX_H_
#define HYRISE_NV_INDEX_DELTA_INDEX_H_

#include <cstdint>

#include "alloc/pvector.h"
#include "common/status.h"
#include "storage/layout.h"
#include "storage/types.h"

namespace hyrise_nv::index {

/// One chain node of the persistent delta hash index. Entries are keyed
/// by storage::HashValue, which is stable across restarts.
struct DeltaIndexEntry {
  uint64_t row;   // delta row number
  uint32_t tag;   // high half of the value hash (the reader re-checks ids)
  uint32_t next;  // 1-based position of the next entry; 0 = end
};
static_assert(sizeof(DeltaIndexEntry) == 16, "entry layout");

/// Most entries one delta hash index holds: `next` is 32 bits wide.
/// Insert refuses the entry past it instead of truncating a position.
constexpr uint64_t kMaxDeltaIndexEntries = UINT32_MAX;

/// NVM-resident chaining hash index over one column of the delta
/// partition (the multi-version index structure of DESIGN.md §4.3's delta
/// side; the main side is the group-key CSR rebuilt at merge).
///
/// Crash consistency: Insert appends the entry (durable via the entry
/// vector's size bump) and then publishes it with a single atomic persist
/// of the bucket head. A crash in between leaves an orphan entry that no
/// bucket references — harmless, and retired at the next merge.
class DeltaIndex {
 public:
  DeltaIndex() = default;
  DeltaIndex(nvm::PmemRegion* region, alloc::PAllocator* alloc,
             storage::PIndexMeta* meta);

  /// Formats a fresh index over `column` into a free PIndexMeta slot.
  static Status Create(nvm::PmemRegion& region, alloc::PAllocator& alloc,
                       storage::PIndexMeta* meta, uint64_t column,
                       uint64_t bucket_count);

  /// Validates persistent state after restart.
  Status Attach();

  uint64_t column() const { return meta_->column; }
  uint64_t entry_count() const { return entries_.size(); }

  /// Indexes `row` under `hash`. OutOfMemory once the index holds
  /// kMaxDeltaIndexEntries entries.
  Status Insert(uint64_t hash, uint64_t row);

  /// Calls `fn(row)` for every entry whose bucket and tag match `hash`.
  /// The caller re-checks actual value equality and row visibility.
  template <typename Fn>
  void ForEachCandidate(uint64_t hash, Fn&& fn) const {
    const uint64_t bucket = hash & (meta_->bucket_count - 1);
    const uint32_t tag = TagOf(hash);
    uint64_t pos = buckets_.Get(bucket);  // 1-based
    while (pos != 0) {
      // A copy, not a reference held across fn: growth frees the buffer
      // it came from (DESIGN.md §12.1).
      const DeltaIndexEntry entry = entries_.Get(pos - 1);
      if (entry.tag == tag) fn(entry.row);
      pos = entry.next;
    }
  }

 private:
  /// The tag stored for `hash`: its high half, which the bucket (low
  /// bits) does not already determine.
  static uint32_t TagOf(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32);
  }

  nvm::PmemRegion* region_ = nullptr;
  storage::PIndexMeta* meta_ = nullptr;
  alloc::PVector<uint64_t> buckets_;
  alloc::PVector<DeltaIndexEntry> entries_;
};

}  // namespace hyrise_nv::index

#endif  // HYRISE_NV_INDEX_DELTA_INDEX_H_
