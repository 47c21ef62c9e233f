#ifndef HYRISE_NV_ALLOC_PVECTOR_H_
#define HYRISE_NV_ALLOC_PVECTOR_H_

#include <atomic>
#include <cstring>
#include <type_traits>

#include "alloc/pallocator.h"
#include "common/macros.h"
#include "common/status.h"

namespace hyrise_nv::alloc {

/// On-NVM descriptor of a persistent dynamic array. Lives inline in the
/// owning structure at a stable offset; the payload buffer is allocated
/// from the persistent heap and republished on growth through an A/B slot
/// flip, so a crash at any point exposes either the old or the new buffer,
/// never a torn descriptor.
struct PVectorDesc {
  struct Slot {
    uint64_t data;      // payload offset of the element buffer (0 = none)
    uint64_t capacity;  // element capacity of that buffer
  };
  uint64_t version;  // active slot = version & 1; bumped atomically
  Slot slots[2];
  uint64_t size;  // committed element count; bumped atomically after data
  /// Seal tag over the fields above, written by the clean-shutdown walk
  /// (see recovery/verify.h). 0 = unsealed; mutations leave it stale,
  /// which is safe because the region is marked dirty first and seals are
  /// only authoritative after a clean shutdown.
  uint64_t seal;
};
static_assert(sizeof(PVectorDesc) == 56, "descriptor layout");

/// Typed handle over a PVectorDesc. The handle itself is volatile; all
/// state lives on NVM. Elements must be trivially copyable (they are
/// memcpy'd during growth and after restart no constructors rerun).
///
/// Persistence contract: after Append/Set/BulkAppend return, the new
/// contents and size are durable. A crash mid-call leaves the previous
/// committed state.
template <typename T>
class PVector {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "PVector elements must be trivially copyable");

  PVector() = default;
  PVector(nvm::PmemRegion* region, PAllocator* alloc, PVectorDesc* desc)
      : region_(region), alloc_(alloc), desc_(desc) {}

  /// Initialises a zeroed descriptor for a fresh vector.
  static void Format(nvm::PmemRegion& region, PVectorDesc* desc) {
    std::memset(desc, 0, sizeof(PVectorDesc));
    region.Persist(desc, sizeof(PVectorDesc));
  }

  /// Re-attaches after restart; validates the descriptor.
  Status Validate() const {
    const PVectorDesc::Slot slot = ActiveSlot();
    if (desc_->size > slot.capacity) {
      return Status::Corruption("PVector size exceeds capacity");
    }
    if (slot.capacity > 0) {
      const uint64_t end = slot.data + slot.capacity * sizeof(T);
      if (slot.data < PAllocator::HeapBegin() || end > region_->size()) {
        return Status::Corruption("PVector buffer out of range");
      }
    }
    return Status::OK();
  }

  /// Committed element count. An acquire load: writers publish the size
  /// (and the version of a grown buffer) with release stores, so a
  /// lock-free reader that sees an element count also sees its elements.
  uint64_t size() const {
    return std::atomic_ref<uint64_t>(desc_->size).load(
        std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }
  uint64_t capacity() const { return ActiveSlot().capacity; }
  nvm::PmemRegion* region() const { return region_; }

  T* data() {
    const PVectorDesc::Slot slot = ActiveSlot();
    return slot.data == 0
               ? nullptr
               : reinterpret_cast<T*>(region_->base() + slot.data);
  }
  const T* data() const {
    const PVectorDesc::Slot slot = ActiveSlot();
    return slot.data == 0
               ? nullptr
               : reinterpret_cast<const T*>(region_->base() + slot.data);
  }

  const T& Get(uint64_t index) const {
    HYRISE_NV_DCHECK(index < size(), "PVector index out of range");
    return data()[index];
  }

  /// Overwrites an existing element and persists it.
  void Set(uint64_t index, const T& value) {
    HYRISE_NV_DCHECK(index < size(), "PVector index out of range");
    T* slot = data() + index;
    *slot = value;
    region_->Persist(slot, sizeof(T));
  }

  /// Overwrites without persisting (caller batches a PersistRange).
  void SetUnpersisted(uint64_t index, const T& value) {
    HYRISE_NV_DCHECK(index < size(), "PVector index out of range");
    data()[index] = value;
  }

  /// Persists elements [begin, end).
  void PersistRange(uint64_t begin, uint64_t end) {
    if (end <= begin) return;
    region_->Persist(data() + begin, (end - begin) * sizeof(T));
  }

  /// Appends one element durably. Two persist barriers: element, then
  /// size — the size bump is the commit point.
  Status Append(const T& value) {
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + 1));
    T* slot = data() + desc_->size;
    *slot = value;
    region_->Persist(slot, sizeof(T));
    region_->AtomicPersist64(&desc_->size, desc_->size + 1);
    return Status::OK();
  }

  /// Appends one element with flushes but *no fence* (models CLWB without
  /// SFENCE). The caller must issue a region Fence before any dependent
  /// durable publication. Safe only for vectors whose committed length is
  /// bounded by another structure that recovery trusts instead (delta
  /// attribute/dictionary vectors, truncated to the MVCC row count) —
  /// without the fence, the size line may persist before the element
  /// line, so the trailing entries are garbage until the caller's fence.
  Status AppendUnfenced(const T& value) {
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + 1));
    T* slot = data() + desc_->size;
    *slot = value;
    region_->Flush(slot, sizeof(T));
    __atomic_store_n(&desc_->size, desc_->size + 1, __ATOMIC_RELEASE);
    region_->Flush(&desc_->size, sizeof(desc_->size));
    return Status::OK();
  }

  /// Appends `count` elements with a single range persist and one size
  /// bump. The bulk path used by merge and checkpoint loading.
  Status BulkAppend(const T* values, uint64_t count) {
    if (count == 0) return Status::OK();
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + count));
    std::memcpy(data() + desc_->size, values, count * sizeof(T));
    region_->Persist(data() + desc_->size, count * sizeof(T));
    region_->AtomicPersist64(&desc_->size, desc_->size + count);
    return Status::OK();
  }

  /// Appends `count` copies of `value` (e.g. kCidInfinity MVCC columns).
  Status AppendFill(const T& value, uint64_t count) {
    if (count == 0) return Status::OK();
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + count));
    T* base = data() + desc_->size;
    for (uint64_t i = 0; i < count; ++i) base[i] = value;
    region_->Persist(base, count * sizeof(T));
    region_->AtomicPersist64(&desc_->size, desc_->size + count);
    return Status::OK();
  }

  /// Pre-grows the buffer to hold at least `n` elements.
  Status Reserve(uint64_t n) { return EnsureCapacity(n); }

  /// Truncates the committed size (used by recovery rollback). Does not
  /// shrink the buffer.
  void TruncateTo(uint64_t n) {
    HYRISE_NV_DCHECK(n <= desc_->size, "truncate cannot grow");
    region_->AtomicPersist64(&desc_->size, n);
  }

 private:
  /// The slot fields are atomic too: growth rewrites the inactive slot,
  /// which a reader that loaded an older version may still be reading.
  PVectorDesc::Slot ActiveSlot() const {
    const uint64_t version = std::atomic_ref<uint64_t>(desc_->version).load(
        std::memory_order_acquire);
    PVectorDesc::Slot& slot = desc_->slots[version & 1];
    return {std::atomic_ref<uint64_t>(slot.data).load(
                std::memory_order_relaxed),
            std::atomic_ref<uint64_t>(slot.capacity)
                .load(std::memory_order_relaxed)};
  }

  Status EnsureCapacity(uint64_t needed) {
    const PVectorDesc::Slot active = ActiveSlot();
    if (needed <= active.capacity) return Status::OK();
    uint64_t new_cap = active.capacity == 0 ? 16 : active.capacity * 2;
    while (new_cap < needed) new_cap *= 2;

    IntentHandle intent;
    auto alloc_result =
        alloc_->AllocWithIntent(new_cap * sizeof(T), &intent);
    if (!alloc_result.ok()) return alloc_result.status();
    const uint64_t new_data = alloc_result.ValueUnsafe();

    T* new_buf = reinterpret_cast<T*>(region_->base() + new_data);
    const uint64_t old_data = active.data;
    if (desc_->size > 0) {
      std::memcpy(new_buf, region_->base() + old_data,
                  desc_->size * sizeof(T));
      region_->Persist(new_buf, desc_->size * sizeof(T));
    }
    // Retire the intent before the publish: a crash in between leaks the
    // new buffer, whereas the other order would let allocator recovery
    // free a published one. Then publish through the inactive slot and
    // flip the version, the single atomic commit point.
    alloc_->CommitIntent(intent);
    auto& inactive = desc_->slots[(desc_->version + 1) & 1];
    std::atomic_ref<uint64_t>(inactive.data)
        .store(new_data, std::memory_order_relaxed);
    std::atomic_ref<uint64_t>(inactive.capacity)
        .store(new_cap, std::memory_order_relaxed);
    region_->Persist(&inactive, sizeof(inactive));
    region_->AtomicPersist64(&desc_->version, desc_->version + 1);
    if (old_data != 0) {
      // Best-effort: a crash exactly here leaks the old buffer.
      (void)alloc_->Free(old_data);
    }
    return Status::OK();
  }

  nvm::PmemRegion* region_ = nullptr;
  PAllocator* alloc_ = nullptr;
  PVectorDesc* desc_ = nullptr;
};

}  // namespace hyrise_nv::alloc

#endif  // HYRISE_NV_ALLOC_PVECTOR_H_
