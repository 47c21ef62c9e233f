#ifndef HYRISE_NV_INDEX_PSKIPLIST_H_
#define HYRISE_NV_INDEX_PSKIPLIST_H_

#include <cstdint>

#include "alloc/pheap.h"
#include "alloc/pvector.h"
#include "common/random.h"
#include "common/status.h"
#include "storage/layout.h"
#include "storage/types.h"

namespace hyrise_nv::index {

using storage::kSkipListMaxHeight;
using storage::PSkipNode;

/// Ordered persistent index over one delta column (the paper's
/// "multi-version tree structure on NVM": ordered, durable in place,
/// usable immediately after restart with no rebuild).
///
/// Crash consistency: a node is fully written and persisted before it is
/// published by a single atomic persist of the level-0 predecessor link.
/// Upper-level links follow best-effort — a crash may leave a node
/// reachable only at lower levels, which affects search constants, never
/// correctness (searches always terminate through level 0).
class PSkipList {
 public:
  PSkipList() = default;
  PSkipList(storage::DataType type, alloc::PHeap* heap,
            storage::PIndexMeta* meta);

  /// Formats a fresh skip list (head node + empty blob) into the inactive
  /// slot `meta`. The caller may fill it and then activates the slot.
  static Status Format(alloc::PHeap& heap, storage::PIndexMeta* meta,
                       uint64_t column);

  /// Validates persistent state after restart.
  Status Attach();

  /// Indexes `row` under `value`.
  Status Insert(const storage::Value& value, uint64_t row);

  /// Calls `fn(row)` for every entry with lo <= key <= hi, in key order.
  template <typename Fn>
  void ForEachInRange(const storage::Value& lo, const storage::Value& hi,
                      Fn&& fn) const {
    const uint64_t lo_key = PeekKey(lo);
    uint64_t node_off = FindFirstAtLeast(lo_key, lo);
    while (node_off != 0) {
      const PSkipNode* node = NodeAt(node_off);
      if (CompareKeyToValue(node->key, hi) > 0) break;
      fn(node->row);
      node_off = node->next[0];
    }
  }

  /// Calls `fn(row)` for every entry equal to `value`.
  template <typename Fn>
  void ForEachEqual(const storage::Value& value, Fn&& fn) const {
    ForEachInRange(value, value, fn);
  }

  uint64_t entry_count() const { return entry_count_; }
  uint64_t column() const { return meta_->column; }

 private:
  PSkipNode* NodeAt(uint64_t offset) const {
    return reinterpret_cast<PSkipNode*>(heap_->region().base() + offset);
  }

  /// Three-way compare of a stored key against a query value.
  int CompareKeyToValue(uint64_t key, const storage::Value& value) const;

  /// For numeric columns, the encoded query key (unused for strings).
  uint64_t PeekKey(const storage::Value& value) const;

  /// Offset of the first node with key >= value (0 if none).
  uint64_t FindFirstAtLeast(uint64_t key_bits,
                            const storage::Value& value) const;

  storage::DataType type_ = storage::DataType::kInt64;
  alloc::PHeap* heap_ = nullptr;
  storage::PIndexMeta* meta_ = nullptr;
  alloc::PVector<char> blob_;  // string keys (meta->entries)
  Rng rng_{0x5EEDull};
  uint64_t entry_count_ = 0;  // volatile; recounted on Attach
};

}  // namespace hyrise_nv::index

#endif  // HYRISE_NV_INDEX_PSKIPLIST_H_
