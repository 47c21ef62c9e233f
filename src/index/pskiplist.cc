#include "index/pskiplist.h"

#include <cstring>

#include "storage/dictionary.h"

namespace hyrise_nv::index {

using storage::DataType;
using storage::Value;

PSkipList::PSkipList(DataType type, alloc::PHeap* heap,
                     storage::PIndexMeta* meta)
    : type_(type),
      heap_(heap),
      meta_(meta),
      blob_(&heap->region(), &heap->allocator(), &meta->entries) {}

Status PSkipList::Format(alloc::PHeap& heap, storage::PIndexMeta* meta,
                         uint64_t column) {
  if (meta->state != 0) {
    return Status::AlreadyExists("index slot already active");
  }
  meta->kind = storage::kIndexSkipList;
  meta->column = column;
  meta->linked = 0;
  alloc::PVector<char>::Format(heap.region(), &meta->entries);

  alloc::IntentHandle intent;
  auto head_result =
      heap.allocator().AllocWithIntent(sizeof(PSkipNode), &intent);
  if (!head_result.ok()) return head_result.status();
  auto* head = heap.Resolve<PSkipNode>(*head_result);
  std::memset(head, 0, sizeof(PSkipNode));
  head->height = kSkipListMaxHeight;
  heap.region().Persist(head, sizeof(PSkipNode));
  // Retire the intent before anything can publish the head: a crash
  // before the slot is activated then only leaks it.
  heap.allocator().CommitIntent(intent);
  meta->head_off = *head_result;
  heap.region().Persist(meta, sizeof(storage::PIndexMeta));
  return Status::OK();
}

Status PSkipList::Attach() {
  if (meta_->state != 1 || meta_->kind != storage::kIndexSkipList) {
    return Status::InvalidArgument("not an active skip-list slot");
  }
  if (meta_->head_off == 0 ||
      meta_->head_off + sizeof(PSkipNode) > heap_->region().size()) {
    return Status::Corruption("skip-list head out of range");
  }
  HYRISE_NV_RETURN_NOT_OK(blob_.Validate());
  const PSkipNode* head = NodeAt(meta_->head_off);
  if (head->height != kSkipListMaxHeight) {
    return Status::Corruption("skip-list head corrupt");
  }
  // Recount entries (cheap: one level-0 walk over the delta-sized list)
  // and bound-check every node on the way.
  entry_count_ = 0;
  uint64_t off = head->next[0];
  while (off != 0) {
    if (off + sizeof(PSkipNode) > heap_->region().size()) {
      return Status::Corruption("skip-list node out of range");
    }
    const PSkipNode* node = NodeAt(off);
    if (node->height == 0 || node->height > kSkipListMaxHeight) {
      return Status::Corruption("skip-list node height corrupt");
    }
    ++entry_count_;
    off = node->next[0];
  }
  return Status::OK();
}

int PSkipList::CompareKeyToValue(uint64_t key, const Value& value) const {
  if (type_ == DataType::kString) {
    const std::string_view stored = storage::BlobRead(blob_, key);
    return stored.compare(std::get<std::string>(value));
  }
  return storage::CompareNumericEncoded(
      type_, key, storage::EncodeNumeric(value, type_));
}

uint64_t PSkipList::PeekKey(const Value& value) const {
  return type_ == DataType::kString ? 0
                                    : storage::EncodeNumeric(value, type_);
}

uint64_t PSkipList::FindFirstAtLeast(uint64_t /*key_bits*/,
                                     const Value& value) const {
  const PSkipNode* node = NodeAt(meta_->head_off);
  for (int level = kSkipListMaxHeight - 1; level >= 0; --level) {
    uint64_t next_off = node->next[level];
    while (next_off != 0 &&
           CompareKeyToValue(NodeAt(next_off)->key, value) < 0) {
      node = NodeAt(next_off);
      next_off = node->next[level];
    }
  }
  return node->next[0];
}

Status PSkipList::Insert(const Value& value, uint64_t row) {
  // Encode the key (string keys go into the index's persistent blob).
  uint64_t key;
  if (type_ == DataType::kString) {
    auto off_result =
        storage::BlobAppend(blob_, std::get<std::string>(value));
    if (!off_result.ok()) return off_result.status();
    key = *off_result;
  } else {
    key = storage::EncodeNumeric(value, type_);
  }

  // Collect predecessors per level.
  uint64_t preds[kSkipListMaxHeight];
  PSkipNode* node = NodeAt(meta_->head_off);
  uint64_t node_off = meta_->head_off;
  for (int level = kSkipListMaxHeight - 1; level >= 0; --level) {
    uint64_t next_off = node->next[level];
    while (next_off != 0 &&
           CompareKeyToValue(NodeAt(next_off)->key, value) < 0) {
      node_off = next_off;
      node = NodeAt(node_off);
      next_off = node->next[level];
    }
    preds[level] = node_off;
  }

  // Random tower height (geometric, p = 1/2).
  uint32_t height = 1;
  while (height < kSkipListMaxHeight && (rng_.Next() & 1) != 0) ++height;

  // Write the node fully, persist it, then publish bottom-up. The
  // level-0 link is the durability point; upper links are best-effort.
  alloc::IntentHandle intent;
  auto alloc_result =
      heap_->allocator().AllocWithIntent(sizeof(PSkipNode), &intent);
  if (!alloc_result.ok()) return alloc_result.status();
  const uint64_t new_off = *alloc_result;
  auto* new_node = heap_->Resolve<PSkipNode>(new_off);
  std::memset(new_node, 0, sizeof(PSkipNode));
  new_node->key = key;
  new_node->row = row;
  new_node->height = height;
  for (uint32_t level = 0; level < height; ++level) {
    new_node->next[level] = NodeAt(preds[level])->next[level];
  }
  heap_->region().Persist(new_node, sizeof(PSkipNode));

  heap_->region().AtomicPersist64(&NodeAt(preds[0])->next[0], new_off);
  heap_->allocator().CommitIntent(intent);
  for (uint32_t level = 1; level < height; ++level) {
    heap_->region().AtomicPersist64(&NodeAt(preds[level])->next[level],
                                    new_off);
  }
  ++entry_count_;
  return Status::OK();
}

}  // namespace hyrise_nv::index
