#include "txn/commit_table.h"

#include <algorithm>
#include <cstring>

namespace hyrise_nv::txn {

Result<std::unique_ptr<CommitTable>> CommitTable::Format(
    alloc::PHeap& heap) {
  alloc::IntentHandle intent;
  auto off_result =
      heap.allocator().AllocWithIntent(sizeof(PTxnStateBlock), &intent);
  if (!off_result.ok()) return off_result.status();
  auto* block = heap.Resolve<PTxnStateBlock>(*off_result);
  std::memset(block, 0, sizeof(PTxnStateBlock));
  block->commit_watermark = 0;
  block->tid_block = 1;  // TID 0 is kTidNone
  block->cid_block = 1;  // CID 0 means "before everything"
  heap.region().Persist(block, sizeof(PTxnStateBlock));
  HYRISE_NV_RETURN_NOT_OK(heap.SetRoot(kTxnStateRootName, *off_result));
  heap.allocator().CommitIntent(intent);

  auto table = std::unique_ptr<CommitTable>(new CommitTable(heap));
  table->block_ = block;
  return table;
}

Result<std::unique_ptr<CommitTable>> CommitTable::Attach(
    alloc::PHeap& heap) {
  auto root_result = heap.GetRoot(kTxnStateRootName);
  if (!root_result.ok()) return root_result.status();
  auto table = std::unique_ptr<CommitTable>(new CommitTable(heap));
  table->block_ = heap.Resolve<PTxnStateBlock>(*root_result);
  if (table->block_->tid_block == 0 || table->block_->cid_block == 0) {
    return Status::Corruption("transaction state block corrupt");
  }
  // Crashed commits hold their slots until recovery rolls them forward
  // and releases them; don't hand those slots to new committers.
  for (uint64_t i = 0; i < kCommitSlots; ++i) {
    if (table->block_->slots[i].state != PCommitSlot::kFree) {
      table->claimed_ |= uint64_t{1} << i;
    }
  }
  return table;
}

void CommitTable::AdvanceWatermark(storage::Cid cid) {
  HYRISE_NV_DCHECK(cid >= block_->commit_watermark,
                   "watermark must be monotone");
  heap_->region().AtomicPersist64(&block_->commit_watermark, cid);
}

Result<storage::Tid> CommitTable::ClaimTidBlock() {
  std::lock_guard<std::mutex> guard(mutex_);
  const storage::Tid first = block_->tid_block;
  if (first + kTidBlockSize < first) {
    return Status::OutOfMemory("TID space exhausted");
  }
  heap_->region().AtomicPersist64(&block_->tid_block,
                                  first + kTidBlockSize);
  return first;
}

Result<storage::Cid> CommitTable::ClaimCidBlock() {
  std::lock_guard<std::mutex> guard(mutex_);
  const storage::Cid first = block_->cid_block;
  if (first + kTidBlockSize < first) {
    return Status::OutOfMemory("CID space exhausted");
  }
  heap_->region().AtomicPersist64(&block_->cid_block,
                                  first + kTidBlockSize);
  return first;
}

Result<PCommitSlot*> CommitTable::AcquireSlot(
    const std::vector<TouchEntry>& touches) {
  uint64_t idx = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    slot_cv_.wait(lock, [&] { return claimed_ != ~uint64_t{0}; });
    idx = static_cast<uint64_t>(__builtin_ctzll(~claimed_));
    claimed_ |= uint64_t{1} << idx;
  }
  PCommitSlot* slot = &block_->slots[idx];

  // Grow the slot's touch buffer if this commit needs more room. The
  // slot is kFree here, so the buffer swap is not recovery-visible. The
  // intent is retired before the slot references the new buffer: a crash
  // in between leaks it, whereas the other order would let allocator
  // recovery free a buffer the slot names. The allocator is internally
  // synchronised, so concurrent growers are fine.
  if (touches.size() > slot->touch_capacity) {
    const uint64_t new_capacity =
        std::max<uint64_t>(touches.size() * 2, 64);
    alloc::IntentHandle intent;
    auto off_result = heap_->allocator().AllocWithIntent(
        new_capacity * sizeof(TouchEntry), &intent);
    if (!off_result.ok()) {
      ReleaseSlot(slot);
      return off_result.status();
    }
    const uint64_t old_off = slot->touch_off;
    heap_->allocator().CommitIntent(intent);
    slot->touch_off = *off_result;
    slot->touch_capacity = new_capacity;
    heap_->region().Persist(slot, sizeof(PCommitSlot));
    if (old_off != 0) {
      (void)heap_->allocator().Free(old_off);
    }
  }

  // Persist the touch list + count while the slot is still invisible.
  if (!touches.empty()) {
    std::memcpy(heap_->region().base() + slot->touch_off, touches.data(),
                touches.size() * sizeof(TouchEntry));
    heap_->region().Persist(heap_->region().base() + slot->touch_off,
                            touches.size() * sizeof(TouchEntry));
  }
  slot->touch_count = touches.size();
  return slot;
}

void CommitTable::SealSlot(PCommitSlot* slot, storage::Cid cid) {
  // Touch list is already durable (AcquireSlot); persist the header with
  // the CID, then flip the state. Recovery sees all-or-nothing.
  slot->cid = cid;
  heap_->region().Persist(slot, sizeof(PCommitSlot));
  heap_->region().AtomicPersist64(&slot->state, PCommitSlot::kCommitting);
}

void CommitTable::SealSlotPrepared(PCommitSlot* slot, storage::Tid tid,
                                   uint64_t gtid) {
  // Same all-or-nothing discipline as SealSlot: the touch list is durable
  // already, so persist the header (tid + gtid, cid stays 0), then flip
  // the state last. A crash before the flip leaves the slot kFree and the
  // prepare never happened; after it, the transaction is in-doubt.
  slot->cid = 0;
  slot->tid = tid;
  slot->gtid = gtid;
  heap_->region().Persist(slot, sizeof(PCommitSlot));
  heap_->region().AtomicPersist64(&slot->state, PCommitSlot::kPrepared);
}

void CommitTable::ReleaseSlot(PCommitSlot* slot) {
  heap_->region().AtomicPersist64(&slot->state, PCommitSlot::kFree);
  const uint64_t idx = static_cast<uint64_t>(slot - block_->slots);
  {
    std::lock_guard<std::mutex> guard(mutex_);
    claimed_ &= ~(uint64_t{1} << idx);
  }
  slot_cv_.notify_one();
}

Result<std::vector<CommitTable::SealedSlot>> CommitTable::FindSealed() {
  std::vector<SealedSlot> result;
  for (auto& slot : block_->slots) {
    if (slot.state != PCommitSlot::kCommitting &&
        slot.state != PCommitSlot::kPrepared) {
      continue;
    }
    SealedSlot sealed{&slot, {}};
    if (slot.touch_count > 0) {
      if (slot.touch_off == 0 ||
          slot.touch_off + slot.touch_count * sizeof(TouchEntry) >
              heap_->region().size()) {
        return Status::Corruption("commit slot touch list out of range");
      }
      sealed.touches.resize(slot.touch_count);
      std::memcpy(sealed.touches.data(),
                  heap_->region().base() + slot.touch_off,
                  slot.touch_count * sizeof(TouchEntry));
    }
    result.push_back(std::move(sealed));
  }
  return result;
}

}  // namespace hyrise_nv::txn
