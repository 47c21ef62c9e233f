#ifndef HYRISE_NV_TXN_COMMIT_TABLE_H_
#define HYRISE_NV_TXN_COMMIT_TABLE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "alloc/pheap.h"
#include "common/status.h"
#include "storage/types.h"

namespace hyrise_nv::txn {

/// Region root name of the persistent transaction state.
inline constexpr const char* kTxnStateRootName = "txn_state";

/// Number of commit slots (bounds concurrently *committing* transactions;
/// active transactions are unbounded).
constexpr uint64_t kCommitSlots = 64;

/// TIDs are claimed in persisted blocks of this size, so after a restart
/// the next block is untouched territory — no TID is ever reused and no
/// scan is needed. (One ingredient of O(1) recovery.)
constexpr uint64_t kTidBlockSize = 4096;

/// One persisted row touch of a committing transaction. Recovery rolls a
/// crashed commit *forward* from these (idempotent re-stamping).
struct TouchEntry {
  static constexpr uint64_t kInMainBit = uint64_t{1} << 63;
  static constexpr uint64_t kInvalidateBit = uint64_t{1} << 62;

  uint64_t table_id;
  uint64_t row_and_flags;

  static TouchEntry Make(uint64_t table_id, storage::RowLocation loc,
                         bool invalidate) {
    TouchEntry e;
    e.table_id = table_id;
    e.row_and_flags = loc.row | (loc.in_main ? kInMainBit : 0) |
                      (invalidate ? kInvalidateBit : 0);
    return e;
  }
  storage::RowLocation location() const {
    return {(row_and_flags & kInMainBit) != 0,
            row_and_flags & ~(kInMainBit | kInvalidateBit)};
  }
  bool invalidate() const { return (row_and_flags & kInvalidateBit) != 0; }
};

/// One on-NVM commit slot. `state` flips to kCommitting only after cid
/// and the touch list are durable; recovery completes any slot found in
/// that state. kPrepared is the two-phase-commit variant: the touch list
/// and gtid are durable but no CID exists yet — recovery neither rolls the
/// slot forward nor releases it; the transaction stays in-doubt until the
/// coordinator's decision (or presumed abort) arrives. The touch buffer is
/// owned by the slot and reused across commits (grown on demand), so the
/// commit path allocates nothing.
struct PCommitSlot {
  static constexpr uint64_t kFree = 0;
  static constexpr uint64_t kCommitting = 1;
  static constexpr uint64_t kPrepared = 2;

  uint64_t state;
  uint64_t cid;
  uint64_t touch_off;       // payload offset of the TouchEntry buffer
  uint64_t touch_count;     // entries of the current commit
  uint64_t touch_capacity;  // buffer capacity in entries
  uint64_t tid;             // owning TID (kPrepared slots; 0 otherwise)
  uint64_t gtid;            // coordinator's global txn id (kPrepared slots)
};

/// The on-NVM transaction state block (root "txn_state").
struct PTxnStateBlock {
  uint64_t commit_watermark;  // highest fully committed CID
  uint64_t tid_block;         // first TID of the next unclaimed block
  uint64_t cid_block;         // first CID of the next unclaimed block
  PCommitSlot slots[kCommitSlots];
  /// Seal tag over the fields above, written at clean shutdown
  /// (recovery/verify.h). 0 = unsealed.
  uint64_t block_crc;
};

/// Volatile handle over PTxnStateBlock: watermark, TID/CID block
/// allocation, commit slots, and enumeration of sealed slots for
/// restart.
///
/// Concurrency: slots are claimed through a volatile bitmask so multiple
/// committers hold distinct slots at once. The slot lifecycle is split in
/// three so only acquisition synchronises:
///
///   AcquireSlot(touches)  — blocks until a slot is free, claims it, and
///                           persists the touch list while the slot is
///                           still kFree (not yet recovery-visible);
///   SealSlot(slot, cid)   — lock-free (the caller owns the slot):
///                           persists the CID, then atomically flips the
///                           state to kCommitting. Durability point.
///   ReleaseSlot(slot)     — flips back to kFree and wakes one waiter.
class CommitTable {
 public:
  /// Allocates and formats the state block; registers the root.
  static Result<std::unique_ptr<CommitTable>> Format(alloc::PHeap& heap);

  /// Binds to an existing state block. Slots found sealed (kCommitting:
  /// crashed commits; kPrepared: in-doubt transactions) start out
  /// claimed; restart releases the first, a decide the second.
  static Result<std::unique_ptr<CommitTable>> Attach(alloc::PHeap& heap);

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(CommitTable);

  /// An acquire load that pairs with AdvanceWatermark's release store, so
  /// a reader that sees a CID also sees what was written before it.
  storage::Cid watermark() const {
    return std::atomic_ref<uint64_t>(block_->commit_watermark)
        .load(std::memory_order_acquire);
  }

  /// Publishes `cid` as fully committed (single atomic persist). Callers
  /// must externally order their advances (OrderedPublisher / recovery).
  void AdvanceWatermark(storage::Cid cid);

  /// Claims a fresh block of TIDs; returns its first TID. Persisted, so
  /// the block is never handed out again, even across crashes.
  Result<storage::Tid> ClaimTidBlock();

  /// Claims a fresh block of CIDs (same non-reuse guarantee). Commit CIDs
  /// are drawn from claimed blocks so stamps written by a crashed commit
  /// can never collide with CIDs issued after restart.
  Result<storage::Cid> ClaimCidBlock();

  /// Claims a free commit slot — blocking until one is available if all
  /// kCommitSlots are held — and persists the touch list into it. The
  /// slot stays kFree (invisible to recovery) until SealSlot.
  Result<PCommitSlot*> AcquireSlot(const std::vector<TouchEntry>& touches);

  /// Persists `cid` into the slot and flips it to kCommitting (in that
  /// persist order). After this returns the commit survives a crash.
  /// Lock-free: the slot is owned by the calling committer. Also the
  /// decide-commit step for a kPrepared slot (kPrepared → kCommitting).
  void SealSlot(PCommitSlot* slot, storage::Cid cid);

  /// Persists the owning tid + coordinator gtid into the slot and flips
  /// it to kPrepared (2PC prepare durability point on NVM). The slot then
  /// survives crashes as an in-doubt transaction until SealSlot (decide
  /// commit) or ReleaseSlot (decide abort).
  void SealSlotPrepared(PCommitSlot* slot, storage::Tid tid, uint64_t gtid);

  /// Returns the slot to the free pool (after publish, or on a failed
  /// commit) and wakes one AcquireSlot waiter.
  void ReleaseSlot(PCommitSlot* slot);

  /// A sealed slot found on NVM at restart: kCommitting (roll forward)
  /// or kPrepared (in doubt), with its persisted touch list.
  struct SealedSlot {
    PCommitSlot* slot;
    std::vector<TouchEntry> touches;
  };

  /// Every slot in kCommitting or kPrepared state (restart input). Attach
  /// already marked them claimed, so a prepared transaction's decide
  /// reuses its original slot.
  Result<std::vector<SealedSlot>> FindSealed();

  PTxnStateBlock* block() { return block_; }

 private:
  explicit CommitTable(alloc::PHeap& heap) : heap_(&heap) {}

  alloc::PHeap* heap_;
  PTxnStateBlock* block_ = nullptr;
  std::mutex mutex_;
  std::condition_variable slot_cv_;
  /// Volatile claim bitmask over block_->slots (bit i = slot i held by a
  /// live committer). Guarded by mutex_. Superset of the kCommitting
  /// slots; rebuilt from slot states at Attach.
  uint64_t claimed_ = 0;
};

}  // namespace hyrise_nv::txn

#endif  // HYRISE_NV_TXN_COMMIT_TABLE_H_
