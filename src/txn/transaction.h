#ifndef HYRISE_NV_TXN_TRANSACTION_H_
#define HYRISE_NV_TXN_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/table.h"
#include "storage/types.h"

namespace hyrise_nv::txn {

struct PCommitSlot;  // commit_table.h

/// One row touched by a transaction.
struct Write {
  storage::Table* table;
  storage::RowLocation loc;
  bool invalidate;  // false = inserted version, true = invalidated version
};

/// kPrepared is the two-phase-commit limbo: the write set is durably
/// sealed under a coordinator gtid, the transaction is no longer owned by
/// a session, and only a coordinator decision (or presumed abort) moves it
/// to kCommitted/kAborted.
enum class TxnState { kActive, kPrepared, kCommitted, kAborted };

/// Volatile per-transaction state. All durable effects live in the
/// tables' MVCC entries and the commit table; the context only tracks the
/// write set for commit stamping / abort rollback.
///
/// Shared between every Transaction handle for the same transaction and
/// the TxnManager's active registry — which is what lets the manager
/// abort transactions whose owners went away (a serving session whose
/// client died, or a Database::Close with work still open).
struct TxnContext {
  storage::Tid tid = storage::kTidNone;
  storage::Cid snapshot = 0;
  storage::Cid commit_cid = 0;
  TxnState state = TxnState::kActive;
  bool sampled = false;
  uint64_t begin_ticks = 0;
  /// Nanoseconds this commit spent in the ordered-publish queue waiting
  /// for predecessors (filled in by the commit path, for Commit and a
  /// commit decision alike; 0 when the commit drained its own batch
  /// without blocking).
  uint64_t commit_queue_wait_ns = 0;
  /// Commit-pipeline stage timings (filled in by the commit path so
  /// the serving layer can attribute request latency without re-timing
  /// the engine): the durability hook (WAL append + group fsync) and the
  /// ordered publish. Zero for read-only commits and hook-less engines.
  uint64_t wal_sync_ns = 0;
  uint64_t commit_publish_ns = 0;
  /// Coordinator-issued global transaction id (kPrepared state only).
  uint64_t gtid = 0;
  /// The kPrepared commit slot held across the prepared window, set by
  /// Prepare or by adoption at restart (from the image's slot, or sealed
  /// anew from the log). A commit decision seals this same slot
  /// kCommitting, so a restart never sees a stale prepared slot for a
  /// decided transaction. Null only for a read-only prepare.
  PCommitSlot* prepared_slot = nullptr;
  std::vector<Write> writes;
};

/// Handle to a transaction. Copies alias the same TxnContext, so a
/// Transaction can be passed around by value while the TxnManager keeps
/// its own reference for forced aborts. A default-constructed handle is
/// inactive and safe to query (tid() == kTidNone, active() == false).
class Transaction {
 public:
  Transaction() = default;
  explicit Transaction(std::shared_ptr<TxnContext> ctx)
      : ctx_(std::move(ctx)) {}

  bool valid() const { return ctx_ != nullptr; }
  const std::shared_ptr<TxnContext>& context() const { return ctx_; }

  storage::Tid tid() const {
    return ctx_ ? ctx_->tid : storage::kTidNone;
  }
  storage::Cid snapshot() const { return ctx_ ? ctx_->snapshot : 0; }
  TxnState state() const {
    return ctx_ ? ctx_->state : TxnState::kAborted;
  }
  bool active() const { return ctx_ && ctx_->state == TxnState::kActive; }

  const std::vector<Write>& writes() const {
    static const std::vector<Write> kEmpty;
    return ctx_ ? ctx_->writes : kEmpty;
  }
  bool read_only() const { return writes().empty(); }

  void RecordInsert(storage::Table* table, storage::RowLocation loc) {
    ctx_->writes.push_back(Write{table, loc, false});
  }
  void RecordInvalidate(storage::Table* table, storage::RowLocation loc) {
    ctx_->writes.push_back(Write{table, loc, true});
  }

  /// Set by the transaction manager on commit/abort.
  void set_state(TxnState state) { ctx_->state = state; }
  void set_commit_cid(storage::Cid cid) { ctx_->commit_cid = cid; }
  storage::Cid commit_cid() const { return ctx_ ? ctx_->commit_cid : 0; }
  void set_commit_queue_wait_ns(uint64_t ns) {
    ctx_->commit_queue_wait_ns = ns;
  }
  uint64_t commit_queue_wait_ns() const {
    return ctx_ ? ctx_->commit_queue_wait_ns : 0;
  }
  void set_wal_sync_ns(uint64_t ns) { ctx_->wal_sync_ns = ns; }
  uint64_t wal_sync_ns() const { return ctx_ ? ctx_->wal_sync_ns : 0; }
  void set_commit_publish_ns(uint64_t ns) { ctx_->commit_publish_ns = ns; }
  uint64_t commit_publish_ns() const {
    return ctx_ ? ctx_->commit_publish_ns : 0;
  }

  /// Marks this transaction as trace-sampled: the manager records a span
  /// tree of its commit phases (begin→write-set→persist→publish).
  void MarkSampled(uint64_t begin_ticks) {
    ctx_->sampled = true;
    ctx_->begin_ticks = begin_ticks;
  }
  bool sampled() const { return ctx_ && ctx_->sampled; }
  uint64_t begin_ticks() const { return ctx_ ? ctx_->begin_ticks : 0; }

 private:
  std::shared_ptr<TxnContext> ctx_;
};

}  // namespace hyrise_nv::txn

#endif  // HYRISE_NV_TXN_TRANSACTION_H_
