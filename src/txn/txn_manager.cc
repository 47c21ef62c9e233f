#include "txn/txn_manager.h"

#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"
#include "storage/mvcc.h"

namespace hyrise_nv::txn {

TxnManager::TxnManager(alloc::PHeap& heap,
                       std::unique_ptr<CommitTable> commit_table)
    : heap_(&heap), commit_table_(std::move(commit_table)) {}

Result<std::unique_ptr<TxnManager>> TxnManager::Format(alloc::PHeap& heap) {
  auto table_result = CommitTable::Format(heap);
  if (!table_result.ok()) return table_result.status();
  return std::make_unique<TxnManager>(heap,
                                      std::move(table_result).ValueUnsafe());
}

Result<std::unique_ptr<TxnManager>> TxnManager::Attach(alloc::PHeap& heap) {
  auto table_result = CommitTable::Attach(heap);
  if (!table_result.ok()) return table_result.status();
  return std::make_unique<TxnManager>(heap,
                                      std::move(table_result).ValueUnsafe());
}

Result<Transaction> TxnManager::Begin() {
  auto tid_result =
      tid_alloc_.Alloc([this] { return commit_table_->ClaimTidBlock(); });
  if (!tid_result.ok()) return tid_result.status();
  const storage::Tid tid = *tid_result;
  auto ctx = std::make_shared<TxnContext>();
  ctx->tid = tid;
  ctx->snapshot = commit_table_->watermark();
  active_.Insert(tid, ctx);
  Transaction tx(std::move(ctx));
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& begin_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.begin.count");
  begin_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnBegin, tid, tx.snapshot());
  }
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every != 0 &&
      sample_counter_.fetch_add(1, std::memory_order_relaxed) % every ==
          0) {
    tx.MarkSampled(obs::FastClock::NowTicks());
  }
#endif
  return tx;
}

bool TxnManager::IsActive(storage::Tid tid) const {
  if (active_.Contains(tid)) return true;
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  return prepared_tids_.count(tid) > 0;
}

size_t TxnManager::ActiveCount() const { return active_.Count(); }

size_t TxnManager::PreparedCount() const {
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  return prepared_.size();
}

std::vector<uint64_t> TxnManager::InDoubtGtids() const {
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  std::vector<uint64_t> gtids;
  gtids.reserve(prepared_.size());
  for (const auto& [gtid, ctx] : prepared_) gtids.push_back(gtid);
  return gtids;
}

size_t TxnManager::AbortAllActive() {
  size_t aborted = 0;
  while (true) {
    std::shared_ptr<TxnContext> ctx = active_.PeekAny();
    if (ctx == nullptr) break;
    Transaction tx(ctx);
    Status status = Abort(tx);
    if (status.ok()) {
      ++aborted;
      continue;
    }
    HYRISE_NV_LOG(kWarn) << "forced abort of tid " << ctx->tid
                         << " failed: " << status.ToString();
    // Guarantee progress: drop the registry entry even when the abort
    // path failed, or this loop would spin on the same transaction.
    active_.Erase(ctx->tid);
  }
  if (aborted > 0) {
    HYRISE_NV_LOG(kInfo) << "force-aborted " << aborted
                         << " still-active transaction(s)";
  }
  return aborted;
}

void TxnManager::StampWrites(const std::vector<Write>& writes,
                             storage::Cid cid) {
  // CLWB batching: flush every stamped entry, then a single fence. The
  // ordered publish (the caller's next step) is what makes the commit
  // visible, so intra-batch ordering is irrelevant — only "all stamps
  // before the watermark covers cid" matters, which the fence plus the
  // publish queue guarantee.
  auto& region = heap_->region();
  for (const Write& write : writes) {
    storage::MvccEntry* entry = write.table->mvcc(write.loc);
    if (write.invalidate) {
      __atomic_store_n(&entry->end, cid, __ATOMIC_RELEASE);
    } else {
      __atomic_store_n(&entry->begin, cid, __ATOMIC_RELEASE);
    }
    __atomic_store_n(&entry->tid, storage::kTidNone, __ATOMIC_RELEASE);
    region.Flush(entry, sizeof(*entry));
  }
  region.Fence();
}

Result<storage::Cid> TxnManager::AllocCid() {
  uint64_t abandoned = IdAllocator::kNone;
  auto cid_result = cid_alloc_.Alloc(
      [this]() -> Result<uint64_t> {
        auto block_result = commit_table_->ClaimCidBlock();
        if (block_result.ok() && !publisher_.primed()) {
          // First block of this process: the lowest CID we will ever
          // issue is the publisher's initial frontier.
          publisher_.Prime(*block_result);
        }
        return block_result;
      },
      &abandoned);
  if (!cid_result.ok() && abandoned != IdAllocator::kNone) {
    // The failed refill consumed a CID nobody will ever stamp; retire it
    // so the dense publish queue doesn't wait for it forever.
    publisher_.Skip(abandoned, *commit_table_, heap_->blackbox());
  }
  return cid_result;
}

Status TxnManager::Commit(Transaction& tx) {
  if (!tx.active()) {
    return Status::InvalidArgument("commit of non-active transaction");
  }
  if (tx.read_only()) {
    tx.set_state(TxnState::kCommitted);
    active_.Erase(tx.tid());
#if HYRISE_NV_METRICS_ENABLED
    // Read-only commits skip the durable pipeline but still count: a
    // served read workload must show up in txn.commit.count and the
    // flight recorder (cid 0 = nothing published).
    static obs::Counter& commit_count =
        obs::MetricsRegistry::Instance().GetCounter("txn.commit.count");
    commit_count.Inc();
    static obs::Counter& read_only_count =
        obs::MetricsRegistry::Instance().GetCounter(
            "txn.commit.read_only");
    read_only_count.Inc();
    if (obs::BlackboxWriter* bb = heap_->blackbox()) {
      bb->Record(obs::BlackboxEventType::kTxnCommit, tx.tid(), 0, 0, 0);
    }
#endif
    return Status::OK();
  }
  const uint64_t start_ticks =
      HYRISE_NV_METRICS_ENABLED ? obs::FastClock::NowTicks() : 0;

  // Stage 1 — acquire a commit slot (may block when all kCommitSlots are
  // held). Ordering note: the slot is acquired *before* the CID so that
  // every issued CID is backed by a slot-holding committer that can make
  // progress; the reverse order can deadlock (64 slot holders blocked in
  // the publish queue on a predecessor CID whose owner is still waiting
  // for a slot).
  auto slot_result = AcquireCommitSlot(tx.writes());
  if (!slot_result.ok()) return slot_result.status();
  return CommitFromSlot(tx, *slot_result, start_ticks);
}

Result<PCommitSlot*> TxnManager::AcquireCommitSlot(
    const std::vector<Write>& writes) {
  std::vector<TouchEntry> touches;
  touches.reserve(writes.size());
  for (const Write& write : writes) {
    touches.push_back(TouchEntry::Make(write.table->id(), write.loc,
                                       write.invalidate));
  }
  return commit_table_->AcquireSlot(touches);
}

Status TxnManager::CommitFromSlot(Transaction& tx, PCommitSlot* slot,
                                  uint64_t start_ticks) {
  // A prepared transaction's slot is sealed kPrepared and stays its own
  // until the slot is released at stage 7: no failure below may free it.
  const bool prepared = tx.state() == TxnState::kPrepared;
#if HYRISE_NV_METRICS_ENABLED
  const bool sampled = tx.sampled();
  uint64_t write_set_end_ticks = 0;  // after the commit-slot seal
  uint64_t persist_end_ticks = 0;    // after hook + row stamping
#endif

  // Stage 2 — draw the CID (lock-free fast path).
  auto cid_result = AllocCid();
  if (!cid_result.ok()) {
    if (!prepared) commit_table_->ReleaseSlot(slot);
    return cid_result.status();
  }
  const storage::Cid cid = *cid_result;

  // Stage 3 — seal the slot: persist the CID and flip to kCommitting
  // (from kFree, or from kPrepared for a decide). Durability point; from
  // here a crash rolls this commit forward, and a prepared slot can never
  // resurrect as in-doubt again.
  commit_table_->SealSlot(slot, cid);
#if HYRISE_NV_METRICS_ENABLED
  if (sampled) write_set_end_ticks = obs::FastClock::NowTicks();
#endif

  // Stage 4 — secondary durability hook (WAL engines append their commit
  // record and join a group fsync here, before any stamp is visible).
  if (hook_ != nullptr) {
#if HYRISE_NV_METRICS_ENABLED
    const uint64_t hook_start_ticks = obs::FastClock::NowTicks();
#endif
    Status hook_status = hook_->OnCommit(cid, tx);
#if HYRISE_NV_METRICS_ENABLED
    tx.set_wal_sync_ns(obs::FastClock::TicksToNanos(static_cast<int64_t>(
        obs::FastClock::NowTicks() - hook_start_ticks)));
#endif
    if (!hook_status.ok()) {
      // Take the slot out of kCommitting *before* retiring the CID: once
      // the publish queue passes `cid` the watermark may advance over it,
      // and a slot still in kCommitting state at a crash would roll this
      // failed commit forward. A commit frees its slot; a decide re-seals
      // it kPrepared, because the transaction is still in doubt (in WAL
      // mode the log holds its prepare record and no decision), so a
      // coordinator retry finds it.
      if (prepared) {
        commit_table_->SealSlotPrepared(slot, tx.tid(), tx.context()->gtid);
      } else {
        commit_table_->ReleaseSlot(slot);
      }
      publisher_.Skip(cid, *commit_table_, heap_->blackbox());
      return hook_status;
    }
  }

  // Stage 5 — stamp all rows (runs fully in parallel with other
  // committers; stamps are per-row atomic releases).
  StampWrites(tx.writes(), cid);
#if HYRISE_NV_METRICS_ENABLED
  if (sampled) persist_end_ticks = obs::FastClock::NowTicks();
#endif

  // Stage 6 — ordered publish: the watermark advances strictly in CID
  // order, batched over runs of finished commits. Blocks until the
  // watermark covers `cid` (read-your-writes).
#if HYRISE_NV_METRICS_ENABLED
  const uint64_t publish_start_ticks = obs::FastClock::NowTicks();
#endif
  const uint64_t queue_wait_ns =
      publisher_.Publish(cid, *commit_table_, heap_->blackbox());
  tx.set_commit_queue_wait_ns(queue_wait_ns);
#if HYRISE_NV_METRICS_ENABLED
  tx.set_commit_publish_ns(obs::FastClock::TicksToNanos(static_cast<int64_t>(
      obs::FastClock::NowTicks() - publish_start_ticks)));
#endif

  // Stage 7 — release the slot and retire the transaction.
  commit_table_->ReleaseSlot(slot);
  tx.set_commit_cid(cid);
  tx.set_state(TxnState::kCommitted);
  active_.Erase(tx.tid());
#if HYRISE_NV_METRICS_ENABLED
  // Covers the full durable-commit path: slot acquisition (a decide
  // enters with its prepared slot), CID allocation, commit-slot persist,
  // the WAL hook (append + group sync), row stamping, and the ordered
  // publish — the engine-side tail latency a client observes.
  static obs::Counter& commit_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.commit.count");
  static obs::Histogram& commit_latency =
      obs::MetricsRegistry::Instance().GetHistogram("txn.commit.latency_ns");
  const uint64_t commit_end_ticks = obs::FastClock::NowTicks();
  const uint64_t latency_ns = obs::FastClock::TicksToNanos(
      static_cast<int64_t>(commit_end_ticks - start_ticks));
  commit_latency.Record(latency_ns);
  commit_count.Inc();
  obs::BlackboxWriter* bb = heap_->blackbox();
  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kTxnCommit, tx.tid(), cid,
               tx.writes().size(), latency_ns);
  }
  if (sampled) {
    RecordSampledTrace(tx, write_set_end_ticks, persist_end_ticks,
                       commit_end_ticks, bb);
  }
#else
  (void)start_ticks;
#endif
  return Status::OK();
}

void TxnManager::RecordSampledTrace(const Transaction& tx,
                                    uint64_t write_set_end,
                                    uint64_t persist_end,
                                    uint64_t commit_end,
                                    obs::BlackboxWriter* bb) {
#if HYRISE_NV_METRICS_ENABLED
  using obs::FastClock;
  // Phase spans of the commit pipeline: begin→write-set (slot acquire +
  // CID alloc + touch-list/commit-slot persist), persist (WAL hook + row
  // stamping), commit-publish (ordered publish + slot release) with its
  // queue-wait portion as a child span. Total runs from Begin().
  const uint64_t begin = tx.begin_ticks();
  const uint64_t total_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(commit_end - begin));
  const uint64_t write_set_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(write_set_end - begin));
  const uint64_t persist_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(persist_end - write_set_end));
  const uint64_t publish_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(commit_end - persist_end));
  const uint64_t queue_wait_ns = tx.commit_queue_wait_ns();

  static obs::Histogram& h_write_set =
      obs::MetricsRegistry::Instance().GetHistogram(
          "txn.trace.write_set_ns");
  static obs::Histogram& h_persist =
      obs::MetricsRegistry::Instance().GetHistogram("txn.trace.persist_ns");
  static obs::Histogram& h_publish =
      obs::MetricsRegistry::Instance().GetHistogram("txn.trace.publish_ns");
  static obs::Histogram& h_total =
      obs::MetricsRegistry::Instance().GetHistogram("txn.trace.total_ns");
  h_write_set.Record(write_set_ns);
  h_persist.Record(persist_ns);
  h_publish.Record(publish_ns);
  h_total.Record(total_ns);

  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kTxnTrace, tx.tid(), write_set_ns,
               persist_ns, publish_ns, total_ns);
  }

  obs::SpanNode trace;
  trace.name = "txn_commit";
  trace.seconds = static_cast<double>(total_ns) / 1e9;
  obs::SpanNode child;
  child.name = "write_set";
  child.seconds = static_cast<double>(write_set_ns) / 1e9;
  trace.children.push_back(child);
  child.name = "persist";
  child.seconds = static_cast<double>(persist_ns) / 1e9;
  // The WAL hook (append + group fsync) dominates persist for log-based
  // engines; breaking it out lets a wire→txn→WAL trace blame the fsync.
  obs::SpanNode wal_child;
  wal_child.name = "wal_sync";
  wal_child.seconds = static_cast<double>(tx.wal_sync_ns()) / 1e9;
  child.children.push_back(std::move(wal_child));
  trace.children.push_back(child);
  child.children.clear();
  child.name = "commit_publish";
  child.seconds = static_cast<double>(publish_ns) / 1e9;
  obs::SpanNode queue_child;
  queue_child.name = "queue_wait";
  queue_child.seconds = static_cast<double>(queue_wait_ns) / 1e9;
  child.children.push_back(std::move(queue_child));
  trace.children.push_back(std::move(child));
  std::lock_guard<std::mutex> guard(trace_mutex_);
  last_trace_ = std::move(trace);
#else
  (void)tx;
  (void)write_set_end;
  (void)persist_end;
  (void)commit_end;
  (void)bb;
#endif
}

obs::SpanNode TxnManager::LastSampledTrace() const {
  std::lock_guard<std::mutex> guard(trace_mutex_);
  return last_trace_;
}

Status TxnManager::Abort(Transaction& tx) {
  if (!tx.active()) {
    return Status::InvalidArgument("abort of non-active transaction");
  }
  return RollBack(tx);
}

Status TxnManager::RollBack(Transaction& tx) {
  auto& region = heap_->region();
  for (const Write& write : tx.writes()) {
    storage::MvccEntry* entry = write.table->mvcc(write.loc);
    if (write.invalidate) {
      // Release the delete claim; any self-delete marker on an own insert
      // stays (the insert itself is dropped below). Only a claim still
      // held is released: a crash inside an earlier rollback of this
      // in-doubt transaction may have released it already, and another
      // writer may have claimed the row since.
      if (entry->begin != storage::kCidInfinity &&
          __atomic_load_n(&entry->tid, __ATOMIC_ACQUIRE) == tx.tid()) {
        storage::ReleaseClaim(region, entry, tx.tid());
      }
    } else {
      // Own insert: stays begin = ∞ forever (invisible garbage retired at
      // merge); release the tid so nothing mistakes it for in-flight.
      region.AtomicPersist64(&entry->tid, storage::kTidNone);
    }
  }
  if (hook_ != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(hook_->OnAbort(tx));
  }
  // A prepared transaction frees its slot only after its claims are
  // released: a crash before this point leaves it in doubt.
  if (PCommitSlot* slot = std::exchange(tx.context()->prepared_slot,
                                        nullptr)) {
    commit_table_->ReleaseSlot(slot);
  }
  tx.set_state(TxnState::kAborted);
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& abort_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.abort.count");
  abort_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnAbort, tx.tid(),
               tx.writes().size());
  }
#endif
  active_.Erase(tx.tid());
  return Status::OK();
}

Status TxnManager::Prepare(Transaction& tx, uint64_t gtid) {
  if (!tx.active()) {
    return Status::InvalidArgument("prepare of non-active transaction");
  }
  {
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    if (prepared_.count(gtid) > 0) {
      return Status::AlreadyExists("gtid " + std::to_string(gtid) +
                                   " already prepared");
    }
  }

  PCommitSlot* slot = nullptr;
  if (!tx.read_only()) {
    // Same slot-before-seal discipline as Commit stages 1+3, but the seal
    // carries (tid, gtid) instead of a CID: the durability point of the
    // prepare vote. No CID exists yet — visibility stays untouched.
    auto slot_result = AcquireCommitSlot(tx.writes());
    if (!slot_result.ok()) return slot_result.status();
    slot = *slot_result;
    commit_table_->SealSlotPrepared(slot, tx.tid(), gtid);

    if (hook_ != nullptr) {
      Status hook_status = hook_->OnPrepare(gtid, tx);
      if (!hook_status.ok()) {
        // Unwind: the slot goes back to kFree, the transaction stays
        // active, and the caller aborts it (a half-written WAL prepare
        // record without a decide resolves to presumed abort on replay).
        commit_table_->ReleaseSlot(slot);
        return hook_status;
      }
    }
  }

  // Register as prepared *before* leaving the active registry so IsActive
  // never has a gap — a gap would let a concurrent writer steal this
  // transaction's row claims mid-handoff.
  std::shared_ptr<TxnContext> ctx = tx.context();
  ctx->gtid = gtid;
  ctx->prepared_slot = slot;
  RegisterPrepared(ctx);
  tx.set_state(TxnState::kPrepared);
  active_.Erase(ctx->tid);
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& prepare_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.prepare.count");
  prepare_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnPrepare, ctx->tid, gtid,
               ctx->writes.size());
  }
#endif
  return Status::OK();
}

Status TxnManager::Decide(uint64_t gtid, bool commit) {
  std::shared_ptr<TxnContext> ctx;
  {
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    auto it = prepared_.find(gtid);
    if (it == prepared_.end()) {
      // Unknown gtid: already decided here (possibly by a concurrent
      // retry that still holds the ctx) or never prepared. Either way OK
      // — the coordinator never flips a logged decision, so answering
      // success to a duplicate or stale decide is always safe.
      return Status::OK();
    }
    ctx = it->second;
    prepared_.erase(it);  // this call owns the decision now
  }
  Transaction tx(ctx);
  Status status;
  if (!commit) {
    status = RollBack(tx);
  } else if (tx.read_only()) {
    tx.set_state(TxnState::kCommitted);
  } else {
    // Commit from stage 2 on, with the slot the prepare sealed.
    HYRISE_NV_DCHECK(ctx->prepared_slot != nullptr,
                     "a prepared write set holds a sealed slot");
    status = CommitFromSlot(
        tx, ctx->prepared_slot,
        HYRISE_NV_METRICS_ENABLED ? obs::FastClock::NowTicks() : 0);
  }
  if (!status.ok()) {
    // Put it back so a coordinator retry can try again.
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    prepared_.emplace(gtid, ctx);
    return status;
  }
  {
    // Drop the TID only after all effects landed (claims must look live
    // until stamped/released), and remember the gtid in the retired ring.
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    prepared_tids_.erase(ctx->tid);
    if (retired_gtids_.size() < kRetiredGtidRing) {
      retired_gtids_.push_back(gtid);
    } else {
      retired_gtids_[retired_cursor_] = gtid;
      retired_cursor_ = (retired_cursor_ + 1) % kRetiredGtidRing;
    }
  }
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& decide_commit_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.decide.commit");
  static obs::Counter& decide_abort_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.decide.abort");
  (commit ? decide_commit_count : decide_abort_count).Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnDecide, gtid, commit ? 1 : 0,
               ctx->commit_cid);
  }
#endif
  return Status::OK();
}

Status TxnManager::AdoptPrepared(std::shared_ptr<TxnContext> ctx) {
  HYRISE_NV_DCHECK(ctx->state == TxnState::kPrepared,
                   "adopted ctx must be prepared");
  if (!ctx->writes.empty()) {
    auto slot_result = AcquireCommitSlot(ctx->writes);
    if (!slot_result.ok()) return slot_result.status();
    commit_table_->SealSlotPrepared(*slot_result, ctx->tid, ctx->gtid);
    ctx->prepared_slot = *slot_result;
  }
  RegisterPrepared(std::move(ctx));
  return Status::OK();
}

void TxnManager::RegisterPrepared(std::shared_ptr<TxnContext> ctx) {
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  prepared_tids_.emplace(ctx->tid, ctx->gtid);
  prepared_.emplace(ctx->gtid, std::move(ctx));
}

Status TxnManager::RecoverCommitSlots(storage::Catalog& catalog) {
  auto sealed_result = commit_table_->FindSealed();
  if (!sealed_result.ok()) return sealed_result.status();
  if (sealed_result->empty()) return Status::OK();
  // Resolve table ids once: recovery cost stays O(tables + touches)
  // instead of O(tables × touches).
  std::unordered_map<uint64_t, storage::Table*> tables_by_id;
  tables_by_id.reserve(catalog.tables().size());
  for (const auto& t : catalog.tables()) {
    tables_by_id.emplace(t->id(), t.get());
  }
  for (CommitTable::SealedSlot& sealed : *sealed_result) {
    PCommitSlot* slot = sealed.slot;
    std::vector<Write> writes;
    writes.reserve(sealed.touches.size());
    for (const TouchEntry& touch : sealed.touches) {
      auto table_it = tables_by_id.find(touch.table_id);
      if (table_it == tables_by_id.end()) {
        return Status::Corruption("commit slot references table id " +
                                  std::to_string(touch.table_id));
      }
      storage::Table* table = table_it->second;
      const storage::RowLocation loc = touch.location();
      const uint64_t rows = loc.in_main ? table->main_row_count()
                                        : table->delta_row_count();
      if (loc.row >= rows) {
        return Status::Corruption("commit slot references bad row");
      }
      writes.push_back(Write{table, loc, touch.invalidate()});
    }
    if (slot->state == PCommitSlot::kCommitting) {
      // Roll forward with a live commit's stamping, then publish, then
      // free the slot: a crash anywhere before the release leaves the
      // slot kCommitting, and the next restart stamps again.
      HYRISE_NV_LOG(kInfo) << "rolling forward in-flight commit cid="
                           << slot->cid << " with " << writes.size()
                           << " touches";
      StampWrites(writes, slot->cid);
      if (slot->cid > commit_table_->watermark()) {
        commit_table_->AdvanceWatermark(slot->cid);
      }
      commit_table_->ReleaseSlot(slot);
      continue;
    }
    // kPrepared: in doubt until the coordinator decides. The slot stays
    // held, and the decide commits or frees it.
    auto ctx = std::make_shared<TxnContext>();
    ctx->tid = slot->tid;
    ctx->gtid = slot->gtid;
    ctx->state = TxnState::kPrepared;
    ctx->prepared_slot = slot;
    ctx->writes = std::move(writes);
    HYRISE_NV_LOG(kInfo) << "adopted in-doubt transaction gtid="
                         << ctx->gtid << " tid=" << ctx->tid << " with "
                         << ctx->writes.size() << " writes";
    RegisterPrepared(std::move(ctx));
  }
  return Status::OK();
}

}  // namespace hyrise_nv::txn
