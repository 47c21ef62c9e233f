#ifndef HYRISE_NV_RECOVERY_RECOVERY_DRIVER_H_
#define HYRISE_NV_RECOVERY_RECOVERY_DRIVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc/pheap.h"
#include "recovery/log_index.h"

namespace hyrise_nv::recovery {

struct RecoveryDriverOptions {
  /// Rows restored per write_mutex hold by the background drain. Smaller
  /// chunks bound writer stalls; larger chunks drain faster.
  uint64_t drain_chunk_rows = 4096;
  /// Optional pause between drain chunks (0 = drain flat out). Tests use
  /// this to hold the degraded window open deterministically.
  uint64_t drain_pause_us = 0;
};

/// Live restoration progress, safe to read from any thread.
struct RecoveryProgress {
  uint64_t total_rows = 0;
  uint64_t restored_rows = 0;
  /// True once the drain finished and the engine flipped to fully
  /// recovered (deferred indexes built). Default-true so a progress value
  /// from a non-degraded database reads as "done".
  bool drained = true;
  double percent() const {
    if (total_rows == 0) return 100.0;
    return 100.0 * static_cast<double>(restored_rows) /
           static_cast<double>(total_rows);
  }
};

/// Drives serve-during-recovery (MM-DIRECT shape): owns the LogIndex
/// staged by AnalyzeLog, restores pending rows on demand when degraded
/// reads touch them, and runs a background drain thread that restores
/// the remainder, builds the deferred indexes (via the finalize
/// callback), and flips the engine to fully recovered.
///
/// Concurrency model: all restoration happens under the owning table's
/// write_mutex — the same lock Database::Insert holds — so a pending row
/// is restored exactly once no matter how many readers race for it
/// (per-key single-flight by mutual exclusion; losers observe the
/// restored flag and return immediately). Readers that skipped the mutex
/// take the all-restored fast path, whose acquire load pairs with the
/// release increment published after the last value write. The ready
/// flip is a release store after finalize, so post-flip readers see the
/// built indexes without further synchronisation.
///
/// Restores are never re-logged: the WAL already holds these records, so
/// a crash during degraded serving simply re-runs analysis on the next
/// open — the drain restart is idempotent by construction.
class RecoveryDriver {
 public:
  RecoveryDriver(alloc::PHeap& heap, LogIndex index,
                 RecoveryDriverOptions options);
  ~RecoveryDriver();

  RecoveryDriver(const RecoveryDriver&) = delete;
  RecoveryDriver& operator=(const RecoveryDriver&) = delete;

  /// Starts the background drain. `finalize` runs on the drain thread
  /// after the last row is restored and before the ready flip (the
  /// Database uses it to build deferred indexes).
  void StartDrain(std::function<Status()> finalize);

  /// Stops the drain thread without completing it (Close / destruction).
  /// Safe to call repeatedly; a stopped drain leaves the engine degraded.
  void StopDrain();

  bool serving_degraded() const {
    return !ready_.load(std::memory_order_acquire);
  }

  RecoveryProgress progress() const;

  /// Restores every pending row whose `column` value equals `value`
  /// (per-key index hit) or the whole table when `column` has no key
  /// map. No-op once the table is fully restored.
  Status PrepareScanEqual(storage::Table* table, size_t column,
                          const storage::Value& value);

  /// Range analogue of PrepareScanEqual: restores pending rows whose key
  /// lies in [lo, hi].
  Status PrepareScanRange(storage::Table* table, size_t column,
                          const storage::Value& lo,
                          const storage::Value& hi);

  /// Restores every pending row of `table` (non-key-column scans,
  /// tests).
  Status RestoreTable(storage::Table* table);

 private:
  struct TableState {
    TablePending pending;
    /// Per key column: value -> pending ordinals, ordered so range scans
    /// can walk [lo, hi]. Built for every indexed column (column 0 when
    /// the table has none), so degraded point and range scans restore
    /// only the rows they touch. Scans on other columns fall back to
    /// restoring the whole table.
    std::unordered_map<uint32_t,
                       std::map<storage::Value, std::vector<uint32_t>>>
        key_maps;
    std::unique_ptr<std::atomic<uint8_t>[]> restored;
    std::atomic<uint64_t> restored_count{0};
  };

  TableState* Find(storage::Table* table);
  Status RestoreRowLocked(TableState& state, uint32_t ordinal,
                          bool on_demand);
  Status RestoreAllRowsLocked(TableState& state, bool on_demand);
  void DrainLoop();
  void PublishProgressGauge();

  alloc::PHeap* heap_;
  RecoveryDriverOptions options_;
  std::vector<std::unique_ptr<TableState>> states_;
  std::unordered_map<storage::Table*, TableState*> by_table_;
  uint64_t total_rows_ = 0;
  std::atomic<uint64_t> restored_rows_{0};
  std::atomic<uint64_t> drain_restored_rows_{0};
  std::atomic<bool> ready_{false};
  std::atomic<bool> stop_{false};
  std::function<Status()> finalize_;
  std::thread drain_thread_;
};

}  // namespace hyrise_nv::recovery

#endif  // HYRISE_NV_RECOVERY_RECOVERY_DRIVER_H_
