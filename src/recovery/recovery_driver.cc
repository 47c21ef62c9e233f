#include "recovery/recovery_driver.h"

#include <chrono>
#include <mutex>
#include <set>
#include <string>

#include "common/logging.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrise_nv::recovery {

RecoveryDriver::RecoveryDriver(alloc::PHeap& heap, LogIndex index,
                               RecoveryDriverOptions options)
    : heap_(&heap), options_(std::move(options)) {
  if (options_.drain_chunk_rows == 0) options_.drain_chunk_rows = 1;
  std::unordered_map<std::string, std::set<uint32_t>> key_columns;
  for (const auto& indexed : index.indexed_columns) {
    key_columns[indexed.table].insert(static_cast<uint32_t>(indexed.column));
  }
  states_.reserve(index.tables.size());
  for (TablePending& pending : index.tables) {
    auto state = std::make_unique<TableState>();
    state->pending = std::move(pending);
    const uint64_t n = state->pending.row_count;
    const storage::Table& table = *state->pending.table;
    const size_t columns = table.schema().num_columns();
    std::set<uint32_t>& cols = key_columns[table.name()];
    if (cols.empty()) cols.insert(0);
    for (uint32_t col : cols) {
      if (col >= columns) continue;
      auto& key_map = state->key_maps[col];
      const auto& dict = table.delta().column(col).dictionary();
      for (uint32_t ordinal = 0; ordinal < n; ++ordinal) {
        key_map[dict.GetValue(state->pending.ids[ordinal * columns + col])]
            .push_back(ordinal);
      }
    }
    // Value-initialised: every flag starts 0 (unrestored).
    state->restored = std::make_unique<std::atomic<uint8_t>[]>(n);
    total_rows_ += n;
    by_table_[state->pending.table] = state.get();
    states_.push_back(std::move(state));
  }
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kDegradedOpen, total_rows_,
               states_.size());
  }
  obs::MetricsRegistry::Instance()
      .GetGauge("recovery.pending.rows")
      .Set(static_cast<int64_t>(total_rows_));
  PublishProgressGauge();
}

RecoveryDriver::~RecoveryDriver() { StopDrain(); }

void RecoveryDriver::StartDrain(std::function<Status()> finalize) {
  finalize_ = std::move(finalize);
  drain_thread_ = std::thread(&RecoveryDriver::DrainLoop, this);
}

void RecoveryDriver::StopDrain() {
  stop_.store(true, std::memory_order_release);
  if (drain_thread_.joinable()) drain_thread_.join();
}

RecoveryProgress RecoveryDriver::progress() const {
  RecoveryProgress p;
  p.total_rows = total_rows_;
  p.restored_rows =
      std::min(restored_rows_.load(std::memory_order_relaxed), total_rows_);
  p.drained = !serving_degraded();
  return p;
}

RecoveryDriver::TableState* RecoveryDriver::Find(storage::Table* table) {
  auto it = by_table_.find(table);
  return it == by_table_.end() ? nullptr : it->second;
}

Status RecoveryDriver::RestoreRowLocked(TableState& state, uint32_t ordinal,
                                        bool on_demand) {
  // Caller holds the table's write_mutex; the relaxed flag load is
  // race-free under it and makes concurrent restore attempts idempotent.
  if (state.restored[ordinal].load(std::memory_order_relaxed) != 0) {
    return Status::OK();
  }
  // A pure attribute-cell store that never grows a dictionary, which is
  // what keeps concurrent degraded readers safe on the dictionary
  // vectors.
  HYRISE_NV_RETURN_NOT_OK(RestorePendingRow(state.pending, ordinal));
  state.restored[ordinal].store(1, std::memory_order_relaxed);
  // Release: the all-restored fast path's acquire load of these counters
  // must observe the value writes above without taking the mutex.
  if (state.restored_count.fetch_add(1, std::memory_order_release) + 1 ==
      state.pending.row_count) {
    // The key maps hold ordinals only, so the payload can go.
    std::vector<storage::ValueId>().swap(state.pending.ids);
  }
  restored_rows_.fetch_add(1, std::memory_order_release);
  if (on_demand) {
    obs::MetricsRegistry::Instance()
        .GetCounter("recovery.restore.ondemand.rows")
        .Inc();
  } else {
    drain_restored_rows_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status RecoveryDriver::RestoreAllRowsLocked(TableState& state,
                                            bool on_demand) {
  const uint64_t total = state.pending.row_count;
  for (uint64_t ordinal = 0; ordinal < total; ++ordinal) {
    HYRISE_NV_RETURN_NOT_OK(
        RestoreRowLocked(state, static_cast<uint32_t>(ordinal), on_demand));
  }
  return Status::OK();
}

Status RecoveryDriver::PrepareScanEqual(storage::Table* table, size_t column,
                                        const storage::Value& value) {
  TableState* state = Find(table);
  if (state == nullptr) return Status::OK();
  if (state->restored_count.load(std::memory_order_acquire) ==
      state->pending.row_count) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> guard(table->write_mutex());
  auto map_it = state->key_maps.find(static_cast<uint32_t>(column));
  if (map_it == state->key_maps.end()) {
    return RestoreAllRowsLocked(*state, /*on_demand=*/true);
  }
  auto value_it = map_it->second.find(value);
  if (value_it == map_it->second.end()) return Status::OK();
  for (uint32_t ordinal : value_it->second) {
    HYRISE_NV_RETURN_NOT_OK(
        RestoreRowLocked(*state, ordinal, /*on_demand=*/true));
  }
  return Status::OK();
}

Status RecoveryDriver::PrepareScanRange(storage::Table* table, size_t column,
                                        const storage::Value& lo,
                                        const storage::Value& hi) {
  TableState* state = Find(table);
  if (state == nullptr) return Status::OK();
  if (state->restored_count.load(std::memory_order_acquire) ==
      state->pending.row_count) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> guard(table->write_mutex());
  auto map_it = state->key_maps.find(static_cast<uint32_t>(column));
  if (map_it == state->key_maps.end()) {
    return RestoreAllRowsLocked(*state, /*on_demand=*/true);
  }
  // std::variant's operator< orders same-type keys exactly like
  // CompareValues; the map uses the same order, so this walk covers
  // every key in [lo, hi].
  for (auto it = map_it->second.lower_bound(lo);
       it != map_it->second.end() && !(hi < it->first); ++it) {
    for (uint32_t ordinal : it->second) {
      HYRISE_NV_RETURN_NOT_OK(
          RestoreRowLocked(*state, ordinal, /*on_demand=*/true));
    }
  }
  return Status::OK();
}

Status RecoveryDriver::RestoreTable(storage::Table* table) {
  TableState* state = Find(table);
  if (state == nullptr) return Status::OK();
  if (state->restored_count.load(std::memory_order_acquire) ==
      state->pending.row_count) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> guard(table->write_mutex());
  return RestoreAllRowsLocked(*state, /*on_demand=*/true);
}

void RecoveryDriver::PublishProgressGauge() {
  obs::MetricsRegistry::Instance()
      .GetGauge("recovery.progress.percent")
      .Set(static_cast<int64_t>(progress().percent()));
}

void RecoveryDriver::DrainLoop() {
  const uint64_t start_ticks = obs::FastClock::NowTicks();
  for (auto& state : states_) {
    const uint64_t total = state->pending.row_count;
    uint64_t cursor = 0;
    while (cursor < total) {
      if (stop_.load(std::memory_order_acquire)) return;
      {
        std::lock_guard<std::mutex> guard(
            state->pending.table->write_mutex());
        uint64_t done = 0;
        while (cursor < total && done < options_.drain_chunk_rows) {
          Status status = RestoreRowLocked(
              *state, static_cast<uint32_t>(cursor), /*on_demand=*/false);
          if (!status.ok()) {
            // Leave the engine degraded: on-demand paths surface the same
            // error per key instead of silently serving a half-restored
            // table as "ready".
            HYRISE_NV_LOG(kError)
                << "recovery drain failed on table '"
                << state->pending.table->name()
                << "' row " << cursor << ": " << status.ToString();
            return;
          }
          ++cursor;
          ++done;
        }
      }
      PublishProgressGauge();
      if (options_.drain_pause_us > 0 && cursor < total) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.drain_pause_us));
      }
    }
  }
  if (stop_.load(std::memory_order_acquire)) return;
  if (finalize_) {
    Status status = finalize_();
    if (!status.ok()) {
      // Stay degraded: a half-built index must never serve a post-flip
      // scan. Degraded scans bypass indexes entirely and every row is
      // restored, so the engine keeps answering correctly — just via the
      // index-free paths.
      HYRISE_NV_LOG(kError)
          << "deferred index build failed after recovery drain: "
          << status.ToString();
      return;
    }
  }
  const uint64_t elapsed_ns = obs::FastClock::TicksToNanos(
      static_cast<int64_t>(obs::FastClock::NowTicks() - start_ticks));
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kRecoveryDrainDone,
               drain_restored_rows_.load(std::memory_order_relaxed),
               elapsed_ns);
  }
  PublishProgressGauge();
  ready_.store(true, std::memory_order_release);
}

}  // namespace hyrise_nv::recovery
