#include "wal/log_writer.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"

namespace hyrise_nv::wal {

namespace {
constexpr uint32_t kIoMaxRetries = 4;
constexpr uint64_t kIoRetryBackoffUs = 50;     // first retry's wait
constexpr uint64_t kMaxBackoffUs = 1'000'000;  // 1s cap per attempt
}  // namespace

Status LogWriter::RetryIo(const char* what,
                          const std::function<Status()>& io) {
  Status status = io();
  uint64_t backoff_us = kIoRetryBackoffUs;
  for (uint32_t attempt = 0;
       !status.ok() && status.code() == StatusCode::kIOError &&
       attempt < kIoMaxRetries;
       ++attempt) {
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    HYRISE_NV_LOG(kWarn) << "wal: " << what << " failed ("
                         << status.ToString() << "), retry "
                         << (attempt + 1) << "/" << kIoMaxRetries
                         << " after " << backoff_us << "us";
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min(backoff_us * 2, kMaxBackoffUs);
    status = io();
  }
  if (!status.ok() && status.code() == StatusCode::kIOError) {
    const bool was_degraded =
        degraded_.exchange(true, std::memory_order_release);
#if HYRISE_NV_METRICS_ENABLED
    if (!was_degraded) {
      static obs::Counter& degraded_flips =
          obs::MetricsRegistry::Instance().GetCounter("wal.degraded.flips");
      degraded_flips.Inc();
      if (obs::BlackboxWriter* bb = obs::BlackboxWriter::Current()) {
        bb->Record(obs::BlackboxEventType::kWalDegraded, 1);
      }
    }
#else
    (void)was_degraded;
#endif
    HYRISE_NV_LOG(kError)
        << "wal: " << what << " failed after " << kIoMaxRetries
        << " retries (" << status.ToString()
        << "); entering degraded (read-only) mode";
  }
  return status;
}

Status LogWriter::Append(const LogRecord& record) {
  if (degraded()) {
    return Status::IOError(
        "log writer is degraded after unrecoverable I/O errors; "
        "database is read-only");
  }
  const std::vector<uint8_t> framed = EncodeRecord(record);
  std::lock_guard<std::mutex> guard(mutex_);
  buffer_.insert(buffer_.end(), framed.begin(), framed.end());
  return Status::OK();
}

Status LogWriter::FlushLocked() {
  if (buffer_.empty()) return Status::OK();
#if HYRISE_NV_METRICS_ENABLED
  static obs::Histogram& batch_bytes =
      obs::MetricsRegistry::Instance().GetHistogram("wal.batch.bytes");
  batch_bytes.Record(buffer_.size());
#endif
  HYRISE_NV_RETURN_NOT_OK(RetryIo("append", [&] {
    auto append_result = device_->Append(buffer_.data(), buffer_.size());
    return append_result.ok() ? Status::OK() : append_result.status();
  }));
  buffer_.clear();
  return Status::OK();
}

Status LogWriter::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  group_cv_.wait(lock, [&] { return !leader_active_; });
  return FlushLocked();
}

Status LogWriter::SyncDevice() {
#if HYRISE_NV_METRICS_ENABLED
  const uint64_t start_ticks = obs::FastClock::NowTicks();
#endif
  Status status = RetryIo("sync", [&] { return device_->Sync(); });
#if HYRISE_NV_METRICS_ENABLED
  static obs::Histogram& fsync_latency =
      obs::MetricsRegistry::Instance().GetHistogram("wal.fsync.latency_ns");
  static obs::Counter& fsync_count =
      obs::MetricsRegistry::Instance().GetCounter("wal.fsync.count");
  const uint64_t sync_ns = obs::FastClock::TicksToNanos(
      static_cast<int64_t>(obs::FastClock::NowTicks() - start_ticks));
  fsync_latency.Record(sync_ns);
  fsync_count.Inc();
  if (obs::BlackboxWriter* bb = obs::BlackboxWriter::Current()) {
    bb->Record(obs::BlackboxEventType::kWalSync,
               total_commits_.load(std::memory_order_relaxed), sync_ns);
  }
#endif
  return status;
}

Status LogWriter::Commit(const LogRecord& commit_record) {
  if (degraded()) {
    return Status::IOError(
        "log writer is degraded after unrecoverable I/O errors; "
        "database is read-only");
  }
  const std::vector<uint8_t> framed = EncodeRecord(commit_record);
  std::unique_lock<std::mutex> lock(mutex_);
  buffer_.insert(buffer_.end(), framed.begin(), framed.end());
  const uint64_t my_seqno =
      total_commits_.fetch_add(1, std::memory_order_relaxed) + 1;

  while (true) {
    if (synced_commits_.load(std::memory_order_relaxed) >= my_seqno) {
      // A leader's fsync already covered this commit.
      return Status::OK();
    }
    if (degraded()) {
      return Status::IOError(
          "log writer is degraded after unrecoverable I/O errors; "
          "database is read-only");
    }
    if (!leader_active_) break;  // leadership is free — take it
    group_cv_.wait(lock);
  }

  // Leader: swap the buffer out and run device I/O unlocked, so
  // followers can keep appending the next batch meanwhile.
  leader_active_ = true;
  const uint64_t batch_start = device_->size();
  std::vector<uint8_t> batch;
  batch.swap(buffer_);
  const uint64_t batch_high =
      total_commits_.load(std::memory_order_relaxed);
  const uint64_t batch_low =
      synced_commits_.load(std::memory_order_relaxed);
  in_flight_bytes_.store(batch.size(), std::memory_order_relaxed);
  lock.unlock();

  Status status = Status::OK();
  if (!batch.empty()) {
#if HYRISE_NV_METRICS_ENABLED
    static obs::Histogram& batch_bytes =
        obs::MetricsRegistry::Instance().GetHistogram("wal.batch.bytes");
    batch_bytes.Record(batch.size());
#endif
    status = RetryIo("append", [&] {
      auto append_result = device_->Append(batch.data(), batch.size());
      return append_result.ok() ? Status::OK() : append_result.status();
    });
  }
  if (status.ok()) {
    status = SyncDevice();
  }

  lock.lock();
  if (status.ok()) {
    synced_commits_.store(batch_high, std::memory_order_relaxed);
#if HYRISE_NV_METRICS_ENABLED
    static obs::Histogram& group_size =
        obs::MetricsRegistry::Instance().GetHistogram(
            "wal.group_commit.size");
    group_size.Record(batch_high - batch_low);
#endif
  } else {
    // The batch is dropped, not re-buffered: the writer is degraded, so
    // nothing may follow it into the log.
    CutFailedBytes(batch_start);
  }
  in_flight_bytes_.store(0, std::memory_order_relaxed);
  leader_active_ = false;
  lock.unlock();
  group_cv_.notify_all();
  return status;
}

Status LogWriter::SyncNow() {
  std::unique_lock<std::mutex> lock(mutex_);
  group_cv_.wait(lock, [&] { return !leader_active_; });
  const uint64_t start = device_->size();
  Status status = FlushLocked();
  if (status.ok()) status = SyncDevice();
  if (!status.ok()) {
    // A commit buffered behind the last leader fails with this sync.
    CutFailedBytes(start);
    return status;
  }
  synced_commits_.store(total_commits_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return Status::OK();
}

void LogWriter::CutFailedBytes(uint64_t start) {
  Status status = device_->Truncate(start);
  if (!status.ok()) {
    HYRISE_NV_LOG(kError) << "wal: cutting failed bytes from the log failed ("
                          << status.ToString() << "); a reopen may replay "
                          << "commits reported as failed";
  }
}

}  // namespace hyrise_nv::wal
