#ifndef HYRISE_NV_WAL_LOG_WRITER_H_
#define HYRISE_NV_WAL_LOG_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "wal/block_device.h"
#include "wal/log_record.h"

namespace hyrise_nv::wal {

/// Buffered WAL appender with group commit.
///
/// Records accumulate in a volatile buffer. Commit() runs a
/// leader/follower group commit: the first committer to reach the device
/// becomes the leader, swaps the whole buffer out, and performs one
/// append + fsync for every commit that joined the buffer meanwhile;
/// followers block until a leader's sync covers their commit. Every
/// acknowledged commit is synchronously durable, but concurrent
/// committers share fsyncs instead of queueing one fsync each.
///
/// I/O errors (EIO, short writes, failed fdatasync) are retried with
/// exponential backoff up to 4 times. If the device stays broken the
/// writer enters degraded mode: every further durability request fails
/// fast with an I/O error so the engine can flip to read-only instead of
/// aborting the process or, worse, acknowledging commits it cannot make
/// durable. Bytes of a batch that fails that way are cut from the device
/// again, so no reopen replays a commit reported as failed.
class LogWriter {
 public:
  explicit LogWriter(BlockDevice* device)
      : device_(device), lsn_(device->size()) {}

  /// Buffers a non-commit record.
  Status Append(const LogRecord& record);

  /// Buffers the commit record and makes it durable through the
  /// leader/follower group fsync (see the class comment). Thread-safe;
  /// concurrent callers batch into shared fsyncs.
  Status Commit(const LogRecord& commit_record);

  /// Flush + sync of everything buffered.
  Status SyncNow();

  /// Total bytes appended so far (including still-buffered ones and a
  /// leader's in-flight batch). Safe from any thread.
  uint64_t lsn() const { return lsn_.load(std::memory_order_relaxed); }

  /// Commit records handed to Commit() so far.
  uint64_t total_commits() const {
    return total_commits_.load(std::memory_order_relaxed);
  }

  /// True once an I/O error survived all retries. Degraded is sticky:
  /// the log's durable prefix is intact, but nothing past it can be
  /// promised, so the engine must stop accepting writes.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  /// Number of I/O retry attempts performed so far (successful or not).
  uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }

 private:
  /// Runs `io`, retrying transient I/O errors with exponential backoff
  /// (50 us, doubling, capped at ~1s per attempt). On
  /// exhaustion marks the writer degraded and returns the last error.
  /// Non-I/O errors are returned immediately without retry. Touches only
  /// atomics — safe with or without mutex_ held.
  Status RetryIo(const char* what, const std::function<Status()>& io);

  /// Caller must hold mutex_ (and must not race a leader's device I/O —
  /// wait for !leader_active_ first).
  Status FlushLocked();

  /// Syncs the device through RetryIo, recording fsync count + latency
  /// metrics. Same device-exclusivity requirement as FlushLocked.
  Status SyncDevice();

  /// Truncates the device back to `start` after a flush or sync failed
  /// for good: the commits in those bytes are reported as failed, so no
  /// reopen may replay them. Caller must hold mutex_; same
  /// device-exclusivity requirement as FlushLocked.
  void CutFailedBytes(uint64_t start);

  BlockDevice* device_;
  std::atomic<uint64_t> total_commits_{0};
  std::atomic<uint64_t> synced_commits_{0};
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> io_retries_{0};
  /// Device bytes plus buffered bytes, a leader's in-flight batch
  /// included: raised where a record is buffered, set back where failed
  /// bytes are cut. One atomic, so lsn() never reads buffer_ or the
  /// device unlocked.
  std::atomic<uint64_t> lsn_;
  std::vector<uint8_t> buffer_;
  std::mutex mutex_;
  /// Guarded by mutex_: true while a leader runs device I/O unlocked.
  bool leader_active_ = false;
  /// Signalled when a leader finishes (followers re-check coverage) and
  /// when leadership frees up.
  std::condition_variable group_cv_;
};

}  // namespace hyrise_nv::wal

#endif  // HYRISE_NV_WAL_LOG_WRITER_H_
