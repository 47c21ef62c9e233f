#ifndef HYRISE_NV_WAL_LOG_READER_H_
#define HYRISE_NV_WAL_LOG_READER_H_

#include <cstring>
#include <functional>
#include <vector>

#include "common/status.h"
#include "wal/block_device.h"
#include "wal/log_record.h"

namespace hyrise_nv::wal {

/// Sequential log scan used by recovery. Load reads the log from an
/// offset to its end with one device read; any number of walks then run
/// over that buffer.
class LogReader {
 public:
  explicit LogReader(BlockDevice* device) : device_(device) {}

  /// Reads the log from `start_offset` to the device end into memory.
  Status Load(uint64_t start_offset);

  /// Walks the loaded log, calling `fn(const LogFrame&)` per record. The
  /// first walk checks each frame's CRC: a torn tail (partial final
  /// record, from a crash between flush and sync) ends it cleanly, and
  /// any corruption before the tail is an error. A later walk visits the
  /// frames the first one accepted without checking them again: the
  /// buffer does not change. Returns the number of records visited.
  template <typename Fn>
  Result<uint64_t> ForEachFrame(Fn&& fn);

  /// Load plus one walk that decodes every record in full.
  Result<uint64_t> ForEach(
      uint64_t start_offset,
      const std::function<Status(const LogRecord&)>& fn);

 private:
  /// The walk met an undecodable frame at `pos`: OK when it is the clean
  /// end or a torn tail (the walk stops there), Corruption when intact
  /// records follow it (mid-log damage).
  Status AtBadFrame(size_t pos, const Status& status) const;

  BlockDevice* device_;
  uint64_t start_offset_ = 0;
  std::vector<uint8_t> data_;
  /// Set once a walk has checked every frame up to `checked_end_`.
  bool checked_ = false;
  size_t checked_end_ = 0;
};

template <typename Fn>
Result<uint64_t> LogReader::ForEachFrame(Fn&& fn) {
  const bool checked = checked_;
  const size_t end = checked ? checked_end_ : data_.size();
  uint64_t count = 0;
  size_t pos = 0;
  while (pos < end) {
    LogFrame frame;
    size_t framed = 0;
    if (checked) {
      uint32_t body_len;
      std::memcpy(&body_len, data_.data() + pos + 4, 4);
      frame.body = data_.data() + pos + 8;
      frame.size = body_len;
      framed = 8 + static_cast<size_t>(body_len);
    } else {
      auto decoded = DecodeFrame(data_.data() + pos, end - pos, &frame);
      if (!decoded.ok()) {
        HYRISE_NV_RETURN_NOT_OK(AtBadFrame(pos, decoded.status()));
        break;
      }
      framed = *decoded;
    }
    HYRISE_NV_RETURN_NOT_OK(fn(frame));
    pos += framed;
    ++count;
  }
  if (!checked) {
    checked_ = true;
    checked_end_ = pos;
  }
  return count;
}

}  // namespace hyrise_nv::wal

#endif  // HYRISE_NV_WAL_LOG_READER_H_
