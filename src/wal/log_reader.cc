#include "wal/log_reader.h"

#include <string>

#include "common/logging.h"

namespace hyrise_nv::wal {

namespace {

/// A torn tail has nothing decodable after the corrupt point: the crash
/// cut the log short, so the bytes past it are absent or garbage. A
/// decodable record after the corruption means the damage sits inside
/// the durable prefix (bit rot, a bad sector) — replay must fail loudly
/// instead of silently truncating away committed work.
bool HasDecodableRecordAfter(const uint8_t* data, size_t len, size_t from) {
  for (size_t pos = from; pos < len; ++pos) {
    size_t consumed = 0;
    if (DecodeRecord(data + pos, len - pos, &consumed).ok()) return true;
  }
  return false;
}

}  // namespace

Status LogReader::Load(uint64_t start_offset) {
  const uint64_t end = device_->size();
  if (start_offset > end) {
    return Status::InvalidArgument("log start offset beyond end");
  }
  start_offset_ = start_offset;
  checked_ = false;
  checked_end_ = 0;
  data_.assign(end - start_offset, 0);
  if (data_.empty()) return Status::OK();
  return device_->Read(start_offset, data_.data(), data_.size());
}

Status LogReader::AtBadFrame(size_t pos, const Status& status) const {
  if (status.IsNotFound()) return Status::OK();  // clean end
  if (!status.IsCorruption()) return status;
  if (HasDecodableRecordAfter(data_.data(), data_.size(), pos + 1)) {
    return Status::Corruption(
        "log corrupt at offset " + std::to_string(start_offset_ + pos) +
        " with valid records after it (mid-log corruption, not a torn "
        "tail): " + status.message());
  }
  // Torn tail: a crash between flush and sync cuts the final record
  // short (or leaves garbage). Like LevelDB, replay treats the first
  // undecodable record as the end of the log — framed CRCs guarantee
  // nothing partial is ever applied.
  HYRISE_NV_LOG(kInfo) << "log replay stops at torn tail, offset "
                       << (start_offset_ + pos) << ": "
                       << status.ToString();
  return Status::OK();
}

Result<uint64_t> LogReader::ForEach(
    uint64_t start_offset,
    const std::function<Status(const LogRecord&)>& fn) {
  HYRISE_NV_RETURN_NOT_OK(Load(start_offset));
  return ForEachFrame([&](const LogFrame& frame) -> Status {
    HYRISE_NV_ASSIGN_OR_RETURN(const LogRecord record,
                               DecodeRecordBody(frame));
    return fn(record);
  });
}

}  // namespace hyrise_nv::wal
