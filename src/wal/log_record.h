#ifndef HYRISE_NV_WAL_LOG_RECORD_H_
#define HYRISE_NV_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace hyrise_nv::wal {

/// Log record types. Two insert encodings implement the paper-era Hyrise
/// logging formats: plain value logging and dictionary-encoded logging
/// (value ids + incremental dictionary additions; smaller records, but
/// replay must reconstruct dictionaries in order).
enum class RecordType : uint8_t {
  kInsert = 1,         // values inline
  kInsertEncoded = 2,  // delta value ids
  kDictAdd = 3,        // one new delta dictionary entry
  kDelete = 4,
  kCommit = 5,
  kAbort = 6,
  kCreateTable = 7,  // DDL: table id + name + schema
  kCreateIndex = 8,  // DDL: table id + column
  kPrepare = 9,      // 2PC vote: tid + coordinator gtid; in-doubt until a
                     // kCommit/kAbort for the same tid follows
};

/// A parsed log record (union-style; fields valid per type).
struct LogRecord {
  RecordType type;
  storage::Tid tid = 0;
  uint64_t table_id = 0;
  storage::Cid cid = 0;                     // kCommit
  uint64_t gtid = 0;                        // kPrepare
  std::vector<storage::Value> values;       // kInsert
  std::vector<storage::ValueId> value_ids;  // kInsertEncoded
  uint32_t column = 0;                      // kDictAdd, kCreateIndex
  uint32_t index_kind = 0;                  // kCreateIndex
  storage::Value dict_value;                // kDictAdd
  storage::RowLocation loc;                 // kDelete
  std::string table_name;                   // kCreateTable
  std::vector<uint8_t> schema_blob;         // kCreateTable

  static LogRecord Insert(storage::Tid tid, uint64_t table_id,
                          std::vector<storage::Value> values);
  static LogRecord InsertEncoded(storage::Tid tid, uint64_t table_id,
                                 std::vector<storage::ValueId> ids);
  static LogRecord DictAdd(uint64_t table_id, uint32_t column,
                           storage::Value value);
  static LogRecord Delete(storage::Tid tid, uint64_t table_id,
                          storage::RowLocation loc);
  static LogRecord Commit(storage::Tid tid, storage::Cid cid);
  static LogRecord Abort(storage::Tid tid);
  static LogRecord Prepare(storage::Tid tid, uint64_t gtid);
  static LogRecord CreateTable(uint64_t table_id, std::string name,
                               std::vector<uint8_t> schema_blob);
  static LogRecord CreateIndex(uint64_t table_id, uint32_t column,
                               uint32_t kind);
};

/// Frame header bytes: [u32 masked crc32c of the body][u32 body length].
constexpr size_t kFrameHeaderBytes = 8;

/// Serialises the record payload + frame: [masked crc32c][u32 len][body].
/// Values use the one tagged encoding (storage::EncodeValue).
std::vector<uint8_t> EncodeRecord(const LogRecord& record);

/// The body of one framed record.
struct LogFrame {
  const uint8_t* body = nullptr;
  size_t size = 0;
};

/// Checks the frame at data[0..len) against its CRC without parsing the
/// body. On success sets `*frame` and returns the framed length. A clean
/// end-of-log (fewer than 8 bytes, or a zeroed frame) returns NotFound; a
/// short frame or a CRC mismatch returns Corruption (torn tail).
Result<size_t> DecodeFrame(const uint8_t* data, size_t len, LogFrame* frame);

/// What decides a transaction's fate: the record type and, where the
/// record carries them, its tid, the commit's cid and the prepare's gtid.
/// Fields a type lacks stay 0.
struct RecordHeader {
  RecordType type;
  storage::Tid tid = 0;
  storage::Cid cid = 0;
  uint64_t gtid = 0;
};

/// Parses only the header fields of a checked body, never its values.
Result<RecordHeader> DecodeRecordHeader(const LogFrame& frame);

/// Parses a checked body in full.
Result<LogRecord> DecodeRecordBody(const LogFrame& frame);

/// DecodeFrame plus DecodeRecordBody on the record at data[0..len). On
/// success sets `*consumed` to the framed length.
Result<LogRecord> DecodeRecord(const uint8_t* data, size_t len,
                               size_t* consumed);

}  // namespace hyrise_nv::wal

#endif  // HYRISE_NV_WAL_LOG_RECORD_H_
