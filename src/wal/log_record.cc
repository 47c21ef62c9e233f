#include "wal/log_record.h"

#include <cstring>

#include "common/byte_codec.h"
#include "common/crc32.h"

namespace hyrise_nv::wal {

LogRecord LogRecord::Insert(storage::Tid tid, uint64_t table_id,
                            std::vector<storage::Value> values) {
  LogRecord r;
  r.type = RecordType::kInsert;
  r.tid = tid;
  r.table_id = table_id;
  r.values = std::move(values);
  return r;
}

LogRecord LogRecord::InsertEncoded(storage::Tid tid, uint64_t table_id,
                                   std::vector<storage::ValueId> ids) {
  LogRecord r;
  r.type = RecordType::kInsertEncoded;
  r.tid = tid;
  r.table_id = table_id;
  r.value_ids = std::move(ids);
  return r;
}

LogRecord LogRecord::DictAdd(uint64_t table_id, uint32_t column,
                             storage::Value value) {
  LogRecord r;
  r.type = RecordType::kDictAdd;
  r.table_id = table_id;
  r.column = column;
  r.dict_value = std::move(value);
  return r;
}

LogRecord LogRecord::Delete(storage::Tid tid, uint64_t table_id,
                            storage::RowLocation loc) {
  LogRecord r;
  r.type = RecordType::kDelete;
  r.tid = tid;
  r.table_id = table_id;
  r.loc = loc;
  return r;
}

LogRecord LogRecord::Commit(storage::Tid tid, storage::Cid cid) {
  LogRecord r;
  r.type = RecordType::kCommit;
  r.tid = tid;
  r.cid = cid;
  return r;
}

LogRecord LogRecord::Abort(storage::Tid tid) {
  LogRecord r;
  r.type = RecordType::kAbort;
  r.tid = tid;
  return r;
}

LogRecord LogRecord::Prepare(storage::Tid tid, uint64_t gtid) {
  LogRecord r;
  r.type = RecordType::kPrepare;
  r.tid = tid;
  r.gtid = gtid;
  return r;
}

LogRecord LogRecord::CreateTable(uint64_t table_id, std::string name,
                                 std::vector<uint8_t> schema_blob) {
  LogRecord r;
  r.type = RecordType::kCreateTable;
  r.table_id = table_id;
  r.table_name = std::move(name);
  r.schema_blob = std::move(schema_blob);
  return r;
}

LogRecord LogRecord::CreateIndex(uint64_t table_id, uint32_t column,
                                 uint32_t kind) {
  LogRecord r;
  r.type = RecordType::kCreateIndex;
  r.table_id = table_id;
  r.column = column;
  r.index_kind = kind;
  return r;
}

std::vector<uint8_t> EncodeRecord(const LogRecord& record) {
  std::vector<uint8_t> framed;
  framed.reserve(64);  // one allocation for most records
  ByteWriter out(&framed);
  out.U32(0);  // masked crc and
  out.U32(0);  // body length, filled in last
  out.U8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case RecordType::kInsert:
      out.U64(record.tid);
      out.U64(record.table_id);
      out.U32(static_cast<uint32_t>(record.values.size()));
      for (const auto& v : record.values) storage::EncodeValue(v, out);
      break;
    case RecordType::kInsertEncoded:
      out.U64(record.tid);
      out.U64(record.table_id);
      out.U32(static_cast<uint32_t>(record.value_ids.size()));
      for (const auto id : record.value_ids) out.U32(id);
      break;
    case RecordType::kDictAdd:
      out.U64(record.table_id);
      out.U32(record.column);
      storage::EncodeValue(record.dict_value, out);
      break;
    case RecordType::kDelete:
      out.U64(record.tid);
      out.U64(record.table_id);
      out.U8(record.loc.in_main ? 1 : 0);
      out.U64(record.loc.row);
      break;
    case RecordType::kCommit:
      out.U64(record.tid);
      out.U64(record.cid);
      break;
    case RecordType::kAbort:
      out.U64(record.tid);
      break;
    case RecordType::kPrepare:
      out.U64(record.tid);
      out.U64(record.gtid);
      break;
    case RecordType::kCreateTable:
      out.U64(record.table_id);
      out.Str(record.table_name);
      out.U32(static_cast<uint32_t>(record.schema_blob.size()));
      out.Raw(record.schema_blob.data(), record.schema_blob.size());
      break;
    case RecordType::kCreateIndex:
      out.U64(record.table_id);
      out.U32(record.column);
      out.U32(record.index_kind);
      break;
  }

  const uint8_t* body = framed.data() + kFrameHeaderBytes;
  const auto body_len =
      static_cast<uint32_t>(framed.size() - kFrameHeaderBytes);
  const uint32_t masked_crc = MaskCrc(Crc32c(body, body_len));
  std::memcpy(framed.data(), &masked_crc, 4);
  std::memcpy(framed.data() + 4, &body_len, 4);
  return framed;
}

Result<size_t> DecodeFrame(const uint8_t* data, size_t len,
                           LogFrame* frame) {
  if (len < kFrameHeaderBytes) {
    return Status::NotFound("end of log");
  }
  ByteReader in(data, len);
  const uint32_t masked_crc = in.U32();
  const uint32_t body_len = in.U32();
  if (masked_crc == 0 && body_len == 0) {
    return Status::NotFound("end of log (zero frame)");
  }
  const uint8_t* body = in.Bytes(body_len);
  if (body == nullptr) {
    return Status::Corruption("torn record at log tail");
  }
  if (Crc32c(body, body_len) != UnmaskCrc(masked_crc)) {
    return Status::Corruption("log record CRC mismatch");
  }
  frame->body = body;
  frame->size = body_len;
  return kFrameHeaderBytes + static_cast<size_t>(body_len);
}

namespace {

/// Reads the record type and the fields that decide a transaction's
/// fate, which lead every body that carries them. False for an unknown
/// type.
bool ReadHeader(ByteReader& in, RecordHeader* header) {
  header->type = static_cast<RecordType>(in.U8());
  switch (header->type) {
    case RecordType::kInsert:
    case RecordType::kInsertEncoded:
    case RecordType::kDelete:
    case RecordType::kAbort:
      header->tid = in.U64();
      return true;
    case RecordType::kCommit:
      header->tid = in.U64();
      header->cid = in.U64();
      return true;
    case RecordType::kPrepare:
      header->tid = in.U64();
      header->gtid = in.U64();
      return true;
    case RecordType::kDictAdd:
    case RecordType::kCreateTable:
    case RecordType::kCreateIndex:
      return true;
  }
  return false;
}

Status Malformed(const ByteReader& in, RecordType type) {
  if (!in.ok()) return Status::Corruption("record truncated");
  return Status::Corruption("unknown record type " +
                            std::to_string(static_cast<int>(type)));
}

}  // namespace

Result<RecordHeader> DecodeRecordHeader(const LogFrame& frame) {
  ByteReader in(frame.body, frame.size);
  RecordHeader header;
  if (!ReadHeader(in, &header) || !in.ok()) {
    return Malformed(in, header.type);
  }
  return header;
}

Result<LogRecord> DecodeRecord(const uint8_t* data, size_t len,
                               size_t* consumed) {
  LogFrame frame;
  HYRISE_NV_ASSIGN_OR_RETURN(*consumed, DecodeFrame(data, len, &frame));
  return DecodeRecordBody(frame);
}

Result<LogRecord> DecodeRecordBody(const LogFrame& frame) {
  ByteReader in(frame.body, frame.size);
  RecordHeader header;
  if (!ReadHeader(in, &header) || !in.ok()) {
    return Malformed(in, header.type);
  }
  LogRecord record;
  record.type = header.type;
  record.tid = header.tid;
  record.cid = header.cid;
  record.gtid = header.gtid;
  switch (record.type) {
    case RecordType::kInsert: {
      record.table_id = in.U64();
      const uint64_t count = in.Count(in.U32());
      record.values.reserve(count);
      for (uint64_t i = 0; i < count && in.ok(); ++i) {
        record.values.push_back(storage::DecodeValue(in));
      }
      break;
    }
    case RecordType::kInsertEncoded:
      record.table_id = in.U64();
      record.value_ids.resize(in.Count(in.U32(), sizeof(storage::ValueId)));
      for (auto& id : record.value_ids) id = in.U32();
      break;
    case RecordType::kDictAdd:
      record.table_id = in.U64();
      record.column = in.U32();
      record.dict_value = storage::DecodeValue(in);
      break;
    case RecordType::kDelete:
      record.table_id = in.U64();
      record.loc.in_main = in.U8() != 0;
      record.loc.row = in.U64();
      break;
    case RecordType::kCreateTable: {
      record.table_id = in.U64();
      record.table_name = in.Str();
      const uint32_t blob_len = in.U32();
      if (const uint8_t* blob = in.Bytes(blob_len)) {
        record.schema_blob.assign(blob, blob + blob_len);
      }
      break;
    }
    case RecordType::kCreateIndex:
      record.table_id = in.U64();
      record.column = in.U32();
      record.index_kind = in.U32();
      break;
    case RecordType::kCommit:
    case RecordType::kAbort:
    case RecordType::kPrepare:
      break;  // the header is the whole body
  }
  if (!in.ok()) return Status::Corruption("record truncated");
  return record;
}

}  // namespace hyrise_nv::wal
