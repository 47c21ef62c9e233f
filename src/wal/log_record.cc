#include "wal/log_record.h"

#include <cstring>

#include "common/crc32.h"

namespace hyrise_nv::wal {

namespace {

void PutU8(uint8_t v, std::vector<uint8_t>* out) { out->push_back(v); }
void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + 4);
}
void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + 8);
}

bool GetU8(const uint8_t* data, size_t len, size_t* pos, uint8_t* v) {
  if (*pos + 1 > len) return false;
  *v = data[(*pos)++];
  return true;
}
bool GetU32(const uint8_t* data, size_t len, size_t* pos, uint32_t* v) {
  if (*pos + 4 > len) return false;
  std::memcpy(v, data + *pos, 4);
  *pos += 4;
  return true;
}
bool GetU64(const uint8_t* data, size_t len, size_t* pos, uint64_t* v) {
  if (*pos + 8 > len) return false;
  std::memcpy(v, data + *pos, 8);
  *pos += 8;
  return true;
}

constexpr uint8_t kValueTagInt64 = 1;
constexpr uint8_t kValueTagDouble = 2;
constexpr uint8_t kValueTagString = 3;

}  // namespace

void SerializeValue(const storage::Value& value,
                    std::vector<uint8_t>* out) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    PutU8(kValueTagInt64, out);
    PutU64(static_cast<uint64_t>(*i), out);
  } else if (const auto* d = std::get_if<double>(&value)) {
    PutU8(kValueTagDouble, out);
    uint64_t bits;
    std::memcpy(&bits, d, 8);
    PutU64(bits, out);
  } else {
    const auto& s = std::get<std::string>(value);
    PutU8(kValueTagString, out);
    PutU32(static_cast<uint32_t>(s.size()), out);
    out->insert(out->end(), s.begin(), s.end());
  }
}

Result<storage::Value> DeserializeValue(const uint8_t* data, size_t len,
                                        size_t* pos) {
  uint8_t tag;
  if (!GetU8(data, len, pos, &tag)) {
    return Status::Corruption("value truncated (tag)");
  }
  switch (tag) {
    case kValueTagInt64: {
      uint64_t bits;
      if (!GetU64(data, len, pos, &bits)) {
        return Status::Corruption("value truncated (int64)");
      }
      return storage::Value(static_cast<int64_t>(bits));
    }
    case kValueTagDouble: {
      uint64_t bits;
      if (!GetU64(data, len, pos, &bits)) {
        return Status::Corruption("value truncated (double)");
      }
      double d;
      std::memcpy(&d, &bits, 8);
      return storage::Value(d);
    }
    case kValueTagString: {
      uint32_t slen;
      if (!GetU32(data, len, pos, &slen) || *pos + slen > len) {
        return Status::Corruption("value truncated (string)");
      }
      storage::Value v(std::string(
          reinterpret_cast<const char*>(data + *pos), slen));
      *pos += slen;
      return v;
    }
    default:
      return Status::Corruption("unknown value tag");
  }
}

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
  std::vector<uint8_t> body;
  PutU8(static_cast<uint8_t>(record.type), &body);
  switch (record.type) {
    case RecordType::kInsert:
      PutU64(record.tid, &body);
      PutU64(record.table_id, &body);
      PutU32(static_cast<uint32_t>(record.values.size()), &body);
      for (const auto& v : record.values) SerializeValue(v, &body);
      break;
    case RecordType::kInsertEncoded:
      PutU64(record.tid, &body);
      PutU64(record.table_id, &body);
      PutU32(static_cast<uint32_t>(record.value_ids.size()), &body);
      for (const auto id : record.value_ids) PutU32(id, &body);
      break;
    case RecordType::kDictAdd:
      PutU64(record.table_id, &body);
      PutU32(record.column, &body);
      SerializeValue(record.dict_value, &body);
      break;
    case RecordType::kDelete:
      PutU64(record.tid, &body);
      PutU64(record.table_id, &body);
      PutU8(record.loc.in_main ? 1 : 0, &body);
      PutU64(record.loc.row, &body);
      break;
    case RecordType::kCommit:
      PutU64(record.tid, &body);
      PutU64(record.cid, &body);
      break;
    case RecordType::kAbort:
      PutU64(record.tid, &body);
      break;
    case RecordType::kPrepare:
      PutU64(record.tid, &body);
      PutU64(record.gtid, &body);
      break;
    case RecordType::kCreateTable:
      PutU64(record.table_id, &body);
      PutU32(static_cast<uint32_t>(record.table_name.size()), &body);
      body.insert(body.end(), record.table_name.begin(),
                  record.table_name.end());
      PutU32(static_cast<uint32_t>(record.schema_blob.size()), &body);
      body.insert(body.end(), record.schema_blob.begin(),
                  record.schema_blob.end());
      break;
    case RecordType::kCreateIndex:
      PutU64(record.table_id, &body);
      PutU32(record.column, &body);
      PutU32(record.index_kind, &body);
      break;
  }

  std::vector<uint8_t> framed;
  framed.reserve(body.size() + 8);
  PutU32(MaskCrc(Crc32c(body.data(), body.size())), &framed);
  PutU32(static_cast<uint32_t>(body.size()), &framed);
  framed.insert(framed.end(), body.begin(), body.end());
  return framed;
}

Result<size_t> DecodeFrame(const uint8_t* data, size_t len,
                           LogFrame* frame) {
  if (len < 8) {
    return Status::NotFound("end of log");
  }
  uint32_t masked_crc, body_len;
  std::memcpy(&masked_crc, data, 4);
  std::memcpy(&body_len, data + 4, 4);
  if (masked_crc == 0 && body_len == 0) {
    return Status::NotFound("end of log (zero frame)");
  }
  if (8 + static_cast<size_t>(body_len) > len) {
    return Status::Corruption("torn record at log tail");
  }
  const uint8_t* body = data + 8;
  if (Crc32c(body, body_len) != UnmaskCrc(masked_crc)) {
    return Status::Corruption("log record CRC mismatch");
  }
  frame->body = body;
  frame->size = body_len;
  return 8 + static_cast<size_t>(body_len);
}

Result<RecordHeader> DecodeRecordHeader(const LogFrame& frame) {
  const uint8_t* body = frame.body;
  const size_t body_len = frame.size;
  RecordHeader header;
  size_t pos = 0;
  uint8_t type;
  if (!GetU8(body, body_len, &pos, &type)) {
    return Status::Corruption("record truncated (type)");
  }
  header.type = static_cast<RecordType>(type);
  bool ok = true;
  switch (header.type) {
    case RecordType::kInsert:
    case RecordType::kInsertEncoded:
    case RecordType::kDelete:
    case RecordType::kAbort:
      ok = GetU64(body, body_len, &pos, &header.tid);
      break;
    case RecordType::kCommit:
      ok = GetU64(body, body_len, &pos, &header.tid) &&
           GetU64(body, body_len, &pos, &header.cid);
      break;
    case RecordType::kPrepare:
      ok = GetU64(body, body_len, &pos, &header.tid) &&
           GetU64(body, body_len, &pos, &header.gtid);
      break;
    case RecordType::kDictAdd:
    case RecordType::kCreateTable:
    case RecordType::kCreateIndex:
      break;
    default:
      return Status::Corruption("unknown record type " +
                                std::to_string(type));
  }
  if (!ok) return Status::Corruption("record truncated");
  return header;
}

Result<LogRecord> DecodeRecord(const uint8_t* data, size_t len,
                               size_t* consumed) {
  LogFrame frame;
  HYRISE_NV_ASSIGN_OR_RETURN(*consumed, DecodeFrame(data, len, &frame));
  return DecodeRecordBody(frame);
}

Result<LogRecord> DecodeRecordBody(const LogFrame& frame) {
  const uint8_t* body = frame.body;
  const size_t body_len = frame.size;
  LogRecord record;
  size_t pos = 0;
  uint8_t type;
  if (!GetU8(body, body_len, &pos, &type)) {
    return Status::Corruption("record truncated (type)");
  }
  record.type = static_cast<RecordType>(type);
  auto need = [&](bool ok) {
    return ok ? Status::OK() : Status::Corruption("record truncated");
  };
  switch (record.type) {
    case RecordType::kInsert: {
      uint32_t count = 0;
      HYRISE_NV_RETURN_NOT_OK(need(GetU64(body, body_len, &pos, &record.tid)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.table_id)));
      HYRISE_NV_RETURN_NOT_OK(need(GetU32(body, body_len, &pos, &count)));
      record.values.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        auto value = DeserializeValue(body, body_len, &pos);
        if (!value.ok()) return value.status();
        record.values.push_back(std::move(value).ValueUnsafe());
      }
      break;
    }
    case RecordType::kInsertEncoded: {
      uint32_t count = 0;
      HYRISE_NV_RETURN_NOT_OK(need(GetU64(body, body_len, &pos, &record.tid)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.table_id)));
      HYRISE_NV_RETURN_NOT_OK(need(GetU32(body, body_len, &pos, &count)));
      record.value_ids.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        HYRISE_NV_RETURN_NOT_OK(
            need(GetU32(body, body_len, &pos, &record.value_ids[i])));
      }
      break;
    }
    case RecordType::kDictAdd: {
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.table_id)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU32(body, body_len, &pos, &record.column)));
      auto value = DeserializeValue(body, body_len, &pos);
      if (!value.ok()) return value.status();
      record.dict_value = std::move(value).ValueUnsafe();
      break;
    }
    case RecordType::kDelete: {
      uint8_t in_main = 0;
      HYRISE_NV_RETURN_NOT_OK(need(GetU64(body, body_len, &pos, &record.tid)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.table_id)));
      HYRISE_NV_RETURN_NOT_OK(need(GetU8(body, body_len, &pos, &in_main)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.loc.row)));
      record.loc.in_main = in_main != 0;
      break;
    }
    case RecordType::kCommit:
      HYRISE_NV_RETURN_NOT_OK(need(GetU64(body, body_len, &pos, &record.tid)));
      HYRISE_NV_RETURN_NOT_OK(need(GetU64(body, body_len, &pos, &record.cid)));
      break;
    case RecordType::kAbort:
      HYRISE_NV_RETURN_NOT_OK(need(GetU64(body, body_len, &pos, &record.tid)));
      break;
    case RecordType::kPrepare:
      HYRISE_NV_RETURN_NOT_OK(need(GetU64(body, body_len, &pos, &record.tid)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.gtid)));
      break;
    case RecordType::kCreateTable: {
      uint32_t name_len = 0, blob_len = 0;
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.table_id)));
      HYRISE_NV_RETURN_NOT_OK(need(GetU32(body, body_len, &pos, &name_len)));
      if (pos + name_len > body_len) {
        return Status::Corruption("record truncated (table name)");
      }
      record.table_name.assign(
          reinterpret_cast<const char*>(body + pos), name_len);
      pos += name_len;
      HYRISE_NV_RETURN_NOT_OK(need(GetU32(body, body_len, &pos, &blob_len)));
      if (pos + blob_len > body_len) {
        return Status::Corruption("record truncated (schema blob)");
      }
      record.schema_blob.assign(body + pos, body + pos + blob_len);
      pos += blob_len;
      break;
    }
    case RecordType::kCreateIndex:
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU64(body, body_len, &pos, &record.table_id)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU32(body, body_len, &pos, &record.column)));
      HYRISE_NV_RETURN_NOT_OK(
          need(GetU32(body, body_len, &pos, &record.index_kind)));
      break;
    default:
      return Status::Corruption("unknown record type " +
                                std::to_string(type));
  }
  return record;
}

}  // namespace hyrise_nv::wal
