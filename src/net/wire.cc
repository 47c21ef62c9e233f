#include "net/wire.h"

#include <algorithm>

#include "common/crc32.h"

namespace hyrise_nv::net {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHello:
      return "hello";
    case Opcode::kPing:
      return "ping";
    case Opcode::kBegin:
      return "begin";
    case Opcode::kCommit:
      return "commit";
    case Opcode::kAbort:
      return "abort";
    case Opcode::kInsert:
      return "insert";
    case Opcode::kUpdate:
      return "update";
    case Opcode::kDelete:
      return "delete";
    case Opcode::kScanEqual:
      return "scan_equal";
    case Opcode::kScanRange:
      return "scan_range";
    case Opcode::kCount:
      return "count";
    case Opcode::kCreateTable:
      return "create_table";
    case Opcode::kCreateIndex:
      return "create_index";
    case Opcode::kStats:
      return "stats";
    case Opcode::kRecoveryInfo:
      return "recovery_info";
    case Opcode::kCheckpoint:
      return "checkpoint";
    case Opcode::kDrain:
      return "drain";
    case Opcode::kPrepare:
      return "prepare";
    case Opcode::kDecide:
      return "decide";
    case Opcode::kInDoubt:
      return "in_doubt";
    case Opcode::kDmlBatch:
      return "dml_batch";
  }
  return "unknown";
}

bool IsKnownOpcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kHello) &&
         op <= static_cast<uint8_t>(kLastOpcode);
}

WireCode WireCodeFromStatus(const Status& status) {
  // StatusCode values 0..10 are the wire format for engine errors; the
  // static_asserts pin the correspondence so a StatusCode edit cannot
  // silently shift what peers see.
  static_assert(static_cast<int>(StatusCode::kOk) ==
                static_cast<int>(WireCode::kOk));
  static_assert(static_cast<int>(StatusCode::kInternal) ==
                static_cast<int>(WireCode::kInternal));
  return static_cast<WireCode>(static_cast<uint8_t>(status.code()));
}

Status StatusFromWire(WireCode code, const std::string& message) {
  switch (code) {
    case WireCode::kOk:
      return Status::OK();
    case WireCode::kOverloaded:
      return Status::IOError("overloaded: " + message);
    case WireCode::kDraining:
      return Status::IOError("draining: " + message);
    case WireCode::kWarming:
      return Status::IOError("warming: " + message);
    case WireCode::kProtocolError:
      return Status::InvalidArgument("protocol error: " + message);
    default:
      break;
  }
  const auto raw = static_cast<uint8_t>(code);
  if (raw > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Internal("unknown wire code " + std::to_string(raw) +
                            ": " + message);
  }
  return Status(static_cast<StatusCode>(raw), message);
}

bool IsRetryableWireCode(WireCode code) {
  return code == WireCode::kOverloaded || code == WireCode::kDraining ||
         code == WireCode::kWarming;
}

const char* WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOverloaded:
      return "Overloaded";
    case WireCode::kDraining:
      return "Draining";
    case WireCode::kWarming:
      return "Warming";
    case WireCode::kProtocolError:
      return "ProtocolError";
    default:
      return StatusCodeName(static_cast<StatusCode>(code));
  }
}

void WireWriter::Value(const storage::Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    U8(1);
    U64(static_cast<uint64_t>(*i));
  } else if (const auto* d = std::get_if<double>(&v)) {
    U8(2);
    F64(*d);
  } else {
    U8(3);
    Str(std::get<std::string>(v));
  }
}

void WireWriter::Row(const std::vector<storage::Value>& row) {
  U16(static_cast<uint16_t>(row.size()));
  for (const auto& v : row) Value(v);
}

void WireWriter::DmlBody(uint8_t kind, const std::string& table,
                         storage::RowLocation loc,
                         const std::vector<storage::Value>& row) {
  Str(table);
  if (kind != DmlOp::kInsert) Loc(loc);
  if (kind != DmlOp::kDelete) Row(row);
}

std::string WireReader::Str() {
  const uint32_t n = U32();
  if (error_ || len_ - pos_ < n) {
    error_ = true;
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

storage::Value WireReader::Value() {
  switch (U8()) {
    case 1:
      return storage::Value(static_cast<int64_t>(U64()));
    case 2:
      return storage::Value(F64());
    case 3:
      return storage::Value(Str());
    default:
      error_ = true;
      return storage::Value(int64_t{0});
  }
}

std::vector<storage::Value> WireReader::Row() {
  const uint16_t n = U16();
  std::vector<storage::Value> row;
  // A malicious count cannot make us allocate past the frame: each value
  // is at least 2 bytes on the wire, so cap the reserve by what is left.
  if (error_ || n > remaining()) {
    error_ = true;
    return row;
  }
  row.reserve(n);
  for (uint16_t i = 0; i < n && !error_; ++i) row.push_back(Value());
  return row;
}

DmlOp WireReader::DmlBody(uint8_t kind) {
  DmlOp op;
  op.kind = kind;
  op.table = Str();
  if (kind != DmlOp::kInsert) op.loc = Loc();
  if (kind != DmlOp::kDelete) op.row = Row();
  return op;
}

DmlOp WireReader::BatchOp() {
  const uint8_t kind = U8();
  if (!IsDmlKind(kind)) error_ = true;
  if (error_) return DmlOp();
  return DmlBody(kind);
}

uint32_t EncodeFrameHeader(uint16_t version, uint32_t tag,
                           const uint8_t* payload, uint32_t len,
                           uint8_t* header) {
  const uint32_t seed = version >= 2 ? Crc32c(&tag, sizeof(tag)) : 0;
  const uint32_t crc = MaskCrc(Crc32c(payload, len, seed));
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + 4, &crc, sizeof(crc));
  if (version >= 2) std::memcpy(header + 8, &tag, sizeof(tag));
  return FrameHeaderBytes(version);
}

std::vector<uint8_t> EncodeFrame(uint16_t version, uint32_t tag,
                                 const std::vector<uint8_t>& payload) {
  const auto len = static_cast<uint32_t>(payload.size());
  std::vector<uint8_t> frame(FrameHeaderBytes(version) + payload.size());
  EncodeFrameHeader(version, tag, payload.data(), len, frame.data());
  std::copy(payload.begin(), payload.end(),
            frame.begin() + FrameHeaderBytes(version));
  return frame;
}

Result<uint32_t> DecodeFrameHeader(const uint8_t header[kFrameHeaderBytes]) {
  uint32_t len;
  std::memcpy(&len, header, sizeof(len));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "frame announces " + std::to_string(len) + " bytes (cap " +
        std::to_string(kMaxFrameBytes) + ")");
  }
  if (len == 0) {
    return Status::InvalidArgument("empty frame (no opcode)");
  }
  return len;
}

Status CheckFrameCrc(uint16_t version, const uint8_t* header,
                     const uint8_t* payload, uint32_t len) {
  uint32_t masked;
  std::memcpy(&masked, header + 4, sizeof(masked));
  const uint32_t seed =
      version >= 2 ? Crc32c(header + 8, sizeof(uint32_t)) : 0;
  if (UnmaskCrc(masked) != Crc32c(payload, len, seed)) {
    return Status::Corruption(version >= 2 ? "tagged frame CRC mismatch"
                                           : "frame CRC mismatch");
  }
  return Status::OK();
}

uint32_t TaggedFrameTag(const uint8_t header[kFrameHeaderBytesV2]) {
  uint32_t tag;
  std::memcpy(&tag, header + 8, sizeof(tag));
  return tag;
}

Status NextFrame(uint16_t version, const uint8_t* data, size_t size,
                 FrameView* frame) {
  *frame = FrameView();
  const uint32_t header_bytes = FrameHeaderBytes(version);
  if (size < header_bytes) return Status::OK();
  auto len = DecodeFrameHeader(data);
  if (!len.ok()) return len.status();
  if (size - header_bytes < *len) return Status::OK();
  const uint8_t* payload = data + header_bytes;
  HYRISE_NV_RETURN_NOT_OK(CheckFrameCrc(version, data, payload, *len));
  frame->tag = version >= 2 ? TaggedFrameTag(data) : 0;
  frame->payload = payload;
  frame->len = *len;
  frame->consumed = header_bytes + *len;
  return Status::OK();
}

std::vector<uint8_t> MakeErrorPayload(Opcode op, WireCode code,
                                      const std::string& message) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(op));
  writer.U8(static_cast<uint8_t>(code));
  writer.Str(message);
  return payload;
}

std::vector<uint8_t> MakeStatusPayload(Opcode op, const Status& status) {
  if (!status.ok()) {
    return MakeErrorPayload(op, WireCodeFromStatus(status),
                            status.message());
  }
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(op));
  writer.U8(static_cast<uint8_t>(WireCode::kOk));
  return payload;
}

Refusal RefuseRequest(uint8_t op, bool handshaken,
                      std::vector<uint8_t>* response) {
  if (!IsKnownOpcode(op)) {
    // The frame boundary is intact, so the stream is still in sync.
    *response = MakeErrorPayload(static_cast<Opcode>(op),
                                 WireCode::kNotSupported,
                                 "unknown opcode " + std::to_string(op));
    return Refusal::kAnswer;
  }
  if (!handshaken && op != static_cast<uint8_t>(Opcode::kHello)) {
    *response = MakeErrorPayload(static_cast<Opcode>(op),
                                 WireCode::kProtocolError,
                                 "first frame must be hello");
    return Refusal::kClose;
  }
  return Refusal::kNone;
}

std::vector<uint8_t> MakeFrameErrorPayload(const Status& decode_error) {
  return MakeErrorPayload(static_cast<Opcode>(0), WireCode::kProtocolError,
                          decode_error.message());
}

std::vector<uint8_t> EncodeHello(const Hello& hello) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kHello));
  writer.U32(kHelloMagic);
  writer.U16(hello.min_version);
  writer.U16(hello.max_version);
  if (hello.max_version >= 2) writer.U32(hello.window);
  return payload;
}

Result<Hello> ParseHello(WireReader& reader) {
  const uint32_t magic = reader.U32();
  Hello hello;
  hello.min_version = reader.U16();
  hello.max_version = reader.U16();
  if (reader.remaining() >= sizeof(uint32_t)) hello.window = reader.U32();
  if (!reader.ok()) return Status::InvalidArgument("truncated hello");
  if (magic != kHelloMagic) return Status::InvalidArgument("bad hello magic");
  return hello;
}

std::vector<uint8_t> EncodeHelloReply(const HelloReply& reply) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kHello));
  writer.U8(static_cast<uint8_t>(WireCode::kOk));
  writer.U16(reply.version);
  writer.U8(reply.mode);
  writer.U64(reply.session_id);
  if (reply.version >= 2) writer.U32(reply.window);
  return payload;
}

Result<HelloReply> ParseHelloReply(const uint8_t* data, size_t len,
                                   WireCode* code) {
  WireReader reader(data, len);
  const uint8_t op = reader.U8();
  const auto wire_code = static_cast<WireCode>(reader.U8());
  if (!reader.ok() || op != static_cast<uint8_t>(Opcode::kHello)) {
    return Status::IOError("malformed handshake response");
  }
  if (code != nullptr) *code = wire_code;
  if (wire_code != WireCode::kOk) {
    return StatusFromWire(wire_code, reader.Str());
  }
  HelloReply reply;
  reply.version = reader.U16();
  reply.mode = reader.U8();
  reply.session_id = reader.U64();
  if (!reader.ok()) return Status::IOError("truncated handshake response");
  if (reply.version >= 2) {
    reply.window = reader.U32();
    if (!reader.ok() || reply.window == 0) {
      return Status::IOError("v2 handshake response carries no window");
    }
  }
  return reply;
}

Result<HelloReply> Negotiate(const Hello& hello) {
  if (hello.min_version > kProtocolVersionMax ||
      hello.max_version < kProtocolVersionMin ||
      hello.min_version > hello.max_version) {
    return Status::NotSupported(
        "no common protocol version: client [" +
        std::to_string(hello.min_version) + "," +
        std::to_string(hello.max_version) + "], server [" +
        std::to_string(kProtocolVersionMin) + "," +
        std::to_string(kProtocolVersionMax) + "]");
  }
  HelloReply reply;
  reply.version = std::min(hello.max_version, kProtocolVersionMax);
  if (reply.version >= 2) {
    const uint32_t wanted =
        hello.window == 0 ? kDefaultPipelineWindow : hello.window;
    reply.window = std::clamp(wanted, 1u, kMaxPipelineWindow);
  }
  return reply;
}

}  // namespace hyrise_nv::net
