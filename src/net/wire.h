#ifndef HYRISE_NV_NET_WIRE_H_
#define HYRISE_NV_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/types.h"

namespace hyrise_nv::net {

/// Binary wire protocol for the serving layer (DESIGN.md §10, §17).
///
/// Version 1 frames every message as:
///
///   [u32 payload_len][u32 masked CRC32C(payload)][payload bytes]
///
/// Version 2 (negotiated at handshake) extends the header with a
/// client-chosen request tag, CRC-covered so a corrupted tag cannot
/// misroute a response:
///
///   [u32 payload_len][u32 masked CRC32C(tag || payload)][u32 tag][payload]
///
/// Integers are little-endian. The CRC is masked (LevelDB-style, same as
/// the storage seals) so a frame whose payload itself carries CRCs never
/// accidentally verifies. `payload_len` counts payload bytes only (the
/// tag is header) and is bounded by kMaxFrameBytes; a peer announcing
/// more is a protocol error and the connection is closed without reading
/// the body.
///
/// Request payload:  [u8 opcode][body...]
/// Response payload: [u8 opcode (echoed)][u8 wire code][body... | error msg]
///
/// A non-OK wire code carries a length-prefixed UTF-8 message as its
/// body. The wire code space is the engine's StatusCode byte-for-byte,
/// plus serving-layer-only codes (kOverloaded, kDraining) that map back
/// to richer Status messages in the client (DESIGN.md §10.2).
///
/// The first frame on a connection must be kHello (protocol version
/// negotiation). Everything else before a successful handshake is a
/// protocol error. The hello exchange itself is ALWAYS v1-framed in both
/// directions — the framing switches to v2 only after both sides know the
/// negotiated version. A v2 hello request appends [u32 requested_window]
/// and a v2 hello response appends [u32 granted_window]; a v1 peer never
/// sees either field (DESIGN.md §17). Every endpoint frames its messages
/// and encodes and parses the hello and the DML op body through the codec
/// below (EncodeFrameHeader, NextFrame, Hello, HelloReply, Negotiate,
/// DmlBody) instead of writing the bytes itself.

// --- Protocol constants ---------------------------------------------------

constexpr uint32_t kHelloMagic = 0x4C51564E;  // "NVQL" little-endian
constexpr uint16_t kProtocolVersionMin = 1;
constexpr uint16_t kProtocolVersionMax = 2;
constexpr uint32_t kFrameHeaderBytes = 8;
/// v2 tagged-frame header: [u32 len][u32 crc][u32 tag].
constexpr uint32_t kFrameHeaderBytesV2 = 12;
constexpr uint32_t kMaxFrameBytes = 8u << 20;  // 8 MiB payload cap
/// Pipeline window bounds (v2). The window is the number of requests a
/// connection may have outstanding (received by the server, response not
/// yet handed to the socket); requests beyond it are shed with the
/// retryable kOverloaded code, never a connection close.
constexpr uint32_t kDefaultPipelineWindow = 32;
constexpr uint32_t kMaxPipelineWindow = 256;

/// Request opcodes. Values are wire format; append only.
enum class Opcode : uint8_t {
  kHello = 1,
  kPing = 2,
  kBegin = 3,
  kCommit = 4,
  kAbort = 5,
  kInsert = 6,
  kUpdate = 7,
  kDelete = 8,
  kScanEqual = 9,
  kScanRange = 10,
  kCount = 11,
  kCreateTable = 12,
  kCreateIndex = 13,
  kStats = 14,
  kRecoveryInfo = 15,
  kCheckpoint = 16,
  kDrain = 17,
  // Two-phase commit (DESIGN.md §16). kPrepare seals the session
  // transaction's writes durably under a coordinator-issued global txn id;
  // kDecide commits or aborts a prepared transaction by gtid (idempotent —
  // unknown gtids answer OK so coordinator retries and reconnect races are
  // harmless); kInDoubt lists prepared-but-undecided gtids for the
  // coordinator's recovery handshake.
  kPrepare = 18,
  kDecide = 19,
  kInDoubt = 20,
  // Pipelined autocommit write (v2 only). One frame carries a whole DML
  // batch: the server begins a transaction, applies every op, and
  // commits once — one group-commit fsync and one ordered publish for
  // the batch, atomically (any failure aborts the whole batch). Body:
  // [u32 count] then per op [u8 kind: 1=insert 2=update 3=delete]
  // followed by the op's body (WireWriter::DmlBody). Response body:
  // [u32 count][loc]*count [u64 cid]; an error response carries the
  // failing op index as "op N: message".
  kDmlBatch = 21,
};

constexpr Opcode kLastOpcode = Opcode::kDmlBatch;

const char* OpcodeName(Opcode op);
bool IsKnownOpcode(uint8_t op);

/// One DML operation as the wire carries it: a kDmlBatch op, or the body
/// of a single kInsert/kUpdate/kDelete request. `kind` uses the wire
/// values of kDmlBatch.
struct DmlOp {
  static constexpr uint8_t kInsert = 1;
  static constexpr uint8_t kUpdate = 2;
  static constexpr uint8_t kDelete = 3;
  uint8_t kind = kInsert;
  std::string table;
  storage::RowLocation loc;         // update/delete
  std::vector<storage::Value> row;  // insert/update
};

constexpr bool IsDmlKind(uint8_t kind) {
  return kind >= DmlOp::kInsert && kind <= DmlOp::kDelete;
}

/// The single-op opcode of a DmlOp kind, and back. Both enumerations run
/// insert, update, delete in the same order.
constexpr Opcode DmlOpcode(uint8_t kind) {
  return static_cast<Opcode>(static_cast<uint8_t>(Opcode::kInsert) + kind -
                             DmlOp::kInsert);
}
constexpr uint8_t DmlKind(Opcode op) {
  return static_cast<uint8_t>(static_cast<uint8_t>(op) -
                              static_cast<uint8_t>(Opcode::kInsert) +
                              DmlOp::kInsert);
}
static_assert(DmlOpcode(DmlOp::kDelete) == Opcode::kDelete);
static_assert(DmlKind(Opcode::kUpdate) == DmlOp::kUpdate);

/// Wire error codes. 0..10 mirror StatusCode values exactly; the serving
/// layer appends its own codes above them.
enum class WireCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kCorruption = 4,
  kIOError = 5,
  kOutOfMemory = 6,
  kTransactionConflict = 7,
  kAborted = 8,
  kNotSupported = 9,
  kInternal = 10,
  // Serving-layer codes (no StatusCode twin).
  kOverloaded = 32,  // 503-style admission-control rejection; retryable
  kDraining = 33,    // server is shutting down gracefully; retryable
  kProtocolError = 34,  // malformed frame/handshake; connection closes
  kWarming = 35,  // serving degraded during the index build; retryable
};

/// Status → wire code. Every engine StatusCode maps byte-for-byte.
WireCode WireCodeFromStatus(const Status& status);
/// Wire code + message → Status. Serving-layer codes come back as
/// kIOError ("overloaded: ...", "draining: ...", "warming: ...") so
/// existing retry logic branching on StatusCode keeps working;
/// IsRetryableWireCode tells transient rejections apart from hard
/// failures.
Status StatusFromWire(WireCode code, const std::string& message);
bool IsRetryableWireCode(WireCode code);
const char* WireCodeName(WireCode code);

// --- Serialization primitives ---------------------------------------------

/// Append-only little-endian encoder over a byte vector.
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Value(const storage::Value& v);
  void Row(const std::vector<storage::Value>& row);
  void Loc(storage::RowLocation loc) {
    U8(loc.in_main ? 1 : 0);
    U64(loc.row);
  }
  /// A DML op body: [str table], then [loc] for update/delete, then [row]
  /// for insert/update. A single-op request puts [u64 tid] before it, a
  /// kDmlBatch op puts [u8 kind]. Takes the pieces so a caller never
  /// copies its row into a DmlOp just to encode it.
  void DmlBody(uint8_t kind, const std::string& table,
               storage::RowLocation loc,
               const std::vector<storage::Value>& row);
  void DmlBody(const DmlOp& op) {
    DmlBody(op.kind, op.table, op.loc, op.row);
  }

 private:
  void Raw(const void* data, size_t len) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + len);
  }
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian decoder. Any out-of-bounds read latches
/// the error flag and returns zero values; callers check ok() once at the
/// end instead of after every field. Never reads past the buffer.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint16_t U16() {
    uint16_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::string Str();
  storage::Value Value();
  std::vector<storage::Value> Row();
  storage::RowLocation Loc() {
    storage::RowLocation loc;
    loc.in_main = U8() != 0;
    loc.row = U64();
    return loc;
  }
  /// The DML op body WireWriter::DmlBody writes, for an op of `kind`.
  DmlOp DmlBody(uint8_t kind);
  /// One kDmlBatch op: [u8 kind] + body. An unknown kind latches the
  /// error.
  DmlOp BatchOp();

  bool ok() const { return !error_; }
  /// True when the whole buffer was consumed and no read overran.
  bool Exhausted() const { return ok() && pos_ == len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  void Raw(void* out, size_t n) {
    if (error_ || len_ - pos_ < n) {
      error_ = true;
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool error_ = false;
};

// --- Framing --------------------------------------------------------------
//
// The frame codec: the only code that knows the frame layout (header
// size, what the CRC covers, the length cap). Every endpoint encodes,
// scans and reads frames through it with its connection's negotiated
// version; the hello exchange is always version 1. kMaxFrameBytes is the
// only frame cap.

/// Header bytes of a frame under `version`: 8 on v1, 12 on v2.
constexpr uint32_t FrameHeaderBytes(uint16_t version) {
  return version >= 2 ? kFrameHeaderBytesV2 : kFrameHeaderBytes;
}

/// Writes the header of a frame carrying `len` payload bytes into
/// `header` (room for kFrameHeaderBytesV2) and returns its size. The tag
/// is written, and covered by the CRC, on v2 only.
uint32_t EncodeFrameHeader(uint16_t version, uint32_t tag,
                           const uint8_t* payload, uint32_t len,
                           uint8_t* header);

/// Header and payload as one buffer.
std::vector<uint8_t> EncodeFrame(uint16_t version, uint32_t tag,
                                 const std::vector<uint8_t>& payload);
inline std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload) {
  return EncodeFrame(1, 0, payload);
}
inline std::vector<uint8_t> EncodeTaggedFrame(
    uint32_t tag, const std::vector<uint8_t>& payload) {
  return EncodeFrame(2, tag, payload);
}

/// Parses the header's length word (the first field under both
/// versions). A length of 0 or above kMaxFrameBytes fails with
/// InvalidArgument before any body byte is read.
Result<uint32_t> DecodeFrameHeader(const uint8_t header[kFrameHeaderBytes]);

/// Verifies the payload against the header's masked CRC, which covers
/// the payload on v1 and tag || payload on v2, so a flipped tag bit
/// fails exactly like a flipped payload bit. Fails with Corruption.
Status CheckFrameCrc(uint16_t version, const uint8_t* header,
                     const uint8_t* payload, uint32_t len);
inline Status CheckTaggedFrameCrc(const uint8_t header[kFrameHeaderBytesV2],
                                  const uint8_t* payload, uint32_t len) {
  return CheckFrameCrc(2, header, payload, len);
}

/// The tag field of a v2 header.
uint32_t TaggedFrameTag(const uint8_t header[kFrameHeaderBytesV2]);

/// One frame at the front of a receive buffer. `consumed` is 0 while the
/// frame is incomplete.
struct FrameView {
  uint32_t tag = 0;  // 0 on v1
  const uint8_t* payload = nullptr;
  uint32_t len = 0;
  size_t consumed = 0;  // header + payload bytes
};

/// The incremental decoder: looks at the `size` buffered bytes at `data`.
/// Returns OK with `frame->consumed == 0` until the frame's last byte is
/// in, then OK with the frame, its CRC verified. A bad length fails as
/// soon as the header is in, a bad CRC once the payload is; either way
/// the stream cannot be resynchronised.
Status NextFrame(uint16_t version, const uint8_t* data, size_t size,
                 FrameView* frame);

// --- Message helpers ------------------------------------------------------

/// Builds a response payload: opcode echo + wire code (+ error message
/// for non-OK codes). OK responses append their body via the returned
/// WireWriter by the caller.
std::vector<uint8_t> MakeErrorPayload(Opcode op, WireCode code,
                                      const std::string& message);
std::vector<uint8_t> MakeStatusPayload(Opcode op, const Status& status);

/// How the server and the router refuse a request before running it, so
/// a client gets the same bytes from either (DESIGN.md §10.2).
enum class Refusal : uint8_t {
  kNone,    // the request runs
  kAnswer,  // answer with the request's tag; the session lives
  kClose,   // answer with the request's tag, then close the connection
};
/// An unknown opcode gets kNotSupported "unknown opcode N"; a request
/// other than hello before the handshake gets kProtocolError "first
/// frame must be hello". Fills `response` unless the request runs.
Refusal RefuseRequest(uint8_t op, bool handshaken,
                      std::vector<uint8_t>* response);
/// The answer to a frame the decoder rejected (bad length or CRC): a
/// kProtocolError with the decoder's message. It goes out with tag 0,
/// since the frame's own tag cannot be trusted, and the connection then
/// closes.
std::vector<uint8_t> MakeFrameErrorPayload(const Status& decode_error);

/// One scanned row on the wire: location + materialised values.
struct WireRow {
  storage::RowLocation loc;
  std::vector<storage::Value> values;
};

// --- Handshake ------------------------------------------------------------

/// A hello request: [u8 kHello][u32 kHelloMagic][u16 min][u16 max], then
/// [u32 window] when max >= 2 (0 asks for the server default).
struct Hello {
  uint16_t min_version = kProtocolVersionMin;
  uint16_t max_version = kProtocolVersionMax;
  uint32_t window = 0;
};
std::vector<uint8_t> EncodeHello(const Hello& hello);
/// Parses a hello body, `reader` positioned after the opcode. The window
/// field is read when present. A bad magic or a truncated body fails with
/// InvalidArgument: a protocol error that closes the connection.
Result<Hello> ParseHello(WireReader& reader);

/// An OK hello response: [u8 kHello][u8 kOk][u16 version][u8 mode]
/// [u64 session_id], then [u32 window] when version >= 2.
struct HelloReply {
  uint16_t version = kProtocolVersionMin;
  uint8_t mode = 0;  // core::DurabilityMode of the server, as a raw byte
  uint64_t session_id = 0;
  uint32_t window = 0;  // granted pipeline window; 0 on v1
};
std::vector<uint8_t> EncodeHelloReply(const HelloReply& reply);
/// Parses a whole hello response payload. A refusal comes back as its
/// wire code's Status. A v2 reply without a window, or with window 0, is
/// refused as IOError. `code`, when given, receives the response's wire
/// code.
Result<HelloReply> ParseHelloReply(const uint8_t* data, size_t len,
                                   WireCode* code = nullptr);

/// The server half of the handshake: picks the highest version both
/// ranges share and, for v2, grants the requested window (0 = the
/// default) clamped to [1, kMaxPipelineWindow]. The caller fills in the
/// reply's mode and session id. Disjoint or inverted ranges fail with
/// NotSupported naming both.
Result<HelloReply> Negotiate(const Hello& hello);

}  // namespace hyrise_nv::net

#endif  // HYRISE_NV_NET_WIRE_H_
