#include "net/client.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace hyrise_nv::net {

namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

Status Client::ConnectOnce() {
  Close();
  auto fd_result =
      ConnectTcp(options_.host, options_.port, options_.connect_timeout_ms);
  if (!fd_result.ok()) return fd_result.status();
  fd_ = std::move(fd_result).ValueUnsafe();
  Hello hello;
  hello.max_version = std::max(
      std::min(options_.protocol_max, kProtocolVersionMax),
      kProtocolVersionMin);
  hello.window = options_.request_window;
  auto reply = ExchangeHello(fd_.get(), hello, options_.read_timeout_ms,
                             &last_wire_code_);
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  protocol_version_ = reply->version;
  server_mode_ = reply->mode;
  session_id_ = reply->session_id;
  pipeline_window_ = reply->window;
  next_tag_ = 1;
  return Status::OK();
}

Status Client::Connect() {
  int backoff_ms = options_.retry_base_ms;
  Status last;
  last_connect_attempts_ = 0;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    ++last_connect_attempts_;
    last = ConnectOnce();
    if (last.ok()) return last;
    // A draining server will never come back on this address during this
    // process's lifetime less often than a restarting one; both are
    // worth retrying. Hard protocol errors (version mismatch) are not.
    if (last.code() == StatusCode::kNotSupported) return last;
    if (attempt == options_.max_retries) break;
    SleepMs(backoff_ms);
    backoff_ms = std::min(backoff_ms * 2, options_.retry_cap_ms);
  }
  return last;
}

void Client::Close() {
  fd_.Reset();
  session_id_ = 0;
  current_tid_ = 0;
}

Result<std::vector<uint8_t>> Client::Roundtrip(
    const std::vector<uint8_t>& payload) {
  if (!connected()) {
    return Status::IOError("client is not connected");
  }
  const auto rtt_start = std::chrono::steady_clock::now();
  // One outstanding request at a time. On v2 the server echoes the tag,
  // and a mismatch means the session's response stream is out of sync —
  // unrecoverable here. v1 frames carry no tag, so both sides read 0.
  const uint32_t tag = protocol_version_ >= 2 ? next_tag_++ : 0;
  if (next_tag_ == 0) next_tag_ = 1;  // 0 is fine but keep tags nonzero
  uint32_t echoed = 0;
  Status sent = SendFrame(fd_.get(), protocol_version_, tag, payload);
  auto response = sent.ok() ? RecvFrame(fd_.get(), protocol_version_,
                                        options_.read_timeout_ms, &echoed)
                            : Result<std::vector<uint8_t>>(std::move(sent));
  last_rtt_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - rtt_start)
          .count());
  if (response.ok() && echoed == tag) return response;
  Status status = response.ok()
                      ? Status::IOError("response tag mismatch: sent " +
                                        std::to_string(tag) + ", got " +
                                        std::to_string(echoed))
                      : response.status();
  // Transport failure: this connection is gone. Re-dial so the next
  // request works, but surface the failure — the request may or may not
  // have executed server-side, and only the caller can decide whether it
  // is safe to replay.
  Close();
  if (options_.auto_reconnect) {
    (void)Connect();
  }
  return status;
}

Result<std::vector<uint8_t>> Client::Call(
    Opcode op, const std::vector<uint8_t>& payload) {
  auto response_result = Roundtrip(payload);
  if (!response_result.ok()) return response_result.status();
  std::vector<uint8_t>& response = *response_result;
  WireReader reader(response.data(), response.size());
  const uint8_t echoed = reader.U8();
  const WireCode code = static_cast<WireCode>(reader.U8());
  if (!reader.ok()) {
    return Status::IOError("truncated response header");
  }
  last_wire_code_ = code;
  if (echoed != static_cast<uint8_t>(op)) {
    return Status::IOError("response opcode mismatch: sent " +
                           std::string(OpcodeName(op)) + ", got " +
                           std::to_string(echoed));
  }
  if (code != WireCode::kOk) {
    return StatusFromWire(code, reader.Str());
  }
  // Body = everything after [opcode][code].
  return std::vector<uint8_t>(response.begin() + 2, response.end());
}

Result<Client::BeginInfo> Client::Begin() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kBegin));
  auto body_result = Call(Opcode::kBegin, payload);
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  BeginInfo info;
  info.tid = reader.U64();
  info.snapshot = reader.U64();
  if (!reader.ok()) return Status::IOError("truncated begin response");
  current_tid_ = info.tid;
  return info;
}

Result<uint64_t> Client::Commit() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kCommit));
  writer.U64(0);  // 0 = the session's open transaction
  auto body_result = Call(Opcode::kCommit, payload);
  // The transaction ends either way: a conflict aborts it server-side.
  current_tid_ = 0;
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  const uint64_t cid = reader.U64();
  if (!reader.ok()) return Status::IOError("truncated commit response");
  return cid;
}

Status Client::Abort() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kAbort));
  writer.U64(0);
  current_tid_ = 0;
  return Call(Opcode::kAbort, payload).status();
}

Status Client::Prepare(uint64_t gtid) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kPrepare));
  writer.U64(0);  // 0 = the session's open transaction
  writer.U64(gtid);
  Status status = Call(Opcode::kPrepare, payload).status();
  // A successful prepare detaches the transaction from this session.
  if (status.ok()) current_tid_ = 0;
  return status;
}

Status Client::Decide(uint64_t gtid, bool commit) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kDecide));
  writer.U64(gtid);
  writer.U8(commit ? 1 : 0);
  return Call(Opcode::kDecide, payload).status();
}

Result<std::vector<uint64_t>> Client::InDoubt() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kInDoubt));
  auto body_result = Call(Opcode::kInDoubt, payload);
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  std::vector<uint64_t> gtids(reader.Count(reader.U32(), sizeof(uint64_t)));
  for (auto& gtid : gtids) gtid = reader.U64();
  if (!reader.ok()) return Status::IOError("truncated in_doubt response");
  return gtids;
}

Result<storage::RowLocation> Client::Insert(
    const std::string& table, const std::vector<storage::Value>& row) {
  return Dml(DmlOp::kInsert, table, {}, row);
}

Result<storage::RowLocation> Client::Update(
    const std::string& table, storage::RowLocation loc,
    const std::vector<storage::Value>& row) {
  return Dml(DmlOp::kUpdate, table, loc, row);
}

Status Client::Delete(const std::string& table, storage::RowLocation loc) {
  return Dml(DmlOp::kDelete, table, loc, {}).status();
}

Result<storage::RowLocation> Client::Dml(
    uint8_t kind, const std::string& table, storage::RowLocation loc,
    const std::vector<storage::Value>& row) {
  if (!IsDmlKind(kind)) {
    return Status::InvalidArgument("bad dml op kind " +
                                   std::to_string(kind));
  }
  const Opcode op = DmlOpcode(kind);
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(op));
  writer.U64(0);  // 0 = the session's open transaction
  writer.DmlBody(kind, table, loc, row);
  auto body_result = Call(op, payload);
  if (!body_result.ok()) return body_result.status();
  if (kind == DmlOp::kDelete) return loc;
  WireReader reader(body_result->data(), body_result->size());
  const storage::RowLocation new_loc = reader.Loc();
  if (!reader.ok()) {
    return Status::IOError(std::string("truncated ") + OpcodeName(op) +
                           " response");
  }
  return new_loc;
}

Result<Client::DmlBatchResult> Client::DmlBatch(
    const std::vector<DmlOp>& ops) {
  if (ops.empty()) {
    return Status::InvalidArgument("empty dml batch");
  }
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kDmlBatch));
  writer.U32(static_cast<uint32_t>(ops.size()));
  for (const DmlOp& op : ops) {
    if (!IsDmlKind(op.kind)) {
      return Status::InvalidArgument("bad dml op kind " +
                                     std::to_string(op.kind));
    }
    writer.U8(op.kind);
    writer.DmlBody(op);
  }
  auto body_result = Call(Opcode::kDmlBatch, payload);
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  DmlBatchResult result;
  const uint32_t count = reader.U32();
  if (!reader.ok() || count != ops.size()) {
    return Status::IOError("truncated dml_batch response");
  }
  result.locs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) result.locs.push_back(reader.Loc());
  result.cid = reader.U64();
  if (!reader.ok()) return Status::IOError("truncated dml_batch response");
  return result;
}

namespace {

Result<ScanResult> ParseScanBody(const std::vector<uint8_t>& body) {
  WireReader reader(body.data(), body.size());
  ScanResult result;
  result.truncated = reader.U8() != 0;
  const uint32_t n = reader.U32();
  for (uint32_t i = 0; i < n && reader.ok(); ++i) {
    WireRow row;
    row.loc = reader.Loc();
    row.values = reader.Row();
    result.rows.push_back(std::move(row));
  }
  if (!reader.ok()) return Status::IOError("truncated scan response");
  return result;
}

}  // namespace

Result<ScanResult> Client::ScanEqual(const std::string& table,
                                     uint32_t column,
                                     const storage::Value& value,
                                     bool in_txn, uint32_t limit) {
  if (in_txn && current_tid_ == 0) {
    return Status::InvalidArgument("no open transaction on this client");
  }
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kScanEqual));
  writer.U64(in_txn ? current_tid_ : 0);
  writer.Str(table);
  writer.U32(column);
  writer.Value(value);
  writer.U32(limit);
  auto body_result = Call(Opcode::kScanEqual, payload);
  if (!body_result.ok()) return body_result.status();
  return ParseScanBody(*body_result);
}

Result<ScanResult> Client::ScanRange(const std::string& table,
                                     uint32_t column,
                                     const storage::Value& lo,
                                     const storage::Value& hi, bool in_txn,
                                     uint32_t limit) {
  if (in_txn && current_tid_ == 0) {
    return Status::InvalidArgument("no open transaction on this client");
  }
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kScanRange));
  writer.U64(in_txn ? current_tid_ : 0);
  writer.Str(table);
  writer.U32(column);
  writer.Value(lo);
  writer.Value(hi);
  writer.U32(limit);
  auto body_result = Call(Opcode::kScanRange, payload);
  if (!body_result.ok()) return body_result.status();
  return ParseScanBody(*body_result);
}

Result<uint64_t> Client::Count(const std::string& table, bool in_txn) {
  if (in_txn && current_tid_ == 0) {
    return Status::InvalidArgument("no open transaction on this client");
  }
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kCount));
  writer.U64(in_txn ? current_tid_ : 0);
  writer.Str(table);
  auto body_result = Call(Opcode::kCount, payload);
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  const uint64_t count = reader.U64();
  if (!reader.ok()) return Status::IOError("truncated count response");
  return count;
}

Result<uint64_t> Client::CreateTable(
    const std::string& name,
    const std::vector<std::pair<std::string, storage::DataType>>& columns) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kCreateTable));
  writer.Str(name);
  writer.U16(static_cast<uint16_t>(columns.size()));
  for (const auto& [col_name, type] : columns) {
    writer.Str(col_name);
    writer.U8(static_cast<uint8_t>(type));
  }
  auto body_result = Call(Opcode::kCreateTable, payload);
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  const uint64_t id = reader.U64();
  if (!reader.ok()) {
    return Status::IOError("truncated create-table response");
  }
  return id;
}

Status Client::CreateIndex(const std::string& table, uint32_t column,
                           uint8_t kind) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kCreateIndex));
  writer.Str(table);
  writer.U32(column);
  writer.U8(kind);
  return Call(Opcode::kCreateIndex, payload).status();
}

Status Client::Ping() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kPing));
  return Call(Opcode::kPing, payload).status();
}

Result<std::string> Client::Stats() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kStats));
  auto body_result = Call(Opcode::kStats, payload);
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  std::string json = reader.Str();
  if (!reader.ok()) return Status::IOError("truncated stats response");
  return json;
}

Result<std::string> Client::RecoveryInfo() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kRecoveryInfo));
  auto body_result = Call(Opcode::kRecoveryInfo, payload);
  if (!body_result.ok()) return body_result.status();
  WireReader reader(body_result->data(), body_result->size());
  std::string json = reader.Str();
  if (!reader.ok()) {
    return Status::IOError("truncated recovery-info response");
  }
  return json;
}

Status Client::WaitUntilReady(int timeout_ms, int poll_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    auto info_result = RecoveryInfo();
    if (info_result.ok()) {
      // Servers predating the serving_state field have no degraded mode:
      // an absent key means ready.
      if (info_result->find("\"serving_state\":\"degraded\"") ==
          std::string::npos) {
        return Status::OK();
      }
    } else if (!IsRetryableWireCode(last_wire_code_)) {
      return info_result.status();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Aborted("timed out waiting for the server to finish "
                             "its background index build");
    }
    SleepMs(std::max(1, poll_ms));
  }
}

Status Client::Checkpoint() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kCheckpoint));
  return Call(Opcode::kCheckpoint, payload).status();
}

Status Client::Drain() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kDrain));
  return Call(Opcode::kDrain, payload).status();
}

}  // namespace hyrise_nv::net
