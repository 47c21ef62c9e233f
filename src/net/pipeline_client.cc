#include "net/pipeline_client.h"

#include <algorithm>

namespace hyrise_nv::net {

namespace {

/// Pipelining needs tagged frames; Connect refuses a v1 server.
constexpr uint16_t kTaggedVersion = 2;

}  // namespace

Status PipelinedClient::Completion::ToStatus() const {
  if (code == WireCode::kOk) return Status::OK();
  WireReader reader(body.data(), body.size());
  return StatusFromWire(code, reader.Str());
}

Status PipelinedClient::Connect() {
  Close();
  auto fd_result =
      ConnectTcp(options_.host, options_.port, options_.connect_timeout_ms);
  if (!fd_result.ok()) return fd_result.status();
  fd_ = std::move(fd_result).ValueUnsafe();
  Hello hello;
  hello.window = options_.request_window;
  auto reply = ExchangeHello(fd_.get(), hello, options_.read_timeout_ms);
  Status status = reply.status();
  if (status.ok() && reply->version < 2) {
    status = Status::NotSupported(
        "server negotiated protocol v" + std::to_string(reply->version) +
        "; pipelining needs v2 tagged frames");
  }
  if (!status.ok()) {
    Close();
    return status;
  }
  window_ = reply->window;
  server_mode_ = reply->mode;
  session_id_ = reply->session_id;
  next_tag_ = 1;
  return Status::OK();
}

void PipelinedClient::Close() {
  fd_.Reset();
  window_ = 0;
  session_id_ = 0;
  order_.clear();
  stash_.clear();
}

Result<uint32_t> PipelinedClient::Submit(
    const std::vector<uint8_t>& payload) {
  if (!connected()) return Status::IOError("client is not connected");
  // The window counts submissions not yet completed BY THE SERVER; a
  // stashed completion has freed its slot even if the caller has not
  // consumed it yet.
  while (order_.size() - stash_.size() >= window_) {
    HYRISE_NV_RETURN_NOT_OK(ReadOne());
  }
  const uint32_t tag = next_tag_++;
  if (next_tag_ == 0) next_tag_ = 1;
  Status status = SendFrame(fd_.get(), kTaggedVersion, tag, payload);
  if (!status.ok()) {
    Close();
    return status;
  }
  order_.push_back(tag);
  return tag;
}

Status PipelinedClient::ReadOne() {
  uint32_t tag = 0;
  auto frame_result = RecvFrame(fd_.get(), kTaggedVersion,
                                options_.read_timeout_ms, &tag);
  if (!frame_result.ok()) {
    Close();
    return frame_result.status();
  }
  const bool known =
      std::find(order_.begin(), order_.end(), tag) != order_.end() &&
      stash_.find(tag) == stash_.end();
  if (!known) {
    Close();
    return Status::IOError("response carries unknown tag " +
                           std::to_string(tag) +
                           "; pipeline stream out of sync");
  }
  WireReader reader(frame_result->data(), frame_result->size());
  Completion completion;
  completion.tag = tag;
  completion.op = static_cast<Opcode>(reader.U8());
  completion.code = static_cast<WireCode>(reader.U8());
  if (!reader.ok()) {
    Close();
    return Status::IOError("truncated response header");
  }
  completion.body.assign(frame_result->begin() + 2, frame_result->end());
  stash_.emplace(tag, std::move(completion));
  return Status::OK();
}

Result<PipelinedClient::Completion> PipelinedClient::Await(uint32_t tag) {
  const auto it = std::find(order_.begin(), order_.end(), tag);
  if (it == order_.end()) {
    return Status::InvalidArgument("tag " + std::to_string(tag) +
                                   " is not outstanding");
  }
  while (stash_.find(tag) == stash_.end()) {
    HYRISE_NV_RETURN_NOT_OK(ReadOne());
  }
  // ReadOne may have invalidated `it` via stash growth only (order_ is
  // untouched by reads), but keep the lookup fresh anyway.
  order_.erase(std::find(order_.begin(), order_.end(), tag));
  auto node = stash_.extract(tag);
  return std::move(node.mapped());
}

Result<PipelinedClient::Completion> PipelinedClient::Next() {
  if (order_.empty()) {
    return Status::InvalidArgument("no outstanding requests");
  }
  return Await(order_.front());
}

Status PipelinedClient::DrainAll() {
  Status first;
  while (!order_.empty()) {
    auto completion_result = Next();
    if (!completion_result.ok()) return completion_result.status();
    if (first.ok()) first = completion_result->ToStatus();
  }
  return first;
}

std::vector<uint8_t> MakePingPayload() {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kPing));
  return payload;
}

std::vector<uint8_t> MakeScanEqualPayload(const std::string& table,
                                          uint32_t column,
                                          const storage::Value& value,
                                          uint32_t limit) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kScanEqual));
  writer.U64(0);  // ad-hoc snapshot — eligible for out-of-order completion
  writer.Str(table);
  writer.U32(column);
  writer.Value(value);
  writer.U32(limit);
  return payload;
}

std::vector<uint8_t> MakeCountPayload(const std::string& table) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kCount));
  writer.U64(0);
  writer.Str(table);
  return payload;
}

std::vector<uint8_t> MakeInsertBatchPayload(
    const std::string& table, const std::vector<storage::Value>& row) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kDmlBatch));
  writer.U32(1);
  writer.U8(DmlOp::kInsert);
  writer.DmlBody(DmlOp::kInsert, table, {}, row);
  return payload;
}

}  // namespace hyrise_nv::net
