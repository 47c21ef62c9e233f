#include "cluster/router.h"

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "cluster/decision_log.h"
#include "common/logging.h"
#include "net/client.h"
#include "net/net_util.h"
#include "net/wire.h"

namespace hyrise_nv::cluster {

namespace {

using net::MakeErrorPayload;
using net::MakeStatusPayload;
using net::Opcode;
using net::WireCode;
using net::WireReader;
using net::WireWriter;

/// Shard id lives in bits 56..63 of RowLocation.row at the router
/// boundary (engine rows never get near 2^56). Tagged on the way out,
/// stripped on the way back in.
constexpr uint64_t kShardTagShift = 56;
constexpr uint64_t kRowMask = (1ull << kShardTagShift) - 1;

/// Shard clients dial with this timeout and read with ClientOptions'
/// default (10 s).
constexpr int kShardConnectTimeoutMs = 1'000;

storage::RowLocation TagLoc(storage::RowLocation loc, size_t shard) {
  loc.row |= static_cast<uint64_t>(shard) << kShardTagShift;
  return loc;
}

size_t LocShard(storage::RowLocation loc) {
  return static_cast<size_t>(loc.row >> kShardTagShift);
}

storage::RowLocation UntagLoc(storage::RowLocation loc) {
  loc.row &= kRowMask;
  return loc;
}

/// Extracts `"serving_state":"..."` from a recovery-info JSON blob.
std::string ParseServingState(const std::string& json) {
  const std::string key = "\"serving_state\":\"";
  const size_t pos = json.find(key);
  if (pos == std::string::npos) return "ready";
  const size_t start = pos + key.size();
  const size_t end = json.find('"', start);
  if (end == std::string::npos) return "ready";
  return json.substr(start, end - start);
}

}  // namespace

class Router::Impl {
 public:
  explicit Impl(const RouterOptions& options)
      : options_(options),
        shard_map_(options.shards.size(), options.partitioning,
                   options.range_width) {}

  ~Impl() { Stop(); }

  Status Start() {
    if (options_.shards.empty()) {
      return Status::InvalidArgument("router needs at least one shard");
    }
    if (options_.data_dir.empty()) {
      return Status::InvalidArgument(
          "router needs a data_dir for the decision log");
    }
    auto log_result =
        DecisionLog::Open(options_.data_dir + "/decisions.log");
    if (!log_result.ok()) return log_result.status();
    decision_log_ = std::move(log_result).ValueUnsafe();

    auto listener_result =
        net::CreateListener(options_.host, options_.port);
    if (!listener_result.ok()) return listener_result.status();
    listen_fd_ = std::move(listener_result).ValueUnsafe();
    auto port_result = net::LocalPort(listen_fd_.get());
    if (!port_result.ok()) return port_result.status();
    port_ = *port_result;

    resolver_ = std::thread([this] { ResolverLoop(); });
    acceptor_ = std::thread([this] { AcceptLoop(); });
    HYRISE_NV_LOG(kInfo) << "router listening on " << options_.host << ":"
                         << port_ << " with " << options_.shards.size()
                         << " shards (" << shard_map_.ToJson() << ")";
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  void Stop() {
    bool expected = false;
    if (!stop_.compare_exchange_strong(expected, true)) return;
    resolver_cv_.notify_all();
    if (acceptor_.joinable()) acceptor_.join();
    if (resolver_.joinable()) resolver_.join();
    {
      std::lock_guard<std::mutex> guard(sessions_mutex_);
      for (auto& session : sessions_) {
        if (session->fd.valid()) {
          ::shutdown(session->fd.get(), SHUT_RDWR);
        }
      }
    }
    for (;;) {
      std::unique_ptr<Session> session;
      {
        std::lock_guard<std::mutex> guard(sessions_mutex_);
        if (sessions_.empty()) break;
        session = std::move(sessions_.back());
        sessions_.pop_back();
      }
      if (session->thread.joinable()) session->thread.join();
    }
  }

 private:
  struct Session {
    net::OwnedFd fd;
    uint64_t id = 0;
    std::thread thread;
    std::atomic<bool> done{false};  // SessionLoop has returned
  };

  /// Everything a session thread owns: one lazily-connected Client per
  /// shard (the Client is single-threaded, so clients are per-session),
  /// plus the state of the at-most-one open client transaction.
  struct SessionCtx {
    std::vector<std::unique_ptr<net::Client>> clients;
    std::set<size_t> txn_shards;  // shards with an open backend txn
    bool txn_open = false;
    uint64_t vtid = 0;  // router-minted tid handed to the client
  };

  struct PendingDecide {
    size_t shard;
    uint64_t gtid;
    bool commit;
  };

  size_t num_shards() const { return options_.shards.size(); }

  net::ClientOptions ShardClientOptions(size_t shard) const {
    net::ClientOptions opts;
    opts.host = options_.shards[shard].host;
    opts.port = options_.shards[shard].port;
    opts.connect_timeout_ms = kShardConnectTimeoutMs;
    opts.max_retries = options_.shard_max_retries;
    return opts;
  }

  // --- Accept / session plumbing -----------------------------------------

  void AcceptLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      ReapSessions();
      pollfd pfd{listen_fd_.get(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready <= 0) continue;
      const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (fd < 0) continue;
      (void)net::ConfigureAcceptedSocket(fd);
      auto session = std::make_unique<Session>();
      session->fd = net::OwnedFd(fd);
      session->id = ++next_session_id_;
      Session* raw = session.get();
      session->thread = std::thread([this, raw] { SessionLoop(raw); });
      std::lock_guard<std::mutex> guard(sessions_mutex_);
      sessions_.push_back(std::move(session));
    }
  }

  /// Joins and frees the sessions that have ended, closing their sockets.
  /// An ended session's thread is returning, so the join does not block.
  void ReapSessions() {
    std::lock_guard<std::mutex> guard(sessions_mutex_);
    std::erase_if(sessions_, [](const std::unique_ptr<Session>& session) {
      if (!session->done.load(std::memory_order_acquire)) return false;
      session->thread.join();
      return true;
    });
  }

  void SessionLoop(Session* session) {
    sessions_open_.fetch_add(1, std::memory_order_relaxed);
    SessionCtx ctx;
    ctx.clients.resize(num_shards());
    bool handshaken = false;
    uint16_t version = 1;
    const int fd = session->fd.get();
    for (;;) {
      // Pre-handshake traffic (and the whole hello exchange) is always
      // v1-framed; a negotiated v2 session switches to tagged frames on
      // the first post-hello frame, and the router echoes each request's
      // tag on its response. The session is processed strictly FIFO —
      // a legal v2 completion order — so pipelined clients simply keep
      // the router's socket fed. Frames are refused by the shard's own
      // rules (DESIGN.md §10.2); only a failed socket ends the session
      // without an answer.
      uint32_t tag = 0;
      auto request = net::RecvFrame(fd, version, 0, &tag);
      if (!request.ok() && request.status().code() == StatusCode::kIOError) {
        break;
      }
      const uint16_t reply_version = version;  // the hello reply is v1
      std::vector<uint8_t> response;
      bool close_after = true;
      if (!request.ok()) {
        response = net::MakeFrameErrorPayload(request.status());
        tag = 0;
      } else {
        const net::Refusal refusal =
            net::RefuseRequest((*request)[0], handshaken, &response);
        const Opcode op = static_cast<Opcode>((*request)[0]);
        WireReader reader(request->data() + 1, request->size() - 1);
        if (refusal != net::Refusal::kNone) {
          close_after = refusal == net::Refusal::kClose;
        } else if (!handshaken) {
          handshaken = HandleHello(session, reader, &response, &version);
          close_after = !handshaken;
        } else {
          close_after = false;
          response = Route(op, &ctx, reader, &close_after);
        }
      }
      if (!net::SendFrame(fd, reply_version, tag, response).ok() ||
          close_after) {
        break;
      }
    }
    // The client sees EOF as soon as the session ends, as from a shard;
    // the accept loop closes the socket when it reaps the session.
    ::shutdown(fd, SHUT_RDWR);
    // Client gone with a transaction still open: abort it on every shard
    // it touched. Prepared (2PC) work is never here — prepare hands the
    // backend transaction over to the shard's prepared registry and the
    // commit path clears the session state.
    if (ctx.txn_open) {
      for (size_t shard : ctx.txn_shards) {
        if (ctx.clients[shard] && ctx.clients[shard]->connected()) {
          (void)ctx.clients[shard]->Abort();
        }
      }
    }
    sessions_open_.fetch_add(-1, std::memory_order_relaxed);
    session->done.store(true, std::memory_order_release);
  }

  /// Answers a hello with the shard's own parser and negotiation, so a
  /// client gets the same answer through the router as from a shard.
  /// Returns false when the session closes after `response`.
  bool HandleHello(Session* session, WireReader& reader,
                   std::vector<uint8_t>* response, uint16_t* version) {
    auto hello = net::ParseHello(reader);
    if (!hello.ok()) {
      *response = MakeErrorPayload(Opcode::kHello, WireCode::kProtocolError,
                                   hello.status().message());
      return false;
    }
    // The router grants the window a shard would, though it never sheds
    // on overflow: its session loop is FIFO, and excess requests just
    // queue in the socket.
    auto reply = net::Negotiate(*hello);
    if (!reply.ok()) {
      *response = MakeStatusPayload(Opcode::kHello, reply.status());
      return false;
    }
    reply->mode = shard_mode_.load(std::memory_order_relaxed);
    reply->session_id = session->id;
    *response = net::EncodeHelloReply(*reply);
    *version = reply->version;
    return true;
  }

  // --- Shard access helpers ----------------------------------------------

  Result<net::Client*> EnsureClient(SessionCtx* ctx, size_t shard) {
    if (ctx->clients[shard] == nullptr) {
      ctx->clients[shard] =
          std::make_unique<net::Client>(ShardClientOptions(shard));
    }
    net::Client* client = ctx->clients[shard].get();
    if (!client->connected()) {
      HYRISE_NV_RETURN_NOT_OK(client->Connect());
      shard_mode_.store(client->server_mode(), std::memory_order_relaxed);
    }
    return client;
  }

  /// Client + an open backend transaction on `shard` (lazily begun the
  /// first time the client transaction touches the shard).
  Result<net::Client*> EnsureTxn(SessionCtx* ctx, size_t shard) {
    auto client_result = EnsureClient(ctx, shard);
    if (!client_result.ok()) return client_result;
    if (ctx->txn_shards.count(shard) == 0) {
      auto begin_result = (*client_result)->Begin();
      if (!begin_result.ok()) return begin_result.status();
      ctx->txn_shards.insert(shard);
    }
    return client_result;
  }

  void ClearTxn(SessionCtx* ctx) {
    ctx->txn_open = false;
    ctx->txn_shards.clear();
    ctx->vtid = 0;
  }

  Status CheckTid(const SessionCtx& ctx, uint64_t tid) const {
    if (!ctx.txn_open) {
      return Status::InvalidArgument("no open transaction on this session");
    }
    if (tid != 0 && tid != ctx.vtid) {
      return Status::InvalidArgument(
          "transaction id " + std::to_string(tid) +
          " does not match this session's open transaction " +
          std::to_string(ctx.vtid));
    }
    return Status::OK();
  }

  // --- Routing ------------------------------------------------------------

  std::vector<uint8_t> Route(Opcode op, SessionCtx* ctx, WireReader& reader,
                             bool* close_after) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (draining_.load(std::memory_order_acquire) && op != Opcode::kDrain) {
      return MakeErrorPayload(op, WireCode::kDraining, "router is draining");
    }
    switch (op) {
      case Opcode::kPing:
        return MakeStatusPayload(op, Status::OK());
      case Opcode::kBegin:
        return ExecBegin(ctx);
      case Opcode::kCommit:
        return ExecCommit(ctx, reader);
      case Opcode::kAbort:
        return ExecAbort(ctx, reader);
      case Opcode::kInsert:
      case Opcode::kUpdate:
      case Opcode::kDelete:
        return ExecDml(op, ctx, reader);
      case Opcode::kDmlBatch:
        return ExecDmlBatch(ctx, reader);
      case Opcode::kScanEqual:
      case Opcode::kScanRange:
        return ExecScan(op, ctx, reader);
      case Opcode::kCount:
        return ExecCount(ctx, reader);
      case Opcode::kCreateTable:
        return ExecCreateTable(ctx, reader);
      case Opcode::kCreateIndex:
        return ExecCreateIndex(ctx, reader);
      case Opcode::kCheckpoint:
        return ExecBroadcastStatus(
            op, ctx, [](net::Client* c) { return c->Checkpoint(); });
      case Opcode::kStats:
        return ExecStats(ctx);
      case Opcode::kRecoveryInfo:
        return ExecRecoveryInfo(ctx);
      case Opcode::kDrain:
        // Drains the router only; shards are drained by their own
        // operators (a router drain must not take healthy shards down).
        draining_.store(true, std::memory_order_release);
        *close_after = true;
        return MakeStatusPayload(op, Status::OK());
      case Opcode::kPrepare:
      case Opcode::kDecide:
      case Opcode::kInDoubt:
        return MakeStatusPayload(
            op, Status::NotSupported(
                    "the router coordinates 2PC; only shards accept "
                    "prepare/decide/in_doubt"));
      case Opcode::kHello:
        break;
    }
    return MakeErrorPayload(op, WireCode::kInternal, "unroutable opcode");
  }

  std::vector<uint8_t> ExecBegin(SessionCtx* ctx) {
    if (ctx->txn_open) {
      return MakeErrorPayload(
          Opcode::kBegin, WireCode::kInvalidArgument,
          "session already has an open transaction (tid " +
              std::to_string(ctx->vtid) + ")");
    }
    ctx->txn_open = true;
    ctx->vtid = next_vtid_.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kBegin));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64(ctx->vtid);
    // No global snapshot exists across shards (DESIGN.md §16.5): each
    // shard transaction snapshots independently when first touched.
    writer.U64(0);
    return payload;
  }

  /// The shard that owns `op`: an insert goes by its key, an update or
  /// delete by its location's shard tag, which this strips. An update
  /// that would move its row to another shard is refused: the row would
  /// be orphaned on the old shard, so callers delete and insert.
  Result<size_t> RouteOp(net::DmlOp* op) const {
    if (op->kind == net::DmlOp::kInsert) {
      if (op->row.empty()) {
        return Status::InvalidArgument("cannot shard an empty row");
      }
      return shard_map_.ShardForKey(op->row[0]);
    }
    const size_t shard = LocShard(op->loc);
    if (shard >= num_shards()) {
      return Status::InvalidArgument("row location names an unknown shard");
    }
    if (op->kind == net::DmlOp::kUpdate && !op->row.empty() &&
        shard_map_.ShardForKey(op->row[0]) != shard) {
      return Status::NotSupported(
          "update may not move a row across shards (shard key changed)");
    }
    op->loc = UntagLoc(op->loc);
    return shard;
  }

  /// kInsert, kUpdate or kDelete in the session's transaction, forwarded
  /// to the owning shard's backend transaction.
  std::vector<uint8_t> ExecDml(Opcode op, SessionCtx* ctx,
                               WireReader& reader) {
    const uint64_t tid = reader.U64();
    net::DmlOp dml = reader.DmlBody(net::DmlKind(op));
    if (!reader.ok()) {
      return MakeErrorPayload(op, WireCode::kInvalidArgument,
                              std::string("malformed ") +
                                  net::OpcodeName(op) + " body");
    }
    Status status = CheckTid(*ctx, tid);
    if (!status.ok()) return MakeStatusPayload(op, status);
    auto shard_result = RouteOp(&dml);
    if (!shard_result.ok()) {
      return MakeStatusPayload(op, shard_result.status());
    }
    const size_t shard = *shard_result;
    auto client_result = EnsureTxn(ctx, shard);
    if (!client_result.ok()) {
      return MakeStatusPayload(op, client_result.status());
    }
    auto loc_result =
        (*client_result)->Dml(dml.kind, dml.table, dml.loc, dml.row);
    if (!loc_result.ok() || op == Opcode::kDelete) {
      return MakeStatusPayload(op, loc_result.status());
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(op));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.Loc(TagLoc(*loc_result, shard));
    return payload;
  }

  /// Batched autocommit DML rides through the router when every op in
  /// the batch lands on ONE shard — then the whole batch forwards as a
  /// single frame and keeps its one-fsync/one-publish atomicity. A batch
  /// spanning shards would need 2PC to stay atomic; callers split per
  /// shard instead (kNotSupported tells them so).
  std::vector<uint8_t> ExecDmlBatch(SessionCtx* ctx, WireReader& reader) {
    constexpr Opcode kOp = Opcode::kDmlBatch;
    if (ctx->txn_open) {
      return MakeErrorPayload(
          kOp, WireCode::kInvalidArgument,
          "dml_batch is autocommit; commit or abort the session "
          "transaction first");
    }
    const uint32_t count = reader.U32();
    if (!reader.ok() || count == 0) {
      return MakeErrorPayload(kOp, WireCode::kInvalidArgument,
                              "malformed dml_batch body");
    }
    // `count` comes from the peer, so nothing is sized by it: the ops
    // vector grows only as ops actually decode.
    std::vector<net::DmlOp> ops;
    size_t shard = SIZE_MAX;
    for (uint32_t i = 0; i < count; ++i) {
      net::DmlOp op = reader.BatchOp();
      Result<size_t> op_shard =
          reader.ok() ? RouteOp(&op)
                      : Status::InvalidArgument("malformed dml_batch op");
      if (op_shard.ok() && shard != SIZE_MAX && *op_shard != shard) {
        op_shard = Status::NotSupported(
            "dml_batch ops span shards " + std::to_string(shard) + " and " +
            std::to_string(*op_shard) +
            "; split the batch per shard to keep it atomic");
      }
      if (!op_shard.ok()) {
        return MakeErrorPayload(kOp,
                                net::WireCodeFromStatus(op_shard.status()),
                                "op " + std::to_string(i) + ": " +
                                    std::string(op_shard.status().message()));
      }
      shard = *op_shard;
      ops.push_back(std::move(op));
    }
    auto client_result = EnsureClient(ctx, shard);
    if (!client_result.ok()) {
      return MakeStatusPayload(kOp, client_result.status());
    }
    auto batch_result = (*client_result)->DmlBatch(ops);
    if (!batch_result.ok()) {
      return MakeStatusPayload(kOp, batch_result.status());
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(kOp));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U32(count);
    for (const storage::RowLocation& loc : batch_result->locs) {
      writer.Loc(TagLoc(loc, shard));
    }
    writer.U64(batch_result->cid);
    return payload;
  }

  std::vector<uint8_t> ExecScan(Opcode op, SessionCtx* ctx,
                                WireReader& reader) {
    const uint64_t tid = reader.U64();
    const std::string table = reader.Str();
    const uint32_t column = reader.U32();
    const storage::Value value = reader.Value();
    storage::Value hi;
    if (op == Opcode::kScanRange) hi = reader.Value();
    const uint32_t limit = reader.U32();
    if (!reader.ok()) {
      return MakeErrorPayload(op, WireCode::kInvalidArgument,
                              "malformed scan body");
    }
    const bool in_txn = tid != 0;
    if (in_txn) {
      Status status = CheckTid(*ctx, tid);
      if (!status.ok()) return MakeStatusPayload(op, status);
    }
    // Equality on the shard-key column (column 0 by convention) routes
    // to exactly one shard; everything else fans out and merges.
    std::vector<size_t> targets;
    if (op == Opcode::kScanEqual && column == 0) {
      targets.push_back(shard_map_.ShardForKey(value));
    } else {
      for (size_t s = 0; s < num_shards(); ++s) targets.push_back(s);
    }
    std::vector<std::pair<size_t, net::WireRow>> rows;
    bool truncated = false;
    for (size_t shard : targets) {
      auto client_result = EnsureClient(ctx, shard);
      if (!client_result.ok()) {
        return MakeStatusPayload(op, client_result.status());
      }
      // A shard the transaction never wrote reads through an ad-hoc
      // snapshot instead (there is no shard transaction to read through).
      const bool shard_in_txn = in_txn && ctx->txn_shards.count(shard) > 0;
      Result<net::ScanResult> scan_result =
          op == Opcode::kScanEqual
              ? (*client_result)
                    ->ScanEqual(table, column, value, shard_in_txn, limit)
              : (*client_result)
                    ->ScanRange(table, column, value, hi, shard_in_txn,
                                limit);
      if (!scan_result.ok()) {
        return MakeStatusPayload(op, scan_result.status());
      }
      truncated = truncated || scan_result->truncated;
      for (auto& row : scan_result->rows) {
        rows.emplace_back(shard, std::move(row));
      }
    }
    if (limit > 0 && rows.size() > limit) {
      rows.resize(limit);
      truncated = true;
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(op));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U8(truncated ? 1 : 0);
    writer.U32(static_cast<uint32_t>(rows.size()));
    for (const auto& [shard, row] : rows) {
      writer.Loc(TagLoc(row.loc, shard));
      writer.Row(row.values);
    }
    return payload;
  }

  std::vector<uint8_t> ExecCount(SessionCtx* ctx, WireReader& reader) {
    const uint64_t tid = reader.U64();
    const std::string table = reader.Str();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kCount, WireCode::kInvalidArgument,
                              "malformed count body");
    }
    const bool in_txn = tid != 0;
    if (in_txn) {
      Status status = CheckTid(*ctx, tid);
      if (!status.ok()) return MakeStatusPayload(Opcode::kCount, status);
    }
    uint64_t total = 0;
    for (size_t shard = 0; shard < num_shards(); ++shard) {
      auto client_result = EnsureClient(ctx, shard);
      if (!client_result.ok()) {
        return MakeStatusPayload(Opcode::kCount, client_result.status());
      }
      const bool shard_in_txn = in_txn && ctx->txn_shards.count(shard) > 0;
      auto count_result = (*client_result)->Count(table, shard_in_txn);
      if (!count_result.ok()) {
        return MakeStatusPayload(Opcode::kCount, count_result.status());
      }
      total += *count_result;
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kCount));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64(total);
    return payload;
  }

  // --- Commit: single-shard passthrough vs two-phase commit ---------------

  std::vector<uint8_t> ExecCommit(SessionCtx* ctx, WireReader& reader) {
    const uint64_t tid = reader.U64();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kCommit, WireCode::kInvalidArgument,
                              "malformed commit body");
    }
    Status status = CheckTid(*ctx, tid);
    if (!status.ok()) return MakeStatusPayload(Opcode::kCommit, status);

    std::vector<uint8_t> response;
    if (ctx->txn_shards.empty()) {
      // Pure-router transaction (no shard ever touched): trivially
      // committed.
      WireWriter writer(&response);
      writer.U8(static_cast<uint8_t>(Opcode::kCommit));
      writer.U8(static_cast<uint8_t>(WireCode::kOk));
      writer.U64(0);
    } else if (ctx->txn_shards.size() == 1) {
      response = CommitSingleShard(ctx, *ctx->txn_shards.begin());
    } else {
      response = CommitTwoPhase(ctx);
    }
    ClearTxn(ctx);
    return response;
  }

  std::vector<uint8_t> CommitSingleShard(SessionCtx* ctx, size_t shard) {
    single_shard_commits_.fetch_add(1, std::memory_order_relaxed);
    auto cid_result = ctx->clients[shard]->Commit();
    if (!cid_result.ok()) {
      return MakeStatusPayload(Opcode::kCommit, cid_result.status());
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kCommit));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64(*cid_result);
    return payload;
  }

  std::vector<uint8_t> CommitTwoPhase(SessionCtx* ctx) {
    cross_shard_commits_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t gtid = decision_log_->NextGtid();

    // Phase one: prepare everywhere. First failure wins and flips the
    // outcome to abort.
    std::vector<size_t> prepared;
    std::vector<size_t> unprepared;
    Status failure;
    for (size_t shard : ctx->txn_shards) {
      if (failure.ok()) {
        Status status = ctx->clients[shard]->Prepare(gtid);
        if (status.ok()) {
          prepared.push_back(shard);
          continue;
        }
        failure = status;
      }
      unprepared.push_back(shard);
    }

    if (!failure.ok()) {
      twopc_aborts_.fetch_add(1, std::memory_order_relaxed);
      // Abort decision. No fsync needed: absence from the log is already
      // abort (presumed abort); the append is for forensics.
      (void)decision_log_->LogAbort(gtid);
      for (size_t shard : prepared) {
        if (!ctx->clients[shard]->Decide(gtid, false).ok()) {
          EnqueueDecide(shard, gtid, false);
        }
      }
      // Shards that never prepared (or whose prepare failed cleanly)
      // still hold an open session transaction — normal abort. If the
      // prepare failed on transport, the shard either never saw it
      // (session drop aborts it) or prepared it (it shows up in-doubt
      // and the resolver presumed-aborts it — the gtid is not logged
      // committed).
      for (size_t shard : unprepared) {
        if (ctx->clients[shard]->connected()) {
          (void)ctx->clients[shard]->Abort();
        }
      }
      return MakeStatusPayload(Opcode::kCommit, failure);
    }

    // Decision point: the commit decision is durable in the coordinator
    // log BEFORE any participant learns it. A router crash after this
    // fsync replays the decides from the log; a crash before it aborts
    // by presumption. Participants crashing are converged by the
    // resolver either way.
    Status log_status = decision_log_->LogCommit(gtid);
    if (!log_status.ok()) {
      twopc_aborts_.fetch_add(1, std::memory_order_relaxed);
      for (size_t shard : prepared) {
        if (!ctx->clients[shard]->Decide(gtid, false).ok()) {
          EnqueueDecide(shard, gtid, false);
        }
      }
      return MakeStatusPayload(Opcode::kCommit, log_status);
    }

    // Phase two: decide-commit everywhere. A participant that dropped
    // (kill -9 mid-2PC) gets its decide re-driven by the resolver; the
    // client's commit is already safe — every vote is durably prepared
    // and the decision is durably logged.
    bool all_acked = true;
    for (size_t shard : ctx->txn_shards) {
      if (!ctx->clients[shard]->Decide(gtid, true).ok()) {
        all_acked = false;
        EnqueueDecide(shard, gtid, true);
      }
    }
    if (all_acked) {
      (void)decision_log_->LogRetired(gtid);
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kCommit));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    // Cross-shard commits have no single engine CID; the gtid is the
    // client-visible commit token.
    writer.U64(gtid);
    return payload;
  }

  std::vector<uint8_t> ExecAbort(SessionCtx* ctx, WireReader& reader) {
    const uint64_t tid = reader.U64();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kAbort, WireCode::kInvalidArgument,
                              "malformed abort body");
    }
    Status status = CheckTid(*ctx, tid);
    if (!status.ok()) return MakeStatusPayload(Opcode::kAbort, status);
    // Best effort per shard: an unreachable shard's transaction dies
    // with the router's dropped connection (the shard aborts session
    // transactions on disconnect).
    for (size_t shard : ctx->txn_shards) {
      if (ctx->clients[shard] && ctx->clients[shard]->connected()) {
        (void)ctx->clients[shard]->Abort();
      }
    }
    ClearTxn(ctx);
    return MakeStatusPayload(Opcode::kAbort, Status::OK());
  }

  // --- DDL / admin broadcast ----------------------------------------------

  template <typename Fn>
  std::vector<uint8_t> ExecBroadcastStatus(Opcode op, SessionCtx* ctx,
                                           Fn&& fn) {
    for (size_t shard = 0; shard < num_shards(); ++shard) {
      auto client_result = EnsureClient(ctx, shard);
      if (!client_result.ok()) {
        return MakeStatusPayload(op, client_result.status());
      }
      Status status = fn(*client_result);
      if (!status.ok()) return MakeStatusPayload(op, status);
    }
    return MakeStatusPayload(op, Status::OK());
  }

  std::vector<uint8_t> ExecCreateTable(SessionCtx* ctx,
                                       WireReader& reader) {
    const std::string name = reader.Str();
    const uint16_t num_columns = reader.U16();
    std::vector<std::pair<std::string, storage::DataType>> columns;
    for (uint16_t i = 0; i < num_columns && reader.ok(); ++i) {
      std::string col_name = reader.Str();
      const auto type = static_cast<storage::DataType>(reader.U8());
      columns.emplace_back(std::move(col_name), type);
    }
    if (!reader.ok() || columns.size() != num_columns) {
      return MakeErrorPayload(Opcode::kCreateTable,
                              WireCode::kInvalidArgument,
                              "malformed create-table body");
    }
    uint64_t first_id = 0;
    for (size_t shard = 0; shard < num_shards(); ++shard) {
      auto client_result = EnsureClient(ctx, shard);
      if (!client_result.ok()) {
        return MakeStatusPayload(Opcode::kCreateTable,
                                 client_result.status());
      }
      auto id_result = (*client_result)->CreateTable(name, columns);
      if (!id_result.ok()) {
        return MakeStatusPayload(Opcode::kCreateTable, id_result.status());
      }
      if (shard == 0) first_id = *id_result;
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kCreateTable));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64(first_id);
    return payload;
  }

  std::vector<uint8_t> ExecCreateIndex(SessionCtx* ctx,
                                       WireReader& reader) {
    const std::string table = reader.Str();
    const uint32_t column = reader.U32();
    const uint8_t kind = reader.U8();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kCreateIndex,
                              WireCode::kInvalidArgument,
                              "malformed create-index body");
    }
    return ExecBroadcastStatus(
        Opcode::kCreateIndex, ctx, [&](net::Client* client) {
          return client->CreateIndex(table, column, kind);
        });
  }

  // --- Observability -------------------------------------------------------

  /// Shard serving state for stats/recovery-info: "ready", "degraded",
  /// or "down". Uses the session's own client; a dead shard costs one
  /// fast connect attempt, not the full retry budget.
  std::string ProbeShardState(SessionCtx* ctx, size_t shard) {
    if (ctx->clients[shard] == nullptr) {
      ctx->clients[shard] =
          std::make_unique<net::Client>(ShardClientOptions(shard));
    }
    net::Client* client = ctx->clients[shard].get();
    if (!client->connected() && !client->ConnectOnce().ok()) {
      return "down";
    }
    auto info_result = client->RecoveryInfo();
    if (!info_result.ok()) return "down";
    return ParseServingState(*info_result);
  }

  std::string ClusterJson(SessionCtx* ctx) {
    std::string json = "\"cluster\":{\"shard_map\":" + shard_map_.ToJson() +
                       ",\"shards\":[";
    for (size_t shard = 0; shard < num_shards(); ++shard) {
      if (shard > 0) json += ",";
      json += "{\"id\":" + std::to_string(shard) + ",\"host\":\"" +
              options_.shards[shard].host +
              "\",\"port\":" + std::to_string(options_.shards[shard].port) +
              ",\"state\":\"" + ProbeShardState(ctx, shard) + "\"}";
    }
    json += "]}";
    return json;
  }

  std::vector<uint8_t> ExecStats(SessionCtx* ctx) {
    std::string json =
        "{\"router\":{\"sessions\":" +
        std::to_string(sessions_open_.load(std::memory_order_relaxed)) +
        ",\"requests\":" +
        std::to_string(requests_.load(std::memory_order_relaxed)) +
        ",\"commits_single_shard\":" +
        std::to_string(
            single_shard_commits_.load(std::memory_order_relaxed)) +
        ",\"commits_cross_shard\":" +
        std::to_string(
            cross_shard_commits_.load(std::memory_order_relaxed)) +
        ",\"twopc_aborts\":" +
        std::to_string(twopc_aborts_.load(std::memory_order_relaxed)) +
        ",\"in_doubt_resolved\":" +
        std::to_string(
            in_doubt_resolved_.load(std::memory_order_relaxed)) +
        ",\"decision_epoch\":" + std::to_string(decision_log_->epoch()) +
        ",\"unretired_commits\":" +
        std::to_string(decision_log_->live_commits()) + "}," +
        ClusterJson(ctx) + "}";
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kStats));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.Str(json);
    return payload;
  }

  std::vector<uint8_t> ExecRecoveryInfo(SessionCtx* ctx) {
    // The aggregate serving state is the weakest shard's: clients using
    // WaitUntilReady against the router wait for the whole fleet.
    std::string aggregate = "ready";
    std::string shards = "[";
    for (size_t shard = 0; shard < num_shards(); ++shard) {
      const std::string state = ProbeShardState(ctx, shard);
      if (state != "ready") aggregate = "degraded";
      if (shard > 0) shards += ",";
      shards += "{\"id\":" + std::to_string(shard) + ",\"state\":\"" +
                state + "\"}";
    }
    shards += "]";
    const std::string json = "{\"serving_state\":\"" + aggregate +
                             "\",\"shards\":" + shards + "}";
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kRecoveryInfo));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.Str(json);
    return payload;
  }

  // --- In-doubt resolution -------------------------------------------------

  void EnqueueDecide(size_t shard, uint64_t gtid, bool commit) {
    {
      std::lock_guard<std::mutex> guard(resolver_mutex_);
      pending_.push_back({shard, gtid, commit});
    }
    resolver_cv_.notify_one();
  }

  /// Background convergence (DESIGN.md §16.4). Two duties:
  ///  1. re-drive decides that failed mid-2PC (participant died between
  ///     prepare-ack and decide) until the participant acks;
  ///  2. handshake every shard's in-doubt list against the decision log:
  ///     logged commit → decide commit; logged abort → decide abort;
  ///     dead-epoch gtid → presumed abort. Current-epoch gtids without a
  ///     logged decision are live 2PC traffic owned by a session — left
  ///     alone.
  void ResolverLoop() {
    std::vector<std::unique_ptr<net::Client>> clients(num_shards());
    for (size_t s = 0; s < num_shards(); ++s) {
      net::ClientOptions opts = ShardClientOptions(s);
      opts.max_retries = 0;  // one attempt per sweep; sweeps repeat
      opts.connect_timeout_ms = 250;
      clients[s] = std::make_unique<net::Client>(opts);
    }
    while (!stop_.load(std::memory_order_acquire)) {
      {
        std::unique_lock<std::mutex> lock(resolver_mutex_);
        resolver_cv_.wait_for(
            lock,
            std::chrono::milliseconds(options_.resolver_interval_ms),
            [this] {
              return stop_.load(std::memory_order_acquire) ||
                     !pending_.empty();
            });
      }
      if (stop_.load(std::memory_order_acquire)) break;
      for (size_t shard = 0; shard < num_shards(); ++shard) {
        net::Client* client = clients[shard].get();
        if (!client->connected() && !client->Connect().ok()) continue;

        // Duty 1: pending decides for this shard.
        std::deque<PendingDecide> mine;
        {
          std::lock_guard<std::mutex> guard(resolver_mutex_);
          for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->shard == shard) {
              mine.push_back(*it);
              it = pending_.erase(it);
            } else {
              ++it;
            }
          }
        }
        for (const PendingDecide& decide : mine) {
          if (client->Decide(decide.gtid, decide.commit).ok()) {
            in_doubt_resolved_.fetch_add(1, std::memory_order_relaxed);
          } else {
            std::lock_guard<std::mutex> guard(resolver_mutex_);
            pending_.push_back(decide);
          }
        }

        // Duty 2: recovery handshake.
        auto in_doubt_result = client->InDoubt();
        if (!in_doubt_result.ok()) continue;
        for (uint64_t gtid : *in_doubt_result) {
          bool commit;
          if (decision_log_->KnownCommit(gtid)) {
            commit = true;
          } else if (decision_log_->KnownAbort(gtid)) {
            // A participant can durably log a prepare whose ack the
            // crash swallowed; the coordinator saw the prepare fail and
            // logged abort, never knowing the shard holds the txn
            // in-doubt. Presumed abort does not cover it (current
            // epoch), so the logged abort must.
            commit = false;
          } else if ((gtid >> 32) != decision_log_->epoch()) {
            commit = false;  // presumed abort: dead epoch, never logged
          } else {
            continue;  // live 2PC owned by a session thread
          }
          if (client->Decide(gtid, commit).ok()) {
            in_doubt_resolved_.fetch_add(1, std::memory_order_relaxed);
            HYRISE_NV_LOG(kInfo)
                << "resolver converged in-doubt gtid " << gtid
                << " on shard " << shard << " -> "
                << (commit ? "commit" : "abort");
          }
        }
      }
    }
  }

  RouterOptions options_;
  ShardMap shard_map_;
  std::unique_ptr<DecisionLog> decision_log_;

  net::OwnedFd listen_fd_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::thread resolver_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};

  std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 0;

  std::mutex resolver_mutex_;
  std::condition_variable resolver_cv_;
  std::deque<PendingDecide> pending_;

  std::atomic<uint64_t> next_vtid_{1};
  std::atomic<uint8_t> shard_mode_{0};
  std::atomic<int64_t> sessions_open_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> single_shard_commits_{0};
  std::atomic<uint64_t> cross_shard_commits_{0};
  std::atomic<uint64_t> twopc_aborts_{0};
  std::atomic<uint64_t> in_doubt_resolved_{0};
};

Router::Router(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Router::~Router() = default;

Result<std::unique_ptr<Router>> Router::Start(const RouterOptions& options) {
  auto impl = std::make_unique<Impl>(options);
  HYRISE_NV_RETURN_NOT_OK(impl->Start());
  return std::unique_ptr<Router>(new Router(std::move(impl)));
}

uint16_t Router::port() const { return impl_->port(); }

void Router::Stop() { impl_->Stop(); }

}  // namespace hyrise_nv::cluster
