#ifndef HYRISE_NV_NET_CLIENT_H_
#define HYRISE_NV_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/net_util.h"
#include "net/wire.h"
#include "storage/types.h"

namespace hyrise_nv::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Per-attempt TCP connect timeout.
  int connect_timeout_ms = 2'000;
  /// Per-response read timeout. 0 waits forever.
  int read_timeout_ms = 10'000;
  /// Connect()/reconnect retry budget. Attempts back off exponentially
  /// from retry_base_ms, doubling up to retry_cap_ms. This is what makes
  /// a client ride out a server kill -9 + instant restart: it keeps
  /// knocking until the recovered server answers the handshake.
  int max_retries = 30;
  int retry_base_ms = 20;
  int retry_cap_ms = 1'000;
  /// Automatically re-dial + re-handshake when a request hits a dead
  /// connection, then surface the original error (the request itself is
  /// NOT replayed: the client cannot know whether it executed).
  bool auto_reconnect = true;
  /// Highest protocol version to offer at the handshake. Lower it to 1
  /// to speak v1 framing against any server (cross-version compat
  /// tests); by default the client negotiates up to v2 tagged frames.
  uint16_t protocol_max = kProtocolVersionMax;
  /// Pipeline window to request in a v2 hello. 0 asks for the server
  /// default; the granted window is readable via pipeline_window().
  /// The blocking client itself never has more than one request in
  /// flight — this matters when the fd is handed to a pipelined driver.
  uint32_t request_window = 0;
};

/// Result shape of a scan over the wire.
struct ScanResult {
  std::vector<WireRow> rows;
  /// The server hit the row limit or the response payload cap; the
  /// result is a prefix.
  bool truncated = false;
};

/// Blocking call-and-response client for the Hyrise-NV wire protocol.
///
/// Not thread-safe: one Client per thread (or external locking). A
/// Client owns at most one server session, which in turn owns at most
/// one open transaction; Begin() returns the tid for bookkeeping but the
/// session is the real scope.
///
/// Error model: engine errors come back as the engine's own Status
/// (byte-identical StatusCode over the wire). Transport and serving
/// rejections surface as IOError; last_wire_code() tells retryable
/// rejections (overloaded/draining) apart from hard transport failures.
class Client {
 public:
  explicit Client(ClientOptions options) : options_(std::move(options)) {}
  Client() = default;

  HYRISE_NV_DISALLOW_COPY(Client);
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Dials and handshakes, retrying with exponential backoff per
  /// ClientOptions. On success the negotiated protocol version, server
  /// durability mode and session id are readable below.
  Status Connect();
  /// Single connect attempt, no retries (probes in tests/benches).
  Status ConnectOnce();
  void Close();
  bool connected() const { return fd_.valid(); }

  uint16_t protocol_version() const { return protocol_version_; }
  /// Pipeline window granted by a v2 handshake (0 on a v1 session).
  uint32_t pipeline_window() const { return pipeline_window_; }
  /// core::DurabilityMode of the server, as a raw byte.
  uint8_t server_mode() const { return server_mode_; }
  uint64_t session_id() const { return session_id_; }
  /// Tid of the open session transaction, 0 when none. Maintained by
  /// Begin/Commit/Abort; used to route in_txn reads.
  uint64_t current_tid() const { return current_tid_; }
  /// Wire code of the most recent response (kOk after a success).
  WireCode last_wire_code() const { return last_wire_code_; }
  /// True when the last rejection was the server warming up (background
  /// index build in progress) — retryable, and distinct from kOverloaded:
  /// the right backoff is "wait for the build", not "reduce offered
  /// load".
  bool last_warming() const {
    return last_wire_code_ == WireCode::kWarming;
  }
  /// Connect attempts made by the last Connect() (restart-downtime
  /// probes read this).
  int last_connect_attempts() const { return last_connect_attempts_; }
  /// Wall-clock round-trip of the most recent request (send → full
  /// response frame read), 0 before the first request. Survives request
  /// failures: a timed-out roundtrip reports the time until the failure.
  uint64_t last_rtt_ns() const { return last_rtt_ns_; }

  // --- Transactions (session-scoped) ---------------------------------------

  struct BeginInfo {
    uint64_t tid = 0;
    uint64_t snapshot = 0;
  };
  Result<BeginInfo> Begin();
  /// Returns the commit CID.
  Result<uint64_t> Commit();
  Status Abort();

  // --- Two-phase commit (coordinator-side verbs) ---------------------------

  /// Phase one: durably prepares the session's open transaction under
  /// the coordinator-issued gtid. On success the transaction detaches
  /// from this session; only Decide moves it further. On failure it
  /// stays open (abort it).
  Status Prepare(uint64_t gtid);
  /// Phase two: commit or abort the prepared transaction `gtid`. Not
  /// session-bound — valid on any connection, idempotent by gtid.
  Status Decide(uint64_t gtid, bool commit);
  /// Every prepared-but-undecided gtid on the server (recovery
  /// handshake).
  Result<std::vector<uint64_t>> InDoubt();

  // --- DML -----------------------------------------------------------------

  Result<storage::RowLocation> Insert(const std::string& table,
                                      const std::vector<storage::Value>& row);
  Result<storage::RowLocation> Update(const std::string& table,
                                      storage::RowLocation loc,
                                      const std::vector<storage::Value>& row);
  Status Delete(const std::string& table, storage::RowLocation loc);
  /// One op in the session transaction, sent as kInsert, kUpdate or
  /// kDelete by `kind` (DmlOp's values); `loc` is ignored for an insert
  /// and `row` for a delete. Returns the op's location: a delete, which
  /// the server answers with a status only, echoes `loc`.
  Result<storage::RowLocation> Dml(uint8_t kind, const std::string& table,
                                   storage::RowLocation loc,
                                   const std::vector<storage::Value>& row);

  struct DmlBatchResult {
    /// One location per op, in op order (a delete echoes the location it
    /// removed).
    std::vector<storage::RowLocation> locs;
    uint64_t cid = 0;
  };
  /// Sends the whole batch as ONE frame; the server applies it as one
  /// transaction (one group-commit fsync, one publish) and the batch is
  /// atomic — any failing op aborts it all, and the error message names
  /// the op index. Requires no open session transaction (autocommit).
  Result<DmlBatchResult> DmlBatch(const std::vector<DmlOp>& ops);

  // --- Queries -------------------------------------------------------------

  /// in_txn reads through the session transaction; otherwise the server
  /// takes an ad-hoc snapshot. limit 0 means server default (unbounded
  /// up to the payload cap).
  Result<ScanResult> ScanEqual(const std::string& table, uint32_t column,
                               const storage::Value& value,
                               bool in_txn = false, uint32_t limit = 0);
  Result<ScanResult> ScanRange(const std::string& table, uint32_t column,
                               const storage::Value& lo,
                               const storage::Value& hi,
                               bool in_txn = false, uint32_t limit = 0);
  Result<uint64_t> Count(const std::string& table, bool in_txn = false);

  // --- DDL / admin ---------------------------------------------------------

  Result<uint64_t> CreateTable(
      const std::string& name,
      const std::vector<std::pair<std::string, storage::DataType>>& columns);
  Status CreateIndex(const std::string& table, uint32_t column,
                     uint8_t kind = 0);
  Status Ping();
  /// Server + engine stats as JSON.
  Result<std::string> Stats();
  /// The server's last RecoveryReport as JSON (shows the instant-restart
  /// span after an NVM recovery), extended with the live serving state.
  Result<std::string> RecoveryInfo();
  /// Polls RecoveryInfo until the server reports serving_state "ready"
  /// (background index build complete). Returns immediately on servers
  /// without a degraded mode. Fails with Aborted on timeout.
  Status WaitUntilReady(int timeout_ms, int poll_ms = 50);
  Status Checkpoint();
  /// Asks the server to drain. The connection is expected to die shortly
  /// after the OK ack.
  Status Drain();

  /// Raw request/response escape hatch (tests). Sends `payload` as one
  /// frame and returns the response payload.
  Result<std::vector<uint8_t>> Roundtrip(const std::vector<uint8_t>& payload);

 private:
  /// Sends `payload`, reads one response frame, checks the opcode echo
  /// and wire code. Returns the response body reader position: a reader
  /// over the bytes after [opcode][code]. On transport failure with
  /// auto_reconnect, re-dials once (without replaying) so the NEXT
  /// request finds a live connection.
  Result<std::vector<uint8_t>> Call(Opcode op,
                                    const std::vector<uint8_t>& payload);

  ClientOptions options_;
  OwnedFd fd_;
  uint16_t protocol_version_ = 0;
  uint32_t pipeline_window_ = 0;
  uint32_t next_tag_ = 1;
  uint8_t server_mode_ = 0;
  uint64_t session_id_ = 0;
  uint64_t current_tid_ = 0;
  WireCode last_wire_code_ = WireCode::kOk;
  int last_connect_attempts_ = 0;
  uint64_t last_rtt_ns_ = 0;
};

}  // namespace hyrise_nv::net

#endif  // HYRISE_NV_NET_CLIENT_H_
