#ifndef HYRISE_NV_NET_SERVER_H_
#define HYRISE_NV_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/database.h"

namespace hyrise_nv::net {

/// Serving-layer configuration.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Server::port().
  uint16_t port = 0;
  /// Epoll event-loop threads. Connections are spread round-robin; each
  /// connection is owned by exactly one worker, so per-connection state
  /// needs no locking.
  int num_workers = 2;
  /// Accept cap: further connections get an Overloaded error frame and
  /// an immediate close.
  int max_connections = 256;
  /// Admission control: requests executing concurrently across all
  /// workers. Excess requests are rejected with kOverloaded (503-style)
  /// instead of queueing unboundedly.
  int max_inflight = 256;
  /// Connections idle (no complete request) longer than this are closed;
  /// an open transaction on such a session is aborted. 0 disables.
  int idle_timeout_ms = 60'000;
  /// Requests whose end-to-end latency (frame-read-complete → response
  /// fully handed to the socket) exceeds this threshold are captured: a
  /// kSlowRequest blackbox event with the dominant stage plus an entry
  /// in the in-memory slow-request ring surfaced by the stats op.
  /// 0 disables capture.
  uint64_t slow_request_us = 100'000;
};

/// Point-in-time serving counters (tests and the stats op).
struct ServerCounters {
  uint64_t accepted = 0;
  uint64_t overload_rejected = 0;
  uint64_t warming_rejected = 0;
  uint64_t protocol_errors = 0;
  uint64_t requests = 0;
  int open_connections = 0;
  int open_transactions = 0;
};

class ServerImpl;

/// Epoll-based multi-threaded request server over a Database.
///
/// Lifecycle: Start() binds + spawns the acceptor and workers and
/// returns immediately. Drain() initiates a graceful shutdown: the
/// listener closes, the request in flight on each worker completes,
/// every session's open transaction is aborted, and connections close.
/// Wait() blocks until that has happened. The caller owns the Database
/// and closes it after Wait() — by then no session holds a transaction,
/// so Close() seals a clean image (DESIGN.md §10.3).
///
/// Sessions: one connection = one session = at most one open
/// transaction. A connection that dies mid-transaction (client crash,
/// network drop, idle timeout) has its transaction aborted by the
/// server, so its unstamped versions stay invisible forever.
///
/// kill -9 tolerance is inherited from the engine: the server adds no
/// volatile commit state, so a SIGKILL at any point leaves the NVM image
/// recoverable by the normal instant-restart path.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(core::Database* db,
                                               const ServerOptions& options);
  ~Server();

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(Server);

  /// The bound port (resolves port 0).
  uint16_t port() const;

  /// Initiates a graceful drain (idempotent, returns immediately).
  void Drain();

  /// Blocks until the server has fully drained and all threads joined.
  void Wait();

  bool draining() const;

  ServerCounters counters() const;

 private:
  explicit Server(std::unique_ptr<ServerImpl> impl);
  std::unique_ptr<ServerImpl> impl_;
};

}  // namespace hyrise_nv::net

#endif  // HYRISE_NV_NET_SERVER_H_
