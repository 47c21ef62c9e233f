#ifndef HYRISE_NV_CLUSTER_ROUTER_H_
#define HYRISE_NV_CLUSTER_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_map.h"
#include "common/status.h"

namespace hyrise_nv::cluster {

/// One backend `hyrise_nv_server` endpoint.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;
};

struct RouterOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (tests).
  uint16_t port = 0;
  std::vector<ShardEndpoint> shards;
  /// Directory holding the coordinator decision log ("decisions.log").
  std::string data_dir;
  Partitioning partitioning = Partitioning::kHash;
  /// kRange only: keys per shard (TPC-C: warehouses / num_shards).
  int64_t range_width = 1;
  /// Per-session shard-client reconnect budget. Sized so a session op
  /// rides out a shard kill -9 + instant restart (the whole point).
  int shard_max_retries = 12;
  /// In-doubt resolver sweep interval.
  int resolver_interval_ms = 200;
};

/// Multi-shard front door (DESIGN.md §16): speaks the NVQL wire protocol
/// to clients, partitions keys across N backend shards by the ShardMap,
/// fans scans/counts out and merges, and runs two-phase commit with a
/// durable coordinator decision log for transactions that touched more
/// than one shard. Single-shard transactions commit by passthrough — the
/// common TPC-C case pays no 2PC tax.
///
/// Sessions are thread-per-connection with per-session shard clients
/// (the Client is not thread-safe); a background resolver converges
/// in-doubt transactions on restarted shards from the decision log
/// (commit if logged, presumed abort for dead-epoch gtids).
///
/// Row locations returned to clients carry the owning shard id in bits
/// 56..63 of `row`, so point updates/deletes route back without any
/// lookup; the tag is stripped before the location reaches a shard.
class Router {
 public:
  static Result<std::unique_ptr<Router>> Start(const RouterOptions& options);
  ~Router();

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(Router);

  uint16_t port() const;
  /// Stops accepting, closes every session, stops the resolver. Called
  /// by the destructor; idempotent.
  void Stop();

 private:
  class Impl;
  explicit Router(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace hyrise_nv::cluster

#endif  // HYRISE_NV_CLUSTER_ROUTER_H_
