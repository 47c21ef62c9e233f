// E9 — served throughput/latency and client-observed restart downtime.
//
// The paper's instant-restart claim, measured from where it matters: the
// client side of a TCP connection. A server process is forked, loaded
// with rows over the wire, killed with SIGKILL mid-serving, and
// restarted; the client's reconnect loop measures the downtime window
// (last successful request → first successful request on the restarted
// server). Under NVM the window is dominated by process start + mmap and
// stays flat as rows grow; the log-based baseline replays its WAL and
// scales with data size.
//
// The restart leg also compares log-recovery policies (PAPER.md §V): the
// WAL mode restarts twice, once with eager replay and once serving
// degraded while a background thread builds the indexes. Both run the
// same log pass, which puts every row in place; only the index build
// moves behind the open. Time-to-first-successful-query (ttfq_ms,
// kill -9 → first answered point scan on the restarted server) is the
// headline: both pay the log pass before answering, so on-demand saves
// only the index build, while NVM's instant restart pays neither.
//
// Emits BENCH_JSON lines:
//   {"bench":"e9","mode":...,"policy":...,"rows":N,"serve_tput_rps":...,
//    "p50_us":...,"p99_us":...,"downtime_ms":...,"ttfq_ms":...,
//    "drain_s":...,"recovery_s":...}
//
// The server runs in a forked child (it must be SIGKILL-able without
// taking the bench down); the parent is a pure wire client and never
// opens the database itself.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/net_util.h"
#include "net/server.h"

namespace hyrise_nv::bench {
namespace {

using Clock = std::chrono::steady_clock;
using storage::Value;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Picks a free port: bind(0), read it back, close. SO_REUSEADDR on the
/// server side makes the immediate re-bind reliable, and the bench needs
/// a stable port across the kill/restart cycle.
uint16_t PickPort() {
  auto listener = Unwrap(net::CreateListener("127.0.0.1", 0), "pick port");
  return Unwrap(net::LocalPort(listener.get()), "pick port");
}

/// Child process: open (or create) the database and serve until killed
/// or told to drain. Writes the recovery seconds to `ready_fd` once the
/// server is accepting — the parent blocks on that, so "ready" includes
/// the full recovery cost (for an on-demand open: the log pass; the
/// index build keeps running while serving).
[[noreturn]] void RunServerChild(core::DurabilityMode mode,
                                 core::LogRecoveryPolicy policy,
                                 const std::string& dir, uint16_t port,
                                 bool create, int ready_fd) {
  core::DatabaseOptions options = EngineOptions(mode, dir, 512u << 20);
  options.log_recovery = policy;
  // The crash here is a real SIGKILL of a real process — no simulation
  // needed, so skip the shadow image and its per-store overhead.
  options.tracking = nvm::TrackingMode::kNone;
  auto db = Unwrap(create ? core::Database::Create(options)
                          : core::Database::Open(options),
                   "open database in server child");
  net::ServerOptions server_options;
  server_options.port = port;
  server_options.num_workers = 2;
  auto server =
      Unwrap(net::Server::Start(db.get(), server_options), "start server");
  const double recovery_s = db->last_recovery_report().total_seconds;
  // Hand the parent the recovery cost along with readiness.
  (void)!write(ready_fd, &recovery_s, sizeof(recovery_s));
  server->Wait();  // runs until SIGKILL (or a drain request)
  Die(db->Close(), "close");
  std::exit(0);
}

struct ChildHandle {
  pid_t pid = -1;
  double recovery_s = 0;
};

ChildHandle SpawnServer(core::DurabilityMode mode,
                        core::LogRecoveryPolicy policy,
                        const std::string& dir, uint16_t port, bool create) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) Die(Status::IOError("pipe"), "pipe");
  const pid_t pid = fork();
  if (pid < 0) Die(Status::IOError("fork"), "fork");
  if (pid == 0) {
    close(pipe_fds[0]);
    RunServerChild(mode, policy, dir, port, create, pipe_fds[1]);
  }
  close(pipe_fds[1]);
  ChildHandle child;
  child.pid = pid;
  if (read(pipe_fds[0], &child.recovery_s, sizeof(child.recovery_s)) !=
      static_cast<ssize_t>(sizeof(child.recovery_s))) {
    Die(Status::IOError("server child died before becoming ready"),
        "spawn server");
  }
  close(pipe_fds[0]);
  return child;
}

void KillServer(pid_t pid) {
  kill(pid, SIGKILL);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
}

struct ServeStats {
  double tput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Serves a short mixed workload (insert + point read) and measures
/// client-observed throughput and latency percentiles.
ServeStats MeasureServing(net::Client& client, uint64_t ops) {
  std::vector<double> latencies_us;
  latencies_us.reserve(ops);
  const auto start = Clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    const auto op_start = Clock::now();
    if (i % 4 == 3) {
      auto scan = client.ScanEqual("kv", 0,
                                   Value(static_cast<int64_t>(i % 1000)),
                                   /*in_txn=*/false, /*limit=*/8);
      Die(scan.status(), "serve scan");
    } else {
      Die(client.Begin().status(), "serve begin");
      Die(client
              .Insert("kv", {Value(static_cast<int64_t>(1'000'000 + i)),
                             Value(std::string("serve-payload"))})
              .status(),
          "serve insert");
      Die(client.Commit().status(), "serve commit");
    }
    latencies_us.push_back(SecondsSince(op_start) * 1e6);
  }
  ServeStats stats;
  stats.tput_rps = static_cast<double>(ops) / SecondsSince(start);
  std::sort(latencies_us.begin(), latencies_us.end());
  stats.p50_us = latencies_us[latencies_us.size() / 2];
  stats.p99_us = latencies_us[latencies_us.size() * 99 / 100];
  return stats;
}

/// Loads `rows` over the wire in batches.
void Load(net::Client& client, uint64_t rows) {
  constexpr uint64_t kBatch = 256;
  for (uint64_t i = 0; i < rows;) {
    Die(client.Begin().status(), "load begin");
    for (uint64_t j = 0; j < kBatch && i < rows; ++j, ++i) {
      Die(client
              .Insert("kv", {Value(static_cast<int64_t>(i % 1000)),
                             Value(std::string("row-payload-") +
                                   std::to_string(i))})
              .status(),
          "load insert");
    }
    Die(client.Commit().status(), "load commit");
  }
}

void RunMode(core::DurabilityMode mode, core::LogRecoveryPolicy policy,
             uint64_t rows) {
  const std::string dir = MakeBenchDir("bench_e9");
  const uint16_t port = PickPort();

  // The initial (create) run always opens eagerly; the policy only
  // matters for the post-kill restart.
  ChildHandle child = SpawnServer(mode, core::LogRecoveryPolicy::kEagerReplay,
                                  dir, port, /*create=*/true);

  net::ClientOptions client_options;
  client_options.port = port;
  client_options.max_retries = 400;
  client_options.retry_base_ms = 5;
  client_options.retry_cap_ms = 50;
  net::Client client(client_options);
  Die(client.Connect(), "connect");
  Die(client.CreateTable("kv", {{"k", storage::DataType::kInt64},
                                {"v", storage::DataType::kString}})
          .status(),
      "create table");
  Die(client.CreateIndex("kv", 0), "create index");
  Load(client, rows);

  const ServeStats stats = MeasureServing(client, Scaled(2000));

  // kill -9 mid-serving, restart, and measure the client-observed
  // downtime: last success before the kill to first success after.
  // ttfq_ms is the availability headline — kill to the first answered
  // point query. Under on-demand recovery the scan may land before the
  // background index build finished; it then runs index-free.
  const auto down_start = Clock::now();
  KillServer(child.pid);
  child = SpawnServer(mode, policy, dir, port, /*create=*/false);
  net::Client reconnect_client(client_options);
  Die(reconnect_client.Connect(), "reconnect after kill -9");
  const double downtime_ms = SecondsSince(down_start) * 1e3;
  auto first_scan = reconnect_client.ScanEqual(
      "kv", 0, Value(static_cast<int64_t>(7)), /*in_txn=*/false, /*limit=*/8);
  Die(first_scan.status(), "first query after restart");
  const double ttfq_ms = SecondsSince(down_start) * 1e3;

  // Wait out the background index build (no-op for eager/NVM restarts),
  // then audit durability on the fully recovered store.
  const auto drain_start = Clock::now();
  Die(reconnect_client.WaitUntilReady(/*timeout_ms=*/300'000), "wait ready");
  const double drain_s = SecondsSince(drain_start);
  auto count = reconnect_client.Count("kv");
  Die(count.status(), "count after restart");

  if (*count < rows) {
    std::fprintf(stderr,
                 "mode %s lost committed rows: %llu < %llu\n",
                 core::DurabilityModeName(mode),
                 static_cast<unsigned long long>(*count),
                 static_cast<unsigned long long>(rows));
    std::exit(1);
  }

  std::printf(
      "BENCH_JSON {\"bench\":\"e9\",\"mode\":\"%s\",\"policy\":\"%s\","
      "\"rows\":%llu,"
      "\"serve_tput_rps\":%.0f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
      "\"downtime_ms\":%.1f,\"ttfq_ms\":%.1f,\"drain_s\":%.4f,"
      "\"recovery_s\":%.4f,"
      "\"reconnect_attempts\":%d}\n",
      core::DurabilityModeName(mode), core::LogRecoveryPolicyName(policy),
      static_cast<unsigned long long>(rows), stats.tput_rps, stats.p50_us,
      stats.p99_us, downtime_ms, ttfq_ms, drain_s, child.recovery_s,
      reconnect_client.last_connect_attempts());
  std::fflush(stdout);

  Die(reconnect_client.Drain(), "drain");
  int wstatus = 0;
  waitpid(child.pid, &wstatus, 0);
  RemoveBenchDir(dir);
}

}  // namespace
}  // namespace hyrise_nv::bench

int main() {
  using hyrise_nv::bench::RunMode;
  using hyrise_nv::bench::Scaled;
  using hyrise_nv::core::DurabilityMode;
  using hyrise_nv::core::LogRecoveryPolicy;
  // Downtime vs rows: under kNvm the client-observed window stays flat;
  // kWalValue with eager replay scales with the row count; kWalValue
  // with on-demand recovery runs the same log pass and builds the index
  // in the background (drain_s is that build's remainder).
  for (const uint64_t rows : {uint64_t{5'000}, uint64_t{20'000},
                              uint64_t{80'000}}) {
    RunMode(DurabilityMode::kNvm, LogRecoveryPolicy::kEagerReplay,
            Scaled(rows));
    RunMode(DurabilityMode::kWalValue, LogRecoveryPolicy::kEagerReplay,
            Scaled(rows));
    RunMode(DurabilityMode::kWalValue, LogRecoveryPolicy::kServeOnDemand,
            Scaled(rows));
  }
  return 0;
}
