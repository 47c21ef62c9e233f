// hyrise_nv_server — serve a Hyrise-NV database over the binary wire
// protocol (DESIGN.md §10).
//
//   hyrise_nv_server --data-dir=DIR [options]
//
//   --data-dir=DIR        persistent image / WAL directory (required)
//   --mode=MODE           none | wal-value | wal-dict | nvm   [nvm]
//   --create              format a fresh database instead of opening
//   --host=ADDR           listen address                      [127.0.0.1]
//   --port=N              listen port (0 = ephemeral)         [5543]
//   --workers=N           epoll worker threads                [2]
//   --max-connections=N   connection admission cap            [256]
//   --max-inflight=N      concurrent request cap (503 above)  [256]
//   --idle-timeout-ms=N   close idle sessions (0 = never)     [60000]
//   --region-size=BYTES   NVM region size for --create        [256 MiB]
//   --recovery=POLICY     eager | on-demand (WAL modes)       [eager]
//   --drain-pause-us=N    on-demand: delay before the index build [0]
//   --slow-request-us=N   slow-request capture threshold, 0=off [100000]
//   --timeline            run the phase-annotated timeline recorder
//                         (exported via the stats opcode; nvtop's data)
//   --timeline-interval-ms=N  timeline sample interval          [1000]
//   --timeline-capacity=N     timeline ring size                [600]
//   --quiet               log warnings and errors only
//
// Lifecycle: opens (or creates) the database — printing the recovery
// report, where the NVM mode's instant restart is visible — then serves
// until SIGTERM/SIGINT triggers a graceful drain: open transactions are
// aborted, connections close, and the image is sealed clean. kill -9 is
// survivable by design: the next start recovers through the engine's
// normal restart path.
//
// Readiness: once serving, a line "READY port=<port>" goes to stdout
// (scripts and the e9 bench wait for it). An on-demand WAL open that
// still builds its indexes in the background prints
// "RECOVERING-SERVING port=<port>" first — the server already answers
// queries (degraded: every row is in place, scans run index-free) — and
// the READY line follows when the build completes.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/logging.h"
#include "core/database.h"
#include "net/server.h"

using namespace hyrise_nv;  // NOLINT: tool brevity

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

bool ParseFlag(const char* arg, const char* name, long long* out) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  *out = std::atoll(text.c_str());
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hyrise_nv_server --data-dir=DIR [--mode=nvm] "
               "[--create] [--host=ADDR] [--port=N] [--workers=N] "
               "[--max-connections=N] [--max-inflight=N] "
               "[--idle-timeout-ms=N] [--region-size=BYTES] "
               "[--recovery=eager|on-demand] [--drain-pause-us=N] "
               "[--slow-request-us=N] [--timeline] "
               "[--timeline-interval-ms=N] [--timeline-capacity=N] "
               "[--quiet]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  core::DatabaseOptions db_options;
  // A served image restarts by a real kill, never SimulateCrash: a shadow
  // copy would only double the image in memory and copy it at each open.
  db_options.tracking = nvm::TrackingMode::kNone;
  net::ServerOptions server_options;
  server_options.port = 5543;
  bool create = false;
  std::string mode = "nvm";
  std::string recovery = "eager";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    long long n = 0;
    if (ParseFlag(arg, "--data-dir", &db_options.data_dir) ||
        ParseFlag(arg, "--mode", &mode) ||
        ParseFlag(arg, "--recovery", &recovery) ||
        ParseFlag(arg, "--host", &server_options.host)) {
      continue;
    }
    if (ParseFlag(arg, "--port", &n)) {
      server_options.port = static_cast<uint16_t>(n);
    } else if (ParseFlag(arg, "--workers", &n)) {
      server_options.num_workers = static_cast<int>(n);
    } else if (ParseFlag(arg, "--max-connections", &n)) {
      server_options.max_connections = static_cast<int>(n);
    } else if (ParseFlag(arg, "--max-inflight", &n)) {
      server_options.max_inflight = static_cast<int>(n);
    } else if (ParseFlag(arg, "--idle-timeout-ms", &n)) {
      server_options.idle_timeout_ms = static_cast<int>(n);
    } else if (ParseFlag(arg, "--region-size", &n)) {
      db_options.region_size = static_cast<uint64_t>(n);
    } else if (ParseFlag(arg, "--drain-pause-us", &n)) {
      db_options.drain_pause_us = static_cast<uint64_t>(n);
    } else if (ParseFlag(arg, "--slow-request-us", &n)) {
      server_options.slow_request_us = static_cast<uint64_t>(n);
    } else if (ParseFlag(arg, "--timeline-interval-ms", &n)) {
      db_options.timeline_interval_ms = static_cast<uint64_t>(n);
    } else if (ParseFlag(arg, "--timeline-capacity", &n)) {
      db_options.timeline_capacity = static_cast<size_t>(n);
    } else if (std::strcmp(arg, "--timeline") == 0) {
      db_options.enable_timeline = true;
    } else if (std::strcmp(arg, "--create") == 0) {
      create = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      SetLogLevel(LogLevel::kWarn);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage();
    }
  }
  if (db_options.data_dir.empty()) return Usage();
  if (create) {
    std::error_code ec;
    std::filesystem::create_directories(db_options.data_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create data dir %s: %s\n",
                   db_options.data_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  if (mode == "none") {
    db_options.mode = core::DurabilityMode::kNone;
  } else if (mode == "wal-value") {
    db_options.mode = core::DurabilityMode::kWalValue;
  } else if (mode == "wal-dict") {
    db_options.mode = core::DurabilityMode::kWalDict;
  } else if (mode == "nvm") {
    db_options.mode = core::DurabilityMode::kNvm;
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    return Usage();
  }

  if (recovery == "eager") {
    db_options.log_recovery = core::LogRecoveryPolicy::kEagerReplay;
  } else if (recovery == "on-demand") {
    db_options.log_recovery = core::LogRecoveryPolicy::kServeOnDemand;
  } else {
    std::fprintf(stderr, "unknown recovery policy: %s\n", recovery.c_str());
    return Usage();
  }

  const auto open_start = std::chrono::steady_clock::now();
  auto db_result = create ? core::Database::Create(db_options)
                          : core::Database::Open(db_options);
  if (!db_result.ok()) {
    std::fprintf(stderr, "cannot %s database: %s\n",
                 create ? "create" : "open",
                 db_result.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<core::Database> db = std::move(*db_result);
  const double open_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    open_start)
          .count();
  if (!create) {
    std::printf("RECOVERY %s\n", db->last_recovery_report().ToJson().c_str());
  }
  std::printf("opened %s database at %s in %.3fs\n",
              core::DurabilityModeName(db_options.mode),
              db_options.data_dir.c_str(), open_seconds);

  auto server_result = net::Server::Start(db.get(), server_options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server_result.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<net::Server> server = std::move(*server_result);

  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  bool announced_ready = false;
  if (db->serving_state() == core::ServingState::kServingDegraded) {
    std::printf("RECOVERING-SERVING port=%u\n", server->port());
  } else {
    std::printf("READY port=%u\n", server->port());
    announced_ready = true;
  }
  std::fflush(stdout);

  while (!g_stop.load() && !server->draining()) {
    if (!announced_ready &&
        db->serving_state() == core::ServingState::kReady) {
      // The index build finished while serving: promote to READY so
      // scripts waiting on the line see the flip.
      std::printf("READY port=%u\n", server->port());
      std::fflush(stdout);
      announced_ready = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  server->Drain();
  server->Wait();
  const net::ServerCounters counters = server->counters();
  server.reset();

  Status close_status = db->Close();
  if (!close_status.ok()) {
    std::fprintf(stderr, "close failed: %s\n",
                 close_status.ToString().c_str());
    return 2;
  }
  std::printf(
      "clean shutdown: served %llu requests over %llu connections "
      "(%llu overload rejections, %llu protocol errors)\n",
      static_cast<unsigned long long>(counters.requests),
      static_cast<unsigned long long>(counters.accepted),
      static_cast<unsigned long long>(counters.overload_rejected),
      static_cast<unsigned long long>(counters.protocol_errors));
  return 0;
}
