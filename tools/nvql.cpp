// nvql — command-line client for a running hyrise_nv_server.
//
//   nvql [--host=ADDR] [--port=N] [--retries=N] <command> [args...]
//   nvql ... -            read newline-separated commands from stdin
//
// Commands (values are typed: bare integers are int64, values with a
// '.' are double, everything else is a string):
//
//   ping
//   stats
//   recovery
//   wait-ready [TIMEOUT_MS]    block until the server finished the
//                              index build of an on-demand recovery
//   checkpoint
//   drain
//   create-table NAME COL:TYPE [COL:TYPE...]     TYPE = int|double|string
//   create-index TABLE COLUMN [hash|skiplist]
//   insert TABLE V1 [V2...]          (autocommit)
//   batch-insert TABLE ROW [ROW...]  each ROW is V1,V2,... — all rows go
//                                    out as ONE wire-v2 dml_batch frame,
//                                    applied atomically under a single
//                                    commit (one fsync for the lot)
//   protocol                         negotiated wire version, pipeline
//                                    window, server mode, session id
//   count TABLE
//   scan TABLE COLUMN VALUE [LIMIT]
//   range TABLE COLUMN LO HI [LIMIT]
//   begin / commit / abort           (script mode: one session spans stdin)
//   \timing                          toggle per-command wall time + last
//                                    wire round-trip (script mode)
//   \watch SECONDS [COUNT]           re-issue the previous command every
//                                    SECONDS (fractional ok) until COUNT
//                                    runs or Ctrl-C (script mode)
//   \shards                          shard map + per-shard serving state
//                                    (when pointed at hyrise_nv_router)
//   sql-like one-shot: "insert" outside a begin/commit runs autocommit.
//
// Exit codes: 0 success, 1 usage, 2 connection failure, 3 server error.

#include <signal.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "storage/types.h"

using namespace hyrise_nv;  // NOLINT: tool brevity

namespace {

volatile std::sig_atomic_t g_watch_stop = 0;

void OnWatchInterrupt(int) { g_watch_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: nvql [--host=ADDR] [--port=N] [--retries=N] "
               "<command> [args...] | -\n"
               "commands: ping stats recovery wait-ready [TIMEOUT_MS] "
               "checkpoint drain\n"
               "          create-table NAME COL:TYPE...\n"
               "          create-index TABLE COLUMN [hash|skiplist]\n"
               "          insert TABLE V1 [V2...]\n"
               "          batch-insert TABLE V1,V2 [V1,V2...] | protocol\n"
               "          count TABLE | scan TABLE COL VALUE [LIMIT] |\n"
               "          range TABLE COL LO HI [LIMIT]\n"
                    "          begin | commit | abort (script mode)\n"
               "          \\timing | \\watch SECONDS [COUNT] (script mode)\n"
               "          \\shards (router only: shard map + states)\n");
  return 1;
}

storage::Value ParseValue(const std::string& text) {
  if (!text.empty() &&
      text.find_first_not_of("-0123456789") == std::string::npos) {
    return storage::Value(
        static_cast<int64_t>(std::strtoll(text.c_str(), nullptr, 10)));
  }
  if (!text.empty() &&
      text.find_first_not_of("-0123456789.eE+") == std::string::npos &&
      text.find('.') != std::string::npos) {
    return storage::Value(std::strtod(text.c_str(), nullptr));
  }
  return storage::Value(text);
}

std::string ValueToString(const storage::Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

void PrintScan(const net::ScanResult& result) {
  for (const net::WireRow& row : result.rows) {
    std::string line = row.loc.in_main ? "main:" : "delta:";
    line += std::to_string(row.loc.row);
    for (const auto& v : row.values) {
      line += "\t";
      line += ValueToString(v);
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("(%zu row(s)%s)\n", result.rows.size(),
              result.truncated ? ", truncated" : "");
}

/// Runs one command; returns 0/3, or -1 for "unknown command".
int RunCommand(net::Client& client, const std::vector<std::string>& args,
               bool* in_txn) {
  const std::string& cmd = args[0];
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 3;
  };

  if (cmd == "ping") {
    Status status = client.Ping();
    if (!status.ok()) return fail(status);
    std::printf("pong\n");
    return 0;
  }
  if (cmd == "stats" || cmd == "recovery") {
    auto json_result =
        cmd == "stats" ? client.Stats() : client.RecoveryInfo();
    if (!json_result.ok()) return fail(json_result.status());
    std::printf("%s\n", json_result->c_str());
    return 0;
  }
  if (cmd == "\\shards" || cmd == "shards") {
    auto json_result = client.Stats();
    if (!json_result.ok()) return fail(json_result.status());
    const std::string& json = *json_result;
    const size_t cluster = json.find("\"cluster\":");
    if (cluster == std::string::npos) {
      std::printf("not a router (no cluster section in stats)\n");
      return 0;
    }
    const size_t map_at = json.find("\"shard_map\":", cluster);
    if (map_at != std::string::npos) {
      const size_t open = json.find('{', map_at);
      const size_t close = json.find('}', open);
      if (open != std::string::npos && close != std::string::npos) {
        std::printf("shard map: %s\n",
                    json.substr(open, close - open + 1).c_str());
      }
    }
    // One line per {"id":N,"host":"H","port":P,"state":"S"} entry.
    size_t at = json.find("\"shards\":[", cluster);
    while (at != std::string::npos) {
      at = json.find("{\"id\":", at);
      if (at == std::string::npos) break;
      const long long id = std::atoll(json.c_str() + at + 6);
      std::string host = "?";
      const size_t host_at = json.find("\"host\":\"", at);
      if (host_at != std::string::npos) {
        const size_t end = json.find('"', host_at + 8);
        host = json.substr(host_at + 8, end - host_at - 8);
      }
      long long port = 0;
      const size_t port_at = json.find("\"port\":", at);
      if (port_at != std::string::npos) {
        port = std::atoll(json.c_str() + port_at + 7);
      }
      std::string state = "?";
      const size_t state_at = json.find("\"state\":\"", at);
      if (state_at != std::string::npos) {
        const size_t end = json.find('"', state_at + 9);
        state = json.substr(state_at + 9, end - state_at - 9);
      }
      std::printf("shard %lld: %s:%lld state=%s\n", id, host.c_str(), port,
                  state.c_str());
      at = json.find('}', at);
    }
    return 0;
  }
  if (cmd == "wait-ready") {
    const int timeout_ms =
        args.size() >= 2 ? std::atoi(args[1].c_str()) : 60'000;
    Status status = client.WaitUntilReady(timeout_ms, /*poll_ms=*/100);
    if (!status.ok()) return fail(status);
    std::printf("ready\n");
    return 0;
  }
  if (cmd == "checkpoint") {
    Status status = client.Checkpoint();
    if (!status.ok()) return fail(status);
    std::printf("checkpoint written\n");
    return 0;
  }
  if (cmd == "drain") {
    Status status = client.Drain();
    if (!status.ok()) return fail(status);
    std::printf("drain requested\n");
    return 0;
  }
  if (cmd == "begin") {
    auto begin_result = client.Begin();
    if (!begin_result.ok()) return fail(begin_result.status());
    *in_txn = true;
    std::printf("begin tid=%llu snapshot=%llu\n",
                static_cast<unsigned long long>(begin_result->tid),
                static_cast<unsigned long long>(begin_result->snapshot));
    return 0;
  }
  if (cmd == "commit") {
    auto cid_result = client.Commit();
    *in_txn = false;
    if (!cid_result.ok()) return fail(cid_result.status());
    std::printf("committed cid=%llu\n",
                static_cast<unsigned long long>(*cid_result));
    return 0;
  }
  if (cmd == "abort") {
    Status status = client.Abort();
    *in_txn = false;
    if (!status.ok()) return fail(status);
    std::printf("aborted\n");
    return 0;
  }
  if (cmd == "create-table" && args.size() >= 3) {
    std::vector<std::pair<std::string, storage::DataType>> columns;
    for (size_t i = 2; i < args.size(); ++i) {
      const size_t colon = args[i].find(':');
      if (colon == std::string::npos) return Usage();
      const std::string type = args[i].substr(colon + 1);
      storage::DataType data_type;
      if (type == "int") {
        data_type = storage::DataType::kInt64;
      } else if (type == "double") {
        data_type = storage::DataType::kDouble;
      } else if (type == "string") {
        data_type = storage::DataType::kString;
      } else {
        std::fprintf(stderr, "unknown column type: %s\n", type.c_str());
        return 1;
      }
      columns.emplace_back(args[i].substr(0, colon), data_type);
    }
    auto id_result = client.CreateTable(args[1], columns);
    if (!id_result.ok()) return fail(id_result.status());
    std::printf("created table %s (id %llu)\n", args[1].c_str(),
                static_cast<unsigned long long>(*id_result));
    return 0;
  }
  if (cmd == "create-index" && args.size() >= 3) {
    const uint8_t kind =
        args.size() >= 4 && args[3] == "skiplist" ? 1 : 0;
    Status status = client.CreateIndex(
        args[1], static_cast<uint32_t>(std::atoi(args[2].c_str())), kind);
    if (!status.ok()) return fail(status);
    std::printf("created index\n");
    return 0;
  }
  if (cmd == "insert" && args.size() >= 3) {
    std::vector<storage::Value> row;
    for (size_t i = 2; i < args.size(); ++i) {
      row.push_back(ParseValue(args[i]));
    }
    const bool autocommit = !*in_txn;
    if (autocommit) {
      auto begin_result = client.Begin();
      if (!begin_result.ok()) return fail(begin_result.status());
    }
    auto loc_result = client.Insert(args[1], row);
    if (!loc_result.ok()) {
      if (autocommit) (void)client.Abort();
      return fail(loc_result.status());
    }
    if (autocommit) {
      auto cid_result = client.Commit();
      if (!cid_result.ok()) return fail(cid_result.status());
    }
    std::printf("inserted at %s:%llu\n",
                loc_result->in_main ? "main" : "delta",
                static_cast<unsigned long long>(loc_result->row));
    return 0;
  }
  if (cmd == "protocol") {
    std::printf("protocol v%u window %u mode %u session %llu\n",
                client.protocol_version(), client.pipeline_window(),
                client.server_mode(),
                static_cast<unsigned long long>(client.session_id()));
    return 0;
  }
  if (cmd == "batch-insert" && args.size() >= 3) {
    std::vector<net::DmlOp> ops;
    for (size_t a = 2; a < args.size(); ++a) {
      net::DmlOp op;
      op.kind = net::DmlOp::kInsert;
      op.table = args[1];
      const std::string& row_text = args[a];
      size_t pos = 0;
      while (pos <= row_text.size()) {
        size_t comma = row_text.find(',', pos);
        if (comma == std::string::npos) comma = row_text.size();
        op.row.push_back(ParseValue(row_text.substr(pos, comma - pos)));
        pos = comma + 1;
      }
      ops.push_back(std::move(op));
    }
    auto batch_result = client.DmlBatch(ops);
    if (!batch_result.ok()) return fail(batch_result.status());
    for (const storage::RowLocation& loc : batch_result->locs) {
      std::printf("inserted at %s:%llu\n", loc.in_main ? "main" : "delta",
                  static_cast<unsigned long long>(loc.row));
    }
    std::printf("batch committed cid=%llu (%zu row(s), one frame)\n",
                static_cast<unsigned long long>(batch_result->cid),
                batch_result->locs.size());
    return 0;
  }
  if (cmd == "count" && args.size() >= 2) {
    auto count_result = client.Count(args[1], *in_txn);
    if (!count_result.ok()) return fail(count_result.status());
    std::printf("%llu\n", static_cast<unsigned long long>(*count_result));
    return 0;
  }
  if (cmd == "scan" && args.size() >= 4) {
    const uint32_t limit =
        args.size() >= 5 ? static_cast<uint32_t>(std::atoi(args[4].c_str()))
                         : 0;
    auto scan_result = client.ScanEqual(
        args[1], static_cast<uint32_t>(std::atoi(args[2].c_str())),
        ParseValue(args[3]), *in_txn, limit);
    if (!scan_result.ok()) return fail(scan_result.status());
    PrintScan(*scan_result);
    return 0;
  }
  if (cmd == "range" && args.size() >= 5) {
    const uint32_t limit =
        args.size() >= 6 ? static_cast<uint32_t>(std::atoi(args[5].c_str()))
                         : 0;
    auto scan_result = client.ScanRange(
        args[1], static_cast<uint32_t>(std::atoi(args[2].c_str())),
        ParseValue(args[3]), ParseValue(args[4]), *in_txn, limit);
    if (!scan_result.ok()) return fail(scan_result.status());
    PrintScan(*scan_result);
    return 0;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  net::ClientOptions options;
  options.port = 5543;
  int i = 1;
  for (; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--host=", 7) == 0) {
      options.host = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      options.port = static_cast<uint16_t>(std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--retries=", 10) == 0) {
      options.max_retries = std::atoi(arg + 10);
    } else {
      break;
    }
  }
  if (i >= argc) return Usage();

  net::Client client(options);
  Status status = client.Connect();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot connect to %s:%u: %s\n",
                 options.host.c_str(), options.port,
                 status.ToString().c_str());
    return 2;
  }

  bool in_txn = false;
  if (std::strcmp(argv[i], "-") == 0) {
    // Script mode: one session, newline-separated commands from stdin.
    std::string line;
    int last_rc = 0;
    bool timing = false;
    std::vector<std::string> last_args;
    while (std::getline(std::cin, line)) {
      std::istringstream stream(line);
      std::vector<std::string> args;
      std::string token;
      while (stream >> token) args.push_back(std::move(token));
      if (args.empty() || args[0][0] == '#') continue;
      if (args[0] == "\\timing") {
        timing = !timing;
        std::printf("timing %s\n", timing ? "on" : "off");
        continue;
      }
      if (args[0] == "\\watch") {
        if (last_args.empty()) {
          std::fprintf(stderr, "\\watch: no previous command to repeat\n");
          last_rc = 1;
          continue;
        }
        double seconds =
            args.size() >= 2 ? std::strtod(args[1].c_str(), nullptr) : 2.0;
        if (seconds <= 0) seconds = 2.0;
        const long long count =
            args.size() >= 3 ? std::atoll(args[2].c_str()) : 0;
        std::string repeated = last_args[0];
        for (size_t a = 1; a < last_args.size(); ++a) {
          repeated += " " + last_args[a];
        }
        // Ctrl-C ends the watch, not the session; the previous handler
        // comes back once the loop exits.
        g_watch_stop = 0;
        struct sigaction watch_action {};
        struct sigaction saved_action {};
        watch_action.sa_handler = OnWatchInterrupt;
        sigaction(SIGINT, &watch_action, &saved_action);
        long long iterations = 0;
        while (g_watch_stop == 0) {
          std::printf("-- watch #%lld (%s, every %gs)\n", iterations + 1,
                      repeated.c_str(), seconds);
          const int watch_rc = RunCommand(client, last_args, &in_txn);
          std::fflush(stdout);
          if (watch_rc != 0) {
            last_rc = watch_rc == -1 ? 1 : watch_rc;
            break;
          }
          ++iterations;
          if (count > 0 && iterations >= count) break;
          for (double waited = 0; waited < seconds && g_watch_stop == 0;
               waited += 0.05) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
        sigaction(SIGINT, &saved_action, nullptr);
        continue;
      }
      const auto cmd_start = std::chrono::steady_clock::now();
      const int rc = RunCommand(client, args, &in_txn);
      if (rc == -1) {
        std::fprintf(stderr, "unknown command: %s\n", args[0].c_str());
        last_rc = 1;
      } else {
        last_args = args;
        if (rc != 0) last_rc = rc;
      }
      if (timing && rc != -1) {
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - cmd_start)
                .count();
        // Wall time covers the whole command (an autocommit insert is
        // three round trips); last_rtt_ns is the final wire round trip.
        std::printf("Time: %.3f ms (last rtt %.3f ms)\n", wall_ms,
                    static_cast<double>(client.last_rtt_ns()) / 1e6);
      }
    }
    return last_rc;
  }

  std::vector<std::string> args(argv + i, argv + argc);
  const int rc = RunCommand(client, args, &in_txn);
  if (rc == -1) return Usage();
  return rc;
}
