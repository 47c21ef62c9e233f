#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop load generator: one event-loop thread drives at most four
// pipelined wire-v2 connections. Operation i is due at start + i/rate
// whatever the server does; its latency runs from that intended time to
// its last response, so a stall charges every operation queued behind it.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats.h"

namespace perfbench {

enum class OpKind : uint8_t {
  kRead,    // ScanEqual on the key column
  kInsert,  // one-op autocommit DmlBatch insert
  kRmw,     // ScanEqual, then a DmlBatch update of the row it returned
  kTxn,     // begin, insert key, insert key2, commit (session transaction)
};

/// Latency class an operation is reported under.
enum OpClass : uint8_t { kClassRead = 0, kClassWrite = 1, kClassCross = 2 };
constexpr int kNumClasses = 3;
const char* ClassName(int cls);

struct Op {
  OpKind kind = OpKind::kRead;
  OpClass cls = kClassRead;
  int64_t key = 0;
  int64_t key2 = 0;
  /// Value written by an insert/update/txn (key2 gets value2).
  std::string value;
  std::string value2;
  /// Reads: when non-empty, some returned row's value must start with it.
  std::string expect_prefix;
};

/// Builds operation `index` of the schedule. Called once per operation at
/// its issue time, on the generator thread.
using OpSource = std::function<Op(uint64_t index)>;
/// Called on the generator thread for every acknowledged write.
using AckSink = std::function<void(int64_t key, const std::string& value)>;

struct LoadOptions {
  uint16_t port = 0;
  std::string table = "kv";
  int connections = 4;
  /// Requests one connection keeps in flight (wire v2 pipelining).
  int depth = 8;
  double rate = 1000;
  double warmup_s = 0.25;
  double duration_s = 1;
  /// After the schedule ends, give in-flight operations this long.
  double drain_timeout_s = 5;
  /// A dead connection ends the run instead of failing it (kill phases).
  bool tolerate_disconnect = false;
  /// Record spans of every measured operation (traced run only).
  bool trace = false;
};

struct ClassStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t abandoned = 0;
  /// Reads whose rows belong to another key or carry a foreign value.
  uint64_t wrong = 0;
  /// Answered reads that saw no visible version of a key that exists
  /// (counted among `ok`; a concurrent update of the key can cause it).
  uint64_t empty = 0;
  /// Per successful operation, from intended send time (ns).
  std::vector<double> latency_ns;
  /// Per successful single-frame operation: send to response (ns).
  std::vector<double> rtt_ns;
};

struct LoadReport {
  ClassStats cls[kNumClasses];
  /// How late the generator itself issued operations that found a free
  /// connection (ns): loop lateness, not server backlog.
  std::vector<double> late_ns;
  uint64_t backlog_peak = 0;
  /// Operations still queued for a connection when the schedule ended.
  uint64_t backlog_end = 0;
  std::vector<Span> spans;

  uint64_t Attempted() const;
  uint64_t Failed() const;  // errors + shed + abandoned + wrong
};

/// Runs one open-loop schedule against the server on `options.port`.
hyrise_nv::Result<LoadReport> RunLoad(const LoadOptions& options,
                                      const OpSource& source,
                                      const AckSink& on_ack);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
