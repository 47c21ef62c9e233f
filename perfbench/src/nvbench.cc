// nvbench: one run of one workload of the repository benchmark.
//
//   nvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --work-dir <dir>
//
// Every workload runs the same phases against the engine as shipped
// (NVM mode, NvmLatencyModel::DefaultNvm, TrackingMode::kNone, a region
// sized for the workload) and prints every end-to-end metric:
//
//   setup    the workload's server is brought up three times (load,
//            merge, start-up); setup_s is the median.
//   restart  kill -9 under write load, then restart and time the first
//            answered point read: NVM on the first setup, then a WAL
//            (value log) copy of the same data with eager replay and with
//            on-demand replay; medians over repeated kills. Every
//            acknowledged write must read back.
//   serve    open-loop load at the workload's fixed rate: read and write
//            p50/p99 from each operation's intended send time.
//   search   probes of rising offered rate find the highest rate whose
//            median stays within 1 ms with no shed, error or growing
//            backlog.
//   cluster  two-insert transactions, mostly cross-shard, through the
//            in-process router over two forked NVM shards.
//   audit    a shadow-tracked copy of the write_delta mix crashes through
//            Database::CrashAndRecover; acknowledged rows must survive and
//            aborted or unfinished ones must stay invisible.
//
// --trace 1 adds spans around the benchmark's own calls into each layer,
// diffs the metrics the server exports, replays the op stream in-process
// against core::Database, and prints the per-layer metrics instead.
// Servers run in forked children (every workload kills one); the load
// comes from one generator thread with at most four connections.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/router.h"
#include "common/json.h"
#include "common/random.h"
#include "core/database.h"
#include "net/client.h"
#include "net/net_util.h"
#include "net/pipeline_client.h"
#include "net/server.h"
#include "workload/zipf.h"

#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace core = hyrise_nv::core;
namespace net = hyrise_nv::net;
namespace storage = hyrise_nv::storage;
using hyrise_nv::common::JsonValue;
using hyrise_nv::Result;
using hyrise_nv::Status;
using storage::Value;

// --- Errors and process bookkeeping -----------------------------------------

std::vector<pid_t> g_children;

void KillAllChildren() {
  for (pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  g_children.clear();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "nvbench: %s\n", what.c_str());
  KillAllChildren();
  std::exit(2);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Fail(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueUnsafe();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MsBetween(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - std::min(from_ns, to_ns)) / 1e6;
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// --- Rows ---------------------------------------------------------------------

/// 16-byte value "v<key>:<version hex>" padded with '-'. Every value is
/// distinct, and its prefix names the key it belongs to.
std::string ValueFor(int64_t key, uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "v%" PRId64 ":%" PRIx64, key, version);
  std::string value(buf);
  value.resize(16, '-');
  return value;
}

std::string PrefixFor(int64_t key) {
  return "v" + std::to_string(key) + ":";
}

/// Version encoded in a ValueFor string (0 when it has none).
uint64_t VersionOf(const std::string& value) {
  const size_t colon = value.find(':');
  if (colon == std::string::npos) return 0;
  return std::strtoull(value.c_str() + colon + 1, nullptr, 16);
}

/// User payload of one row: an 8-byte key plus a 16-byte value.
constexpr double kUserBytesPerRow = 24;

/// Keys [key_base, key_base + main_rows) are merged into main; the next
/// delta_rows keys stay in the delta.
struct Dataset {
  int64_t key_base = 0;
  uint64_t main_rows = 0;
  uint64_t delta_rows = 0;
  uint64_t rows() const { return main_rows + delta_rows; }
  int64_t end() const { return key_base + static_cast<int64_t>(rows()); }
};

core::DatabaseOptions EngineOptions(core::DurabilityMode mode,
                                    const std::string& dir, size_t region) {
  core::DatabaseOptions options;
  options.mode = mode;
  options.region_size = region;
  options.data_dir = dir;
  options.tracking = hyrise_nv::nvm::TrackingMode::kNone;
  options.nvm_latency = mode == core::DurabilityMode::kNvm
                            ? hyrise_nv::nvm::NvmLatencyModel::DefaultNvm()
                            : hyrise_nv::nvm::NvmLatencyModel::DramSpeed();
  // The SATA-SSD-class device model the repository's WAL benches use.
  options.device.write_mbps = 500;
  options.device.read_mbps = 500;
  options.device.sync_latency_us = 20;
  return options;
}

Status LoadRows(core::Database* db, storage::Table* table, int64_t from,
                int64_t to) {
  constexpr int64_t kBatch = 1000;
  for (int64_t k = from; k < to;) {
    auto tx = db->Begin();
    HYRISE_NV_RETURN_NOT_OK(tx.status());
    for (int64_t j = 0; j < kBatch && k < to; ++j, ++k) {
      HYRISE_NV_RETURN_NOT_OK(
          db->Insert(*tx, table, {Value(k), Value(ValueFor(k, 0))}).status());
    }
    HYRISE_NV_RETURN_NOT_OK(db->Commit(*tx));
  }
  return Status::OK();
}

/// Creates table kv(k int64, v string) with a hash index on k, loads and
/// merges the main rows, then loads the delta rows. Returns the merge
/// seconds (0 without main rows).
Result<double> BuildDataset(core::Database* db, const Dataset& data) {
  auto schema = storage::Schema::Make(
      {{"k", storage::DataType::kInt64}, {"v", storage::DataType::kString}});
  HYRISE_NV_RETURN_NOT_OK(schema.status());
  auto table = db->CreateTable("kv", *schema);
  HYRISE_NV_RETURN_NOT_OK(table.status());
  HYRISE_NV_RETURN_NOT_OK(db->CreateIndex("kv", 0));
  const int64_t main_end = data.key_base + static_cast<int64_t>(data.main_rows);
  HYRISE_NV_RETURN_NOT_OK(LoadRows(db, *table, data.key_base, main_end));
  double merge_s = 0;
  if (data.main_rows > 0) {
    auto merged = db->Merge("kv");
    HYRISE_NV_RETURN_NOT_OK(merged.status());
    merge_s = merged->seconds;
  }
  HYRISE_NV_RETURN_NOT_OK(LoadRows(db, *table, main_end, data.end()));
  return merge_s;
}

// --- Server children ----------------------------------------------------------

struct ChildSpec {
  core::DurabilityMode mode = core::DurabilityMode::kNvm;
  core::LogRecoveryPolicy policy = core::LogRecoveryPolicy::kEagerReplay;
  std::string dir;
  uint16_t port = 0;
  size_t region = size_t{256} << 20;
  int workers = 2;
  bool create = true;
  Dataset data;
};

struct ReadyMsg {
  uint64_t start_ns = 0;
  uint64_t ready_ns = 0;
  int32_t ok = 0;
};

struct Child {
  pid_t pid = -1;
  uint16_t port = 0;
  uint64_t spawn_ns = 0;
  uint64_t start_ns = 0;  // first instruction of the child
  uint64_t ready_ns = 0;  // server accepting
};

[[noreturn]] void RunChild(const ChildSpec& spec, int ready_fd) {
  ReadyMsg msg;
  msg.start_ns = NowNs();
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  core::DatabaseOptions options = EngineOptions(spec.mode, spec.dir, spec.region);
  options.log_recovery = spec.policy;
  auto db_result = spec.create ? core::Database::Create(options)
                               : core::Database::Open(options);
  if (db_result.ok() && spec.create &&
      !BuildDataset(db_result->get(), spec.data).ok()) {
    db_result = Status::Internal("dataset build failed");
  }
  std::unique_ptr<net::Server> server;
  if (db_result.ok()) {
    net::ServerOptions server_options;
    server_options.port = spec.port;
    server_options.num_workers = spec.workers;
    auto started = net::Server::Start(db_result->get(), server_options);
    if (started.ok()) server = std::move(started).ValueUnsafe();
  }
  if (!db_result.ok() || server == nullptr) {
    std::fprintf(stderr, "nvbench child: %s\n",
                 db_result.ok() ? "server start failed"
                                : db_result.status().ToString().c_str());
    (void)!::write(ready_fd, &msg, sizeof(msg));
    ::_exit(3);
  }
  msg.ready_ns = NowNs();
  msg.ok = 1;
  (void)!::write(ready_fd, &msg, sizeof(msg));
  ::close(ready_fd);
  server->Wait();  // serves until SIGKILL
  ::_exit(0);
}

Child Spawn(const ChildSpec& spec) {
  int fds[2];
  if (::pipe(fds) != 0) Fail("pipe");
  Child child;
  child.port = spec.port;
  child.spawn_ns = NowNs();
  const pid_t pid = ::fork();
  if (pid < 0) Fail("fork");
  if (pid == 0) {
    ::close(fds[0]);
    RunChild(spec, fds[1]);
  }
  ::close(fds[1]);
  g_children.push_back(pid);
  child.pid = pid;
  ReadyMsg msg;
  const ssize_t n = ::read(fds[0], &msg, sizeof(msg));
  ::close(fds[0]);
  if (n != static_cast<ssize_t>(sizeof(msg)) || msg.ok != 1) {
    Fail("server child failed to start in " + spec.dir);
  }
  child.start_ns = msg.start_ns;
  child.ready_ns = msg.ready_ns;
  return child;
}

void KillChild(Child& child) {
  if (child.pid <= 0) return;
  ::kill(child.pid, SIGKILL);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  g_children.erase(std::remove(g_children.begin(), g_children.end(), child.pid),
                   g_children.end());
  child.pid = -1;
}

uint16_t PickPort() {
  auto listener = Check(net::CreateListener("127.0.0.1", 0), "pick port");
  return Check(net::LocalPort(listener.get()), "pick port");
}

net::Client Connect(uint16_t port) {
  net::ClientOptions options;
  options.port = port;
  options.max_retries = 2000;
  options.retry_base_ms = 1;
  options.retry_cap_ms = 2;
  net::Client client(options);
  Check(client.Connect(), "connect");
  return client;
}

// --- Exported metrics ---------------------------------------------------------

/// The "metrics" object of a server's stats export.
JsonValue ServerMetrics(uint16_t port) {
  net::Client client = Connect(port);
  const std::string stats = Check(client.Stats(), "stats");
  JsonValue doc = Check(hyrise_nv::common::JsonParse(stats), "parse stats");
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr) Fail("stats export has no metrics");
  return *metrics;
}

double Counter(const JsonValue& m, const std::string& name) {
  const JsonValue* v = m.Get("counters").Find(name);
  return v == nullptr ? 0 : v->AsDouble();
}

double Gauge(const JsonValue& m, const std::string& name) {
  const JsonValue* v = m.Get("gauges").Find(name);
  return v == nullptr ? 0 : v->AsDouble();
}

double CounterDelta(const JsonValue& before, const JsonValue& after,
                    const std::string& name) {
  return Counter(after, name) - Counter(before, name);
}

/// Histogram activity between two exports: count, sum and per-bucket
/// counts keyed by the bucket's inclusive upper bound.
struct HistDelta {
  double count = 0;
  double sum = 0;
  std::map<uint64_t, uint64_t> buckets;

  double Mean() const { return count > 0 ? sum / count : 0; }
  double P(double p) const {
    return BucketPercentile({buckets.begin(), buckets.end()}, p);
  }
  void Add(const HistDelta& other) {
    count += other.count;
    sum += other.sum;
    for (const auto& [upper, n] : other.buckets) buckets[upper] += n;
  }
};

std::map<uint64_t, uint64_t> BucketCounts(const JsonValue* hist) {
  std::map<uint64_t, uint64_t> out;
  if (hist == nullptr) return out;
  uint64_t prev = 0;
  for (const JsonValue& pair : hist->Get("buckets").items()) {
    const auto upper = static_cast<uint64_t>(pair.at(0).AsDouble());
    const auto cumulative = static_cast<uint64_t>(pair.at(1).AsDouble());
    out[upper] = cumulative - std::min(prev, cumulative);
    prev = cumulative;
  }
  return out;
}

HistDelta HistogramDelta(const JsonValue& before, const JsonValue& after,
                         const std::string& name) {
  const JsonValue* a = after.Get("histograms").Find(name);
  const JsonValue* b = before.Get("histograms").Find(name);
  HistDelta d;
  if (a == nullptr) return d;
  d.count = a->Get("count").AsDouble() - (b ? b->Get("count").AsDouble() : 0);
  d.sum = a->Get("sum").AsDouble() - (b ? b->Get("sum").AsDouble() : 0);
  d.buckets = BucketCounts(a);
  for (const auto& [upper, n] : BucketCounts(b)) {
    d.buckets[upper] -= std::min(d.buckets[upper], n);
  }
  return d;
}

/// Sum of the deltas of every histogram named net.op.<op>.stage.<stage>.*.
HistDelta StageDelta(const JsonValue& before, const JsonValue& after,
                     const std::string& stage) {
  HistDelta total;
  const std::string needle = ".stage." + stage + ".latency_ns";
  for (const auto& [name, value] : after.Get("histograms").members()) {
    if (name.rfind("net.op.", 0) == 0 && name.size() > needle.size() &&
        name.compare(name.size() - needle.size(), needle.size(), needle) == 0) {
      total.Add(HistogramDelta(before, after, name));
    }
  }
  return total;
}

/// Seconds of the first span named `name` in a recovery report's tree.
double SpanSeconds(const JsonValue& node, const std::string& name) {
  if (node.is_object()) {
    const JsonValue* n = node.Find("name");
    if (n != nullptr && n->is_string() && n->AsString() == name) {
      return node.Get("seconds").AsDouble();
    }
    for (const auto& [key, child] : node.members()) {
      const double s = SpanSeconds(child, name);
      if (s > 0) return s;
    }
  } else if (node.is_array()) {
    for (const JsonValue& child : node.items()) {
      const double s = SpanSeconds(child, name);
      if (s > 0) return s;
    }
  }
  return 0;
}

// --- Workloads ----------------------------------------------------------------

enum class Mix {
  kYcsbB,      // 95% reads, 5% read-modify-write, zipf 0.99 over main keys
  kDeltaGrow,  // 50% fresh inserts, 50% reads skewed to recent keys
  kCluster,    // reads plus single- and cross-shard two-insert transactions
};

/// Keys of shard s start at s * kShardWidth (range partitioning).
constexpr int64_t kShardWidth = 10'000'000;

struct Workload {
  const char* name;
  Mix mix;
  bool cluster;  // two shards behind the router (the cross-shard phase)
  Dataset data;  // per shard for a cluster (key_base is added)
  double rate;   // fixed offered rate of the serve phase (ops/s)
  double serve_share;  // of --seconds, for the serve phase
  double search_start;  // first offered rate of the knee search (ops/s)
  size_t region;
};

const Workload kWorkloads[] = {
    {"read_main", Mix::kYcsbB, false, {0, 100'000, 0}, 12'000, 0.5, 48'000,
     size_t{256} << 20},
    {"write_delta", Mix::kDeltaGrow, false, {0, 0, 300'000}, 1'000, 0.5, 16'000,
     size_t{512} << 20},
};

/// The cluster every workload measures cross-shard transactions on: two
/// NVM shards of 2k merged rows behind the router.
const Workload kCluster = {"cluster", Mix::kCluster, true, {0, 2'000, 0}, 800, 0.1, 0,
                           size_t{128} << 20};

Dataset ShardData(const Workload& w, int shard) {
  Dataset d = w.data;
  d.key_base = shard * kShardWidth;
  return d;
}

/// Deterministic operation stream of a mix, seeded by the run's seed.
/// Reads carry the prefix their rows must have whenever the key is known
/// to exist: loaded, or written and acknowledged before the read issued.
class MixSource {
 public:
  /// Cluster mixes: `read_share` of operations are reads; of the
  /// transactions, `cross_share` span both shards.
  MixSource(Mix mix, std::vector<Dataset> shards, uint64_t seed,
            double read_share = 0.5, double cross_share = 0.1)
      : mix_(mix),
        shards_(std::move(shards)),
        rng_(seed),
        zipf_(mix == Mix::kYcsbB ? std::max<uint64_t>(1, shards_[0].rows())
                                 : kRecentWindow,
              0.99, seed ^ 0x5bd1e995),
        read_share_(read_share),
        cross_share_(cross_share) {
    for (const Dataset& d : shards_) next_key_.push_back(d.end());
    acked_.resize(shards_.size());
  }

  Op Next() {
    switch (mix_) {
      case Mix::kYcsbB: {
        const int64_t key =
            shards_[0].key_base + static_cast<int64_t>(zipf_.Next());
        Op op;
        op.key = key;
        if (rng_.NextDouble() < 0.95) {
          op.kind = OpKind::kRead;
          op.expect_prefix = PrefixFor(key);
        } else {
          op.kind = OpKind::kRmw;
          op.cls = kClassWrite;
          op.value = ValueFor(key, ++version_);
        }
        return op;
      }
      case Mix::kDeltaGrow:
        return rng_.NextDouble() < 0.5 ? Insert(0) : RecentRead(0);
      case Mix::kCluster: {
        const size_t shard = rng_.Uniform(shards_.size());
        if (rng_.NextDouble() < read_share_) return UniformRead(shard);
        const bool cross = rng_.NextDouble() < cross_share_;
        Op op;
        op.kind = OpKind::kTxn;
        op.cls = cross ? kClassCross : kClassWrite;
        const size_t second = cross ? (shard + 1) % shards_.size() : shard;
        op.key = next_key_[shard]++;
        op.key2 = next_key_[second]++;
        op.value = ValueFor(op.key, 0);
        op.value2 = ValueFor(op.key2, 0);
        return op;
      }
    }
    return Op{};
  }

  /// Marks an acknowledged write; later reads of the key expect it.
  void Ack(int64_t key) {
    const size_t shard = ShardOf(key);
    const int64_t offset = key - shards_[shard].end();
    if (offset < 0) return;
    auto& bits = acked_[shard];
    if (bits.size() <= static_cast<size_t>(offset)) bits.resize(offset + 4096);
    bits[offset] = true;
  }

  uint64_t inserted() const {
    uint64_t n = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      n += static_cast<uint64_t>(next_key_[s] - shards_[s].end());
    }
    return n;
  }

 private:
  static constexpr uint64_t kRecentWindow = 65'536;

  size_t ShardOf(int64_t key) const {
    return std::min<size_t>(shards_.size() - 1,
                            static_cast<size_t>(key / kShardWidth));
  }

  Op Insert(size_t shard) {
    Op op;
    op.kind = OpKind::kInsert;
    op.cls = kClassWrite;
    op.key = next_key_[shard]++;
    op.value = ValueFor(op.key, 0);
    return op;
  }

  Op RecentRead(size_t shard) {
    const Dataset& d = shards_[shard];
    const int64_t newest = next_key_[shard] - 1;
    const int64_t span = newest - d.key_base + 1;
    Op op;
    op.kind = OpKind::kRead;
    if (span <= 0) {
      op.key = d.key_base;
      return op;
    }
    const auto back = static_cast<int64_t>(zipf_.Next()) % span;
    op.key = newest - back;
    if (op.key < d.end()) {
      op.expect_prefix = PrefixFor(op.key);
    } else {
      const auto offset = static_cast<size_t>(op.key - d.end());
      const auto& bits = acked_[shard];
      if (offset < bits.size() && bits[offset]) op.expect_prefix = PrefixFor(op.key);
    }
    return op;
  }

  Op UniformRead(size_t shard) {
    const Dataset& d = shards_[shard];
    Op op;
    op.kind = OpKind::kRead;
    op.key = d.key_base + static_cast<int64_t>(rng_.Uniform(std::max<uint64_t>(1, d.rows())));
    if (d.rows() > 0) op.expect_prefix = PrefixFor(op.key);
    return op;
  }

  Mix mix_;
  std::vector<Dataset> shards_;
  hyrise_nv::Rng rng_;
  hyrise_nv::workload::ZipfGenerator zipf_;
  double read_share_;
  double cross_share_;
  std::vector<int64_t> next_key_;
  std::vector<std::vector<bool>> acked_;
  uint64_t version_ = 0;
};

/// Latest acknowledged value per key, for the durability audit.
using AckMap = std::unordered_map<int64_t, std::string>;

/// Runs one schedule from `source`, recording acknowledged writes.
LoadReport Drive(const LoadOptions& options, MixSource& source, AckMap* acked) {
  const OpSource next = [&source](uint64_t) { return source.Next(); };
  const AckSink sink = [&source, acked](int64_t key, const std::string& value) {
    source.Ack(key);
    if (acked != nullptr) (*acked)[key] = value;
  };
  return Check(RunLoad(options, next, sink), "load generator");
}

// --- Topologies -----------------------------------------------------------------

/// A running workload server: one NVM child, or two NVM shard children
/// behind an in-process router.
struct Topology {
  std::vector<Child> shards;
  std::unique_ptr<hyrise_nv::cluster::Router> router;
  uint16_t port = 0;  // where the generator connects
  int connections = 4;
  int depth = 2;
};

Topology StartTopology(const Workload& w, const std::string& dir) {
  Topology t;
  if (!w.cluster) {
    ChildSpec spec;
    spec.dir = dir + "/node";
    std::filesystem::create_directories(spec.dir);
    spec.port = PickPort();
    spec.region = w.region;
    spec.data = w.data;
    t.shards.push_back(Spawn(spec));
    t.port = spec.port;
    return t;
  }
  hyrise_nv::cluster::RouterOptions router_options;
  for (int s = 0; s < 2; ++s) {
    ChildSpec spec;
    spec.dir = dir + "/shard" + std::to_string(s);
    std::filesystem::create_directories(spec.dir);
    spec.port = PickPort();
    spec.region = w.region;
    // One worker per shard: with the router's session thread and the
    // generator, server and generator threads stay within four cores.
    spec.workers = 1;
    spec.data = ShardData(w, s);
    t.shards.push_back(Spawn(spec));
    router_options.shards.push_back({"127.0.0.1", spec.port});
  }
  router_options.data_dir = dir + "/router";
  std::filesystem::create_directories(router_options.data_dir);
  router_options.partitioning = hyrise_nv::cluster::Partitioning::kRange;
  router_options.range_width = kShardWidth;
  t.router = Check(hyrise_nv::cluster::Router::Start(router_options), "router");
  t.port = t.router->port();
  // The router serves each connection on its own thread, in order: one
  // operation in flight per connection keeps a slow commit from holding
  // up the operations queued behind it.
  t.connections = 2;
  t.depth = 1;
  return t;
}

void StopTopology(Topology& t) {
  if (t.router) t.router->Stop();
  t.router.reset();
  for (Child& c : t.shards) KillChild(c);
}

std::vector<Dataset> TopologyData(const Workload& w) {
  if (!w.cluster) return {w.data};
  return {ShardData(w, 0), ShardData(w, 1)};
}

// --- Measurements ---------------------------------------------------------------

struct Lat {
  uint64_t n = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

/// Operations per chunk of the tail estimate (see ChunkMedianPercentile).
constexpr size_t kTailChunk = 1000;

/// p50 and p90 over all samples; p99 as the median of per-chunk p99s.
Lat Latency(std::vector<double> ns) {
  Lat l;
  l.n = ns.size();
  l.p99_us = ChunkMedianPercentile(ns, kTailChunk, 99) / 1e3;
  l.p50_us = Percentile(ns, 50) / 1e3;
  l.p90_us = Percentile(ns, 90) / 1e3;
  return l;
}

std::vector<double> AllLatencies(const LoadReport& r) {
  std::vector<double> all;
  for (const ClassStats& c : r.cls) {
    all.insert(all.end(), c.latency_ns.begin(), c.latency_ns.end());
  }
  return all;
}

/// Adds the outcomes, samples and spans of `from` to `into`.
void Append(LoadReport* into, LoadReport from) {
  for (int c = 0; c < kNumClasses; ++c) {
    ClassStats& a = into->cls[c];
    ClassStats& b = from.cls[c];
    a.attempted += b.attempted;
    a.ok += b.ok;
    a.errors += b.errors;
    a.shed += b.shed;
    a.abandoned += b.abandoned;
    a.wrong += b.wrong;
    a.empty += b.empty;
    a.latency_ns.insert(a.latency_ns.end(), b.latency_ns.begin(), b.latency_ns.end());
    a.rtt_ns.insert(a.rtt_ns.end(), b.rtt_ns.begin(), b.rtt_ns.end());
  }
  into->late_ns.insert(into->late_ns.end(), from.late_ns.begin(), from.late_ns.end());
  into->backlog_peak = std::max(into->backlog_peak, from.backlog_peak);
  into->backlog_end = std::max(into->backlog_end, from.backlog_end);
  into->spans.insert(into->spans.end(), std::make_move_iterator(from.spans.begin()),
                     std::make_move_iterator(from.spans.end()));
}

constexpr double kLatencyLimitUs = 1000;

struct SearchResult {
  double max_rate = 0;
  /// Generator lateness p99 (us) at the lowest failing probe.
  double late_p99_at_limit_us = 0;
  bool generator_limited = false;
};

/// Highest offered rate whose median latency stays within 1 ms with
/// nothing shed, failed or left behind and no growing backlog: the knee
/// where queueing takes over. (A p99 limit is not used: write_delta
/// stalls for milliseconds several times a second at any rate.)
SearchResult SearchMaxRate(const Topology& t, MixSource& source, double start,
                           double probe_s) {
  RateSearch search(start, 1.5, start / 64, start * 16, 5);
  SearchResult out;
  double lowest_fail = 0;
  while (!search.done()) {
    LoadOptions options;
    options.port = t.port;
    options.connections = t.connections;
    options.depth = t.depth;
    options.rate = search.next();
    options.warmup_s = 0.1;
    options.duration_s = probe_s;
    options.drain_timeout_s = 0.5;
    // A probe that failed without overload is run again: one stall of the
    // machine should not end the search. A backlog that grows leaves more
    // than 20 ms of arrivals queued when the schedule ends.
    const double backlog_limit =
        std::max<double>(t.connections * t.depth, options.rate * 0.02);
    LoadReport r;
    double p50_us = 0;
    bool pass = false;
    for (int attempt = 0; attempt < 2; ++attempt) {
      r = Drive(options, source, nullptr);
      std::vector<double> all = AllLatencies(r);
      p50_us = Percentile(all, 50) / 1e3;
      const bool overloaded = static_cast<double>(r.backlog_end) > backlog_limit;
      pass = r.Failed() == 0 && p50_us <= kLatencyLimitUs && !overloaded;
      if (pass || overloaded) break;
    }
    std::printf("  probe %.0f ops/s: p50 %.1f us, backlog_end %" PRIu64
                ", failed %" PRIu64 " -> %s\n",
                options.rate, p50_us, r.backlog_end, r.Failed(),
                pass ? "pass" : "fail");
    if (!pass && (lowest_fail == 0 || options.rate < lowest_fail)) {
      lowest_fail = options.rate;
      out.late_p99_at_limit_us = Percentile(r.late_ns, 99) / 1e3;
    }
    search.Record(pass);
  }
  out.max_rate = search.best();
  // When the generator itself ran late at the failing rate, the limit is
  // the generator's, not the server's.
  out.generator_limited =
      lowest_fail > 0 && out.late_p99_at_limit_us > 0.25 * kLatencyLimitUs;
  return out;
}

/// Reads every acknowledged key back; each must show its acknowledged
/// value or a later version of it. Returns the number missing.
uint64_t AuditAcked(uint16_t port, const AckMap& acked) {
  net::PipelineClientOptions options;
  options.port = port;
  options.request_window = 32;
  net::PipelinedClient client(options);
  Check(client.Connect(), "audit connect");
  uint64_t missing = 0;
  std::vector<std::pair<int64_t, const std::string*>> order;
  order.reserve(acked.size());
  for (const auto& [key, value] : acked) order.push_back({key, &value});
  size_t done = 0;
  auto consume = [&]() {
    auto completion = Check(client.Next(), "audit read");
    const auto& [key, value] = order[done++];
    bool found = false;
    if (completion.code == net::WireCode::kOk) {
      net::WireReader reader(completion.body.data(), completion.body.size());
      reader.U8();
      const uint32_t n = reader.U32();
      for (uint32_t i = 0; i < n && reader.ok(); ++i) {
        reader.Loc();
        const std::vector<Value> row = reader.Row();
        if (row.size() > 1 && std::holds_alternative<std::string>(row[1])) {
          const std::string& v = std::get<std::string>(row[1]);
          if (v.rfind(PrefixFor(key), 0) == 0 && VersionOf(v) >= VersionOf(*value)) {
            found = true;
          }
        }
      }
    }
    if (!found) ++missing;
  };
  for (const auto& [key, value] : order) {
    Check(client.Submit(net::MakeScanEqualPayload("kv", 0, Value(key), 8)).status(),
          "audit submit");
    while (client.outstanding() >= 32) consume();
  }
  while (done < order.size()) consume();
  return missing;
}

struct LegResult {
  double restart_ms = 0;        // median over the kills
  double process_start_ms = 0;  // median over the kills
  JsonValue recovery;  // RecoveryInfo after the last restart
  uint64_t acked = 0;
  uint64_t missing = 0;
  JsonValue before;  // server metrics around the first kill's write load
  JsonValue after;
};

/// `kills` times: write load for `load_s`, kill -9, restart from the data
/// directory under `spec`, and time the first answered point read; then
/// every write acknowledged before that kill must read back.
LegResult KillAndRestart(Child& child, ChildSpec spec, MixSource& source,
                         double rate, double load_s, int64_t probe_key,
                         int kills, bool want_metrics) {
  LegResult leg;
  std::vector<double> restart_ms;
  std::vector<double> start_ms;
  spec.create = false;
  spec.port = child.port;
  for (int k = 0; k < kills; ++k) {
    const bool metrics = want_metrics && k == 0;
    if (metrics) leg.before = ServerMetrics(child.port);
    AckMap acked;
    LoadOptions options;
    options.port = child.port;
    options.connections = 2;
    options.depth = 2;
    options.rate = rate;
    options.warmup_s = 0;
    options.duration_s = load_s + 30;  // ends when the kill drops the sockets
    options.tolerate_disconnect = true;
    LoadReport load;
    std::thread generator([&] { load = Drive(options, source, &acked); });
    SleepSeconds(load_s);
    if (metrics) leg.after = ServerMetrics(child.port);
    const uint64_t kill_ns = NowNs();
    KillChild(child);
    generator.join();

    child = Spawn(spec);
    net::Client client = Connect(spec.port);
    while (true) {
      auto scan = client.ScanEqual("kv", 0, Value(probe_key), false, 4);
      if (scan.ok() && !scan->rows.empty()) break;
      if (!scan.ok() && !client.last_warming()) Check(scan.status(), "first read");
      if (MsBetween(kill_ns, NowNs()) > 60'000) Fail("no answer after restart");
    }
    restart_ms.push_back(MsBetween(kill_ns, NowNs()));
    start_ms.push_back(MsBetween(kill_ns, child.start_ns));
    leg.recovery = Check(hyrise_nv::common::JsonParse(
                             Check(client.RecoveryInfo(), "recovery info")),
                         "parse recovery info");
    leg.acked += acked.size();
    leg.missing += AuditAcked(spec.port, acked);
    // An on-demand restart keeps replaying in the background; let it
    // finish so every kill starts from the same state.
    Check(client.WaitUntilReady(120'000), "wait for recovery drain");
  }
  leg.restart_ms = Percentile(restart_ms, 50);
  leg.process_start_ms = Percentile(start_ms, 50);
  return leg;
}

/// Durability audit on a shadow-tracked image: acknowledged writes of the
/// write_delta mix must survive CrashAndRecover, which drops every
/// unfenced line; aborted and unfinished transactions must stay invisible.
bool ShadowCrashAudit(uint64_t seed, int ops, std::string* detail) {
  core::DatabaseOptions options = EngineOptions(core::DurabilityMode::kNvm, "", size_t{64} << 20);
  options.tracking = hyrise_nv::nvm::TrackingMode::kShadow;
  auto db = Check(core::Database::Create(options), "audit create");
  Check(BuildDataset(db.get(), Dataset{}).status(), "audit dataset");
  storage::Table* table = Check(db->GetTable("kv"), "audit table");
  MixSource source(Mix::kDeltaGrow, {Dataset{}}, seed);
  hyrise_nv::Rng rng(seed ^ 0xa0761d6478bd642full);
  AckMap acked;
  std::vector<int64_t> absent;
  for (int i = 0; i < ops; ++i) {
    const Op op = source.Next();
    if (op.kind != OpKind::kInsert) continue;
    auto tx = Check(db->Begin(), "audit begin");
    Check(db->Insert(tx, table, {Value(op.key), Value(op.value)}).status(), "audit insert");
    if (rng.Uniform(10) == 0) {
      Check(db->Abort(tx), "audit abort");
      absent.push_back(op.key);
    } else {
      Check(db->Commit(tx), "audit commit");
      acked[op.key] = op.value;
      source.Ack(op.key);
    }
  }
  // A transaction still open at the crash: its row must not survive.
  const Op last = source.Next();
  auto open_tx = Check(db->Begin(), "audit begin");
  const int64_t open_key = last.kind == OpKind::kInsert ? last.key : -1;
  if (open_key >= 0) {
    Check(db->Insert(open_tx, table, {Value(open_key), Value(last.value)}).status(),
          "audit insert");
    absent.push_back(open_key);
  }
  db = Check(core::Database::CrashAndRecover(std::move(db)), "crash and recover");
  table = Check(db->GetTable("kv"), "audit table");
  uint64_t lost = 0;
  uint64_t ghosts = 0;
  auto visible = [&](int64_t key, const std::string* expect) {
    auto rows = Check(db->ScanEqual(table, 0, Value(key), db->ReadSnapshot(),
                                    storage::kTidNone),
                      "audit scan");
    for (const auto& loc : rows) {
      const Value v = table->GetValue(loc, 1);
      if (expect == nullptr || std::get<std::string>(v) == *expect) return true;
    }
    return false;
  };
  for (const auto& [key, value] : acked) lost += visible(key, &value) ? 0 : 1;
  for (int64_t key : absent) ghosts += visible(key, nullptr) ? 1 : 0;
  *detail = std::to_string(acked.size()) + " acknowledged, " + std::to_string(lost) +
            " lost, " + std::to_string(absent.size()) + " aborted or unfinished, " +
            std::to_string(ghosts) + " visible";
  return lost == 0 && ghosts == 0;
}

struct PersistCounts {
  double fences = 0;
  double lines = 0;
  double persists = 0;
  double flushed_bytes = 0;
};

/// Single client, fresh image: `txns` 1-row insert-commits, counted
/// exactly by the region's persist counters.
PersistCounts ExactPersistCounts(const std::string& dir, bool with_index, int txns) {
  std::filesystem::create_directories(dir);
  auto db = Check(core::Database::Create(
                      EngineOptions(core::DurabilityMode::kNvm, dir, size_t{64} << 20)),
                  "exact create");
  auto schema = Check(storage::Schema::Make({{"k", storage::DataType::kInt64},
                                             {"v", storage::DataType::kString}}),
                      "schema");
  storage::Table* table = Check(db->CreateTable("kv", schema), "exact table");
  if (with_index) Check(db->CreateIndex("kv", 0), "exact index");
  auto& stats = db->nvm_stats();
  const uint64_t f0 = stats.fences, l0 = stats.flush_lines, p0 = stats.persist_calls,
                 b0 = stats.flushed_bytes;
  for (int i = 0; i < txns; ++i) {
    auto tx = Check(db->Begin(), "exact begin");
    Check(db->Insert(tx, table, {Value(int64_t{i}), Value(ValueFor(i, 0))}).status(),
          "exact insert");
    Check(db->Commit(tx), "exact commit");
  }
  PersistCounts c;
  c.fences = static_cast<double>(stats.fences - f0) / txns;
  c.lines = static_cast<double>(stats.flush_lines - l0) / txns;
  c.persists = static_cast<double>(stats.persist_calls - p0) / txns;
  c.flushed_bytes = static_cast<double>(stats.flushed_bytes - b0) / txns;
  Check(db->Close(), "exact close");
  return c;
}

/// In-memory span recorder for the benchmark's own calls into the engine.
class Tracer {
 public:
  uint64_t Add(const char* name, uint64_t parent, uint64_t start_ns) {
    spans_.push_back({++next_, parent, name, start_ns, NowNs()});
    return next_;
  }
  /// Reserves an id for a parent whose end is known only later.
  uint64_t Reserve() { return ++next_; }
  void Close(uint64_t id, const char* name, uint64_t start_ns) {
    spans_.push_back({id, 0, name, start_ns, NowNs()});
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
  uint64_t next_ = 1'000'000'000;  // disjoint from generator span ids
};

struct ReplayResult {
  Tracer tracer;
  double candidates = 0;
  double visible = 0;
  double merge_s = 0;
  double merge_rows = 0;
};

/// Replays the workload's op stream (same mix and seed) in-process against
/// core::Database for `seconds`, one call at a time, with spans around
/// each call into core and index.
ReplayResult Replay(const Workload& w, uint64_t seed, const std::string& dir,
                    double seconds) {
  ReplayResult out;
  std::filesystem::create_directories(dir);
  auto db = Check(core::Database::Create(
                      EngineOptions(core::DurabilityMode::kNvm, dir, w.region)),
                  "replay create");
  const double build_merge_s = Check(BuildDataset(db.get(), w.data), "replay dataset");
  storage::Table* table = Check(db->GetTable("kv"), "replay table");
  hyrise_nv::index::IndexSet* indexes = db->indexes(table);
  MixSource source(w.mix, {w.data}, seed);
  Tracer& tr = out.tracer;
  const uint64_t end_ns = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < end_ns) {
    const Op op = source.Next();
    const uint64_t root = tr.Reserve();
    const uint64_t op_start = NowNs();
    std::vector<storage::RowLocation> rows;
    if (op.kind == OpKind::kRead || op.kind == OpKind::kRmw) {
      uint64_t t0 = NowNs();
      rows = Check(db->ScanEqual(table, 0, Value(op.key), db->ReadSnapshot(),
                                 storage::kTidNone),
                   "replay scan");
      tr.Add("core.scan_equal", root, t0);
      t0 = NowNs();
      uint64_t candidates = 0;
      Check(indexes->ForEachEqualCandidate(0, Value(op.key),
                                           [&](storage::RowLocation) { ++candidates; }),
            "replay lookup");
      tr.Add("index.equal_lookup", root, t0);
      out.candidates += static_cast<double>(candidates);
      out.visible += static_cast<double>(rows.size());
    }
    if (op.kind != OpKind::kRead) {
      uint64_t t0 = NowNs();
      auto tx = Check(db->Begin(), "replay begin");
      tr.Add("core.begin", root, t0);
      if (op.kind == OpKind::kRmw) {
        if (rows.empty()) Fail("replay: read-modify-write found no row");
        t0 = NowNs();
        Check(db->Update(tx, table, rows.front(), {Value(op.key), Value(op.value)}).status(),
              "replay update");
        tr.Add("core.write", root, t0);
      } else {
        t0 = NowNs();
        Check(db->Insert(tx, table, {Value(op.key), Value(op.value)}).status(),
              "replay insert");
        tr.Add("core.write", root, t0);
      }
      t0 = NowNs();
      Check(db->Commit(tx), "replay commit");
      tr.Add("core.commit", root, t0);
      source.Ack(op.key);
    }
    tr.Close(root, "replay.op", op_start);
  }
  const uint64_t rows_before = table->main().row_count() + table->delta().row_count();
  if (build_merge_s > 0) {
    out.merge_s = build_merge_s;
    out.merge_rows = static_cast<double>(w.data.main_rows);
  } else {
    out.merge_s = Check(db->Merge("kv"), "replay merge").seconds;
    out.merge_rows = static_cast<double>(rows_before);
  }
  Check(db->Close(), "replay close");
  return out;
}

// --- Report -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-40s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
  void Note(const std::string& line) { std::printf("  %s\n", line.c_str()); }
  void Verdict(bool ok, const std::string& what) {
    std::printf("  check %-36s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    correct_ = correct_ && ok;
  }
  bool correct() const { return correct_; }

  std::string Json(uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    Fail("usage: nvbench --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1> --work-dir <dir>");
  }
  return args;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

/// Prepared-but-undecided transactions left on the cluster's shards.
uint64_t InDoubt(const Topology& t) {
  uint64_t n = 0;
  for (const Child& c : t.shards) {
    net::Client client = Connect(c.port);
    n += Check(client.InDoubt(), "in doubt").size();
  }
  return n;
}

/// Router p50 minus direct-to-shard p50 of point reads at one low rate.
double HopUs(const Topology& t, const Workload& w, uint64_t seed, double seconds) {
  LoadOptions options;
  options.connections = 1;
  options.depth = 1;
  options.rate = 500;
  options.warmup_s = 0.1;
  options.duration_s = seconds;
  options.port = t.port;
  MixSource routed(Mix::kCluster, TopologyData(w), seed, /*read_share=*/1);
  LoadReport via_router = Drive(options, routed, nullptr);
  options.port = t.shards[0].port;
  MixSource direct(Mix::kCluster, {ShardData(w, 0)}, seed, /*read_share=*/1);
  LoadReport to_shard = Drive(options, direct, nullptr);
  return Latency(via_router.cls[kClassRead].latency_ns).p50_us -
         Latency(to_shard.cls[kClassRead].latency_ns).p50_us;
}

/// Writes back dirty pages of the file system holding `dir` (left by an
/// earlier run or phase), so fsyncs measured next do not wait for them.
void FlushFileSystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// Confines the run (and the server children it forks) to all CPUs but
/// the last: the generator and the server then share cores the same way
/// in every run, and one CPU stays free for the rest of the machine.
void ConfineCpus() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) < 3) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_CLR(cpu, &set);
      break;
    }
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

int Run(const Args& args) {
  ConfineCpus();
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Fail("unknown workload " + args.workload);
  const Workload& w = *found;
  const double S = args.seconds;
  const std::string root = args.work_dir + "/" + w.name;
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  std::printf("workload %s seed %" PRIu64 " seconds %.0f trace %d\n", w.name,
              args.seed, S, args.trace ? 1 : 0);

  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MixSource source(w.mix, {w.data}, args.seed);

  FlushFileSystem(root);
  // Cross-shard transactions first: a transaction-only mix, mostly
  // cross-shard, at a low fixed rate through the router of a two-shard
  // cluster. Its commits fsync the router's decision log, so it runs
  // before the workload's large images dirty the page cache.
  std::printf("cluster\n");
  Topology ct = StartTopology(kCluster, root + "/cluster");
  MixSource txns(Mix::kCluster, TopologyData(kCluster), args.seed + 2,
                 /*read_share=*/0, /*cross_share=*/0.8);
  LoadOptions cross;
  cross.port = ct.port;
  cross.connections = ct.connections;
  cross.depth = ct.depth;
  cross.rate = kCluster.rate;
  cross.warmup_s = 0.2;
  cross.duration_s = kCluster.serve_share * S;
  const LoadReport cluster_run = Drive(cross, txns, nullptr);
  attempted += cluster_run.Attempted();
  failed += cluster_run.Failed();
  const uint64_t in_doubt = InDoubt(ct);
  const double hop_us = args.trace ? HopUs(ct, kCluster, args.seed, 0.05 * S) : 0;
  StopTopology(ct);
  std::filesystem::remove_all(root + "/cluster");

  // Kill phases run the workload's own mix at a fixed rate.
  MixSource kill_source(w.mix, {w.data}, args.seed + 1);
  const double kill_rate = std::min(w.rate, 3000.0);
  const double kill_load_s = 0.3;
  constexpr int kNvmKills = 7;
  constexpr int kWalKills = 5;
  const int64_t probe_key = w.data.key_base;
  ChildSpec node_spec;
  node_spec.region = w.region;
  node_spec.workers = 2;
  node_spec.data = w.data;

  // Set up three times: the first copy takes the NVM kills, the second
  // the knee search, the third serves. setup_s is the median.
  std::vector<double> setup_s;
  auto setup = [&](int i) {
    Topology t = StartTopology(w, root + "/setup" + std::to_string(i));
    setup_s.push_back(MsBetween(t.shards[0].spawn_ns, NowNs()) / 1e3);
    return t;
  };
  std::printf("setup + restart: nvm\n");
  LegResult nvm_leg;
  {
    Topology t = setup(0);
    node_spec.dir = root + "/setup0/node";
    nvm_leg = KillAndRestart(t.shards.back(), node_spec, kill_source, kill_rate,
                             kill_load_s, probe_key, kNvmKills, false);
    StopTopology(t);
    std::filesystem::remove_all(root + "/setup0");
  }
  std::printf("search\n");
  SearchResult search;
  {
    Topology t = setup(1);
    MixSource search_source(w.mix, {w.data}, args.seed + 3);
    search = SearchMaxRate(t, search_source, w.search_start, 0.025 * S);
    StopTopology(t);
    std::filesystem::remove_all(root + "/setup1");
  }
  if (search.generator_limited) {
    std::printf("  WARNING: the generator, not the server, capped max_rate_ops_s "
                "(lateness p99 %.1f us at the first failing rate)\n",
                search.late_p99_at_limit_us);
  }
  Topology topo = setup(2);
  std::sort(setup_s.begin(), setup_s.end());

  // Serve at the fixed rate in three segments spread over the rest of the
  // run, around the WAL legs, so a slow stretch of the machine weighs on
  // one segment only. The traced run first serves one untraced segment
  // and reports the difference as the tracing overhead.
  constexpr int kSegments = 3;
  LoadOptions serve;
  serve.port = topo.port;
  serve.connections = topo.connections;
  serve.depth = topo.depth;
  serve.rate = w.rate;
  serve.warmup_s = 0.3;
  serve.duration_s = (args.trace ? 0.5 : 1.0) * w.serve_share * S / kSegments;
  LoadReport untraced;
  if (args.trace) untraced = Drive(serve, source, nullptr);
  const uint16_t metrics_port = topo.shards[0].port;
  const JsonValue before = ServerMetrics(metrics_port);
  serve.trace = args.trace;
  LoadReport served;
  auto serve_segment = [&] {
    std::printf("serve\n");
    Append(&served, Drive(serve, source, nullptr));
  };
  serve_segment();

  // A WAL (value log) copy of the same data: eager replay, then on-demand
  // replay.
  std::printf("restart: wal\n");
  FlushFileSystem(root);
  ChildSpec wal_spec = node_spec;
  wal_spec.mode = core::DurabilityMode::kWalValue;
  wal_spec.dir = root + "/wal";
  std::filesystem::create_directories(wal_spec.dir);
  wal_spec.port = PickPort();
  Child wal = Spawn(wal_spec);
  wal_spec.policy = core::LogRecoveryPolicy::kEagerReplay;
  LegResult eager = KillAndRestart(wal, wal_spec, kill_source, kill_rate,
                                   kill_load_s, probe_key, kWalKills, args.trace);
  serve_segment();
  wal_spec.policy = core::LogRecoveryPolicy::kServeOnDemand;
  LegResult ondemand = KillAndRestart(wal, wal_spec, kill_source, kill_rate,
                                      kill_load_s, probe_key, kWalKills, false);
  KillChild(wal);
  std::filesystem::remove_all(wal_spec.dir);
  serve_segment();

  const JsonValue after = ServerMetrics(metrics_port);
  attempted += served.Attempted();
  failed += served.Failed();
  for (int c = 0; c < kNumClasses; ++c) {
    const ClassStats& s = served.cls[c];
    std::printf("  %-5s attempted %" PRIu64 " ok %" PRIu64 " error %" PRIu64
                " shed %" PRIu64 " abandoned %" PRIu64 " wrong %" PRIu64
                " empty %" PRIu64 "\n",
                ClassName(c), s.attempted, s.ok, s.errors, s.shed, s.abandoned,
                s.wrong, s.empty);
  }
  std::vector<double> late = served.late_ns;
  const double late_p99_us = Percentile(late, 99) / 1e3;
  std::printf("  generator lateness p99 %.1f us, backlog peak %" PRIu64 "\n",
              late_p99_us, served.backlog_peak);

  double used_bytes = 0;
  double in_use_bytes = 0;
  for (const Child& c : topo.shards) {
    const JsonValue m = ServerMetrics(c.port);
    used_bytes += Gauge(m, "nvm.region.used_bytes");
    in_use_bytes += Gauge(m, "alloc.bytes_in_use");
  }
  const double user_bytes =
      kUserBytesPerRow * static_cast<double>(w.data.rows() + source.inserted());
  StopTopology(topo);
  std::filesystem::remove_all(root + "/setup2");

  std::printf("audit\n");
  std::string audit_detail;
  const bool shadow_ok = ShadowCrashAudit(args.seed, 4000, &audit_detail);
  report.Note("shadow crash audit: " + audit_detail);

  // --- Verdict ---------------------------------------------------------------
  report.Verdict(served.Failed() == 0, "serve: no failed operation");
  report.Verdict(cluster_run.Failed() == 0, "cluster: no failed operation");
  report.Verdict(in_doubt == 0, "cluster.in_doubt_end == 0");
  report.Verdict(nvm_leg.acked > 0 && nvm_leg.missing == 0,
                 "restart nvm: acknowledged writes");
  report.Verdict(eager.acked > 0 && eager.missing == 0,
                 "restart wal eager: acknowledged writes");
  report.Verdict(ondemand.acked > 0 && ondemand.missing == 0,
                 "restart wal on-demand: acknowledged writes");
  report.Verdict(shadow_ok, "shadow crash audit");
  report.Note("acknowledged before kill: nvm " + std::to_string(nvm_leg.acked) +
              ", wal eager " + std::to_string(eager.acked) + ", wal on-demand " +
              std::to_string(ondemand.acked));

  const Lat read = Latency(served.cls[kClassRead].latency_ns);
  const Lat write = Latency(served.cls[kClassWrite].latency_ns);
  const Lat crossl = Latency(cluster_run.cls[kClassCross].latency_ns);
  const Lat single = Latency(cluster_run.cls[kClassWrite].latency_ns);
  {
    std::vector<double> cross_ns = cluster_run.cls[kClassCross].latency_ns;
    char line[128];
    std::snprintf(line, sizeof(line), "cross p50 %.1f us, p90 %.1f us, pooled p99 %.1f us",
                  Percentile(cross_ns, 50) / 1e3, Percentile(cross_ns, 90) / 1e3,
                  Percentile(cross_ns, 99) / 1e3);
    report.Note(line);
  }
  report.Note("samples: read " + std::to_string(read.n) + ", write " +
              std::to_string(write.n) + ", cross " + std::to_string(crossl.n) +
              "; offered " + std::to_string(static_cast<int>(w.rate)) + " ops/s");

  if (!args.trace) {
    std::printf("end-to-end metrics\n");
    report.Add("read_p50_us", read.p50_us, "us");
    report.Add("write_p50_us", write.p50_us, "us");
    // Printed, not gated: on read_main the knee sits at 80-160k ops/s,
    // where the one generator thread and the machine decide it.
    report.Note("max_rate_ops_s " + std::to_string(search.max_rate) + " ops/s");
    const double ok_frac =
        static_cast<double>(attempted - failed) / std::max<double>(1, attempted);
    report.Add("ok_frac", ok_frac, "ratio");
    report.Note("failed_frac " + std::to_string(1 - ok_frac) + " (" +
                std::to_string(failed) + " of " + std::to_string(attempted) +
                " attempted)");
    report.Add("restart_nvm_ms", nvm_leg.restart_ms, "ms");
    report.Add("restart_wal_eager_ms", eager.restart_ms, "ms");
    report.Add("restart_wal_ondemand_ms", ondemand.restart_ms, "ms");
    report.Add("bytes_per_user_byte", used_bytes / user_bytes, "B/B");
    report.Add("setup_s", setup_s[1], "s");
  } else {
    std::printf("per-layer metrics\n");
    report.Add("serve.read_p90_us", read.p90_us, "us");
    report.Add("serve.write_p90_us", write.p90_us, "us");
    report.Add("serve.read_p99_us", read.p99_us, "us");
    report.Add("serve.write_p99_us", write.p99_us, "us");
    report.Add("serve.max_rate_ops_s", search.max_rate, "ops/s");
    // net: the client round trip against the server's own request
    // latency and stage histograms over the same traced serve phase.
    std::vector<double> rtts;
    for (const ClassStats& c : served.cls) {
      rtts.insert(rtts.end(), c.rtt_ns.begin(), c.rtt_ns.end());
    }
    double rtt_mean = 0;
    for (double v : rtts) rtt_mean += v / static_cast<double>(rtts.size());
    const HistDelta server = HistogramDelta(before, after, "net.request.latency_ns");
    report.Add("net.rtt_minus_server_us", (rtt_mean - server.Mean()) / 1e3, "us");
    double stage_sum = 0;
    for (const char* stage : {"parse", "dispatch", "execute", "wal_sync",
                              "commit_publish", "write_flush"}) {
      const HistDelta d = StageDelta(before, after, stage);
      stage_sum += d.sum / std::max(1.0, server.count);
      if (std::string(stage) == "dispatch") continue;
      if (std::string(stage) == "wal_sync") {  // no log to sync in NVM mode
        report.Note("net.stage.wal_sync_p99_us " + std::to_string(d.P(99) / 1e3));
        continue;
      }
      report.Add(std::string("net.stage.") + stage + "_p50_us", d.P(50) / 1e3, "us");
      report.Add(std::string("net.stage.") + stage + "_p99_us", d.P(99) / 1e3, "us");
    }
    const double coverage = StageCoverage(rtt_mean, server.Mean(), stage_sum);
    report.Add("net.stage_coverage", coverage, "ratio");
    report.Verdict(coverage >= kMinStageCoverage, "net.stage_coverage >= 0.9");
    report.Add("gen.late_p99_us", late_p99_us, "us");
    report.Note("net.shed_frac " +
                std::to_string(CounterDelta(before, after, "net.overload.rejections") /
                               std::max<double>(1, served.Attempted())));
    std::vector<double> untraced_reads = untraced.cls[kClassRead].latency_ns;
    std::vector<double> traced_reads = served.cls[kClassRead].latency_ns;
    report.Add("trace.overhead_read_p50_us",
               (Percentile(traced_reads, 50) - Percentile(untraced_reads, 50)) / 1e3,
               "us");

    // core and index: the in-process replay of the same op stream.
    ReplayResult replay = Replay(w, args.seed, root + "/replay", 0.1 * S);
    std::map<std::string, std::vector<double>> by_name;
    for (const Span& s : replay.tracer.spans()) {
      by_name[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    for (const std::string name :
         {"core.scan_equal", "core.begin", "core.write", "core.commit"}) {
      std::vector<double>& v = by_name[name];
      report.Add(name + "_p50_us", Percentile(v, 50) / 1e3, "us");
      report.Add(name + "_p99_us", Percentile(v, 99) / 1e3, "us");
    }
    report.Add("index.equal_lookup_us",
               Percentile(by_name["index.equal_lookup"], 50) / 1e3, "us");
    report.Add("index.candidates_per_row",
               replay.candidates / std::max(1.0, replay.visible), "count");

    // txn, alloc: exported counters over the traced serve phase.
    const double commits =
        std::max(1.0, CounterDelta(before, after, "txn.commit.count"));
    report.Add("txn.commit_p99_us",
               HistogramDelta(before, after, "txn.commit.latency_ns").P(99) / 1e3, "us");
    report.Add("txn.queue_wait_p99_us",
               HistogramDelta(before, after, "txn.commit.queue_wait_ns").P(99) / 1e3,
               "us");
    report.Add("txn.group_size_mean",
               HistogramDelta(before, after, "txn.commit.group_size").Mean(), "count");
    report.Note("txn.abort_frac " +
                std::to_string(CounterDelta(before, after, "txn.abort.count") / commits));
    report.Add("alloc.allocs_per_txn",
               CounterDelta(before, after, "alloc.alloc.count") / commits, "count");
    report.Add("alloc.frees_per_txn",
               CounterDelta(before, after, "alloc.free.count") / commits, "count");
    report.Add("alloc.bytes_in_use_per_user_byte", in_use_bytes / user_bytes, "B/B");

    // nvm: exact persist counts of single-client 1-row insert-commits.
    const PersistCounts idx = ExactPersistCounts(root + "/exact_idx", true, 200);
    const PersistCounts noidx = ExactPersistCounts(root + "/exact_noidx", false, 200);
    report.Add("nvm.fences_per_txn", idx.fences, "count");
    report.Add("nvm.flush_lines_per_txn", idx.lines, "count");
    report.Add("nvm.persists_per_txn", idx.persists, "count");
    report.Add("nvm.fences_per_txn_noindex", noidx.fences, "count");
    report.Add("nvm.flush_lines_per_txn_noindex", noidx.lines, "count");
    report.Add("nvm.persists_per_txn_noindex", noidx.persists, "count");
    report.Add("nvm.flushed_bytes_per_user_byte", idx.flushed_bytes / kUserBytesPerRow,
               "B/B");

    report.Add("storage.merge_s", replay.merge_s, "s");
    report.Add("storage.merge_rows_per_s",
               replay.merge_rows / std::max(1e-9, replay.merge_s), "rows/s");

    const double wal_commits =
        std::max(1.0, CounterDelta(eager.before, eager.after, "wal.commits.total"));
    report.Add("wal.fsyncs_per_commit",
               CounterDelta(eager.before, eager.after, "wal.fsync.count") / wal_commits,
               "count");
    report.Add("wal.bytes_per_user_byte",
               CounterDelta(eager.before, eager.after, "wal.bytes.logged") /
                   (std::max<double>(1, eager.acked) * kUserBytesPerRow),
               "B/B");

    report.Add("recovery.nvm.map_ms", SpanSeconds(nvm_leg.recovery, "map") * 1e3, "ms");
    report.Add("recovery.nvm.attach_catalog_ms",
               SpanSeconds(nvm_leg.recovery, "attach_catalog") * 1e3, "ms");
    report.Add("recovery.nvm.rollforward_ms",
               SpanSeconds(nvm_leg.recovery, "rollforward_commits") * 1e3, "ms");
    report.Add("restart.process_start_ms", nvm_leg.process_start_ms, "ms");
    report.Add("recovery.wal.checkpoint_load_ms",
               SpanSeconds(eager.recovery, "checkpoint_load") * 1e3, "ms");
    report.Add("recovery.wal.analysis_ms",
               SpanSeconds(ondemand.recovery, "analysis") * 1e3, "ms");
    report.Add("recovery.wal.replay_ms", SpanSeconds(eager.recovery, "replay") * 1e3, "ms");
    report.Add("recovery.wal.index_rebuild_ms",
               SpanSeconds(eager.recovery, "index_rebuild") * 1e3, "ms");

    report.Add("cluster.hop_us", hop_us, "us");
    report.Add("cluster.cross_p50_us", crossl.p50_us, "us");
    report.Add("cluster.cross_p99_us", crossl.p99_us, "us");
    report.Add("cluster.cross_minus_single_p99_us", crossl.p99_us - single.p99_us, "us");
    report.Note("cluster.in_doubt_end " + std::to_string(in_doubt));

    // Self time per span name over the generator's and the replay's spans.
    std::vector<Span> spans = std::move(served.spans);
    spans.insert(spans.end(), replay.tracer.spans().begin(), replay.tracer.spans().end());
    const auto self = SelfTimes(spans);
    for (const std::string name : {"gen.op", "net.rtt", "replay.op"}) {
      auto it = self.find(name);
      const double mean = it == self.end() || it->second.spans == 0
                              ? 0
                              : it->second.self_ns / static_cast<double>(it->second.spans);
      report.Add("self." + name + "_us", mean / 1e3, "us");
    }
    WriteSpans(args.work_dir + "/spans-" + w.name + ".jsonl", spans);
  }
  std::filesystem::remove_all(root);
  KillAllChildren();
  std::printf("%s\n", report.Json(attempted, failed).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  return perfbench::Run(args);
}
