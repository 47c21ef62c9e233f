#include "net/loadgen.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/macros.h"
#include "common/random.h"
#include "net/net_util.h"
#include "net/pipeline_client.h"
#include "net/wire.h"
#include "storage/types.h"
#include "workload/open_loop.h"
#include "workload/zipf.h"

namespace hyrise_nv::net {

namespace {

using Clock = std::chrono::steady_clock;

/// One response frame the generator is waiting for. A read op expects
/// one frame; a write op expects three (begin, insert, commit); `last`
/// marks the frame whose arrival completes the operation.
struct ExpectedFrame {
  uint64_t op_id = 0;
  uint8_t opcode = 0;
  bool last = false;
};

struct LoadConn {
  OwnedFd fd;
  std::vector<uint8_t> in;
  size_t in_pos = 0;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  std::deque<ExpectedFrame> expected;
  bool want_write = false;
  bool dead = false;
  /// Queued for the next FlushDirty pass (batched send coalescing).
  bool flush_pending = false;
  /// Aggregated outcome of the op currently completing (a write triple
  /// fails as one op even if only its begin frame failed). v1 only —
  /// a v2 op is a single frame, so its outcome needs no aggregation.
  bool op_failed = false;
  bool op_shed = false;
  /// Negotiated protocol version; v2 connections carry `slots`
  /// concurrently pipelined ops, matched to responses by tag.
  uint16_t version = 1;
  int slots = 1;
  uint32_t next_tag = 1;
  std::unordered_map<uint32_t, uint64_t> tag_to_op;
};

class OpenLoopDriver {
 public:
  explicit OpenLoopDriver(const LoadgenOptions& options)
      : options_(options),
        schedule_(options.rate_rps,
                  static_cast<uint64_t>(std::llround(
                      options.rate_rps *
                      (options.warmup_s + options.duration_s)))),
        zipf_(options.keys == 0 ? 1 : options.keys, options.zipf_theta,
              options.seed),
        rng_(options.seed ^ 0x9e3779b97f4a7c15ull),
        value_payload_(options.value_bytes, 'x') {}

  Result<LoadgenReport> Run() {
    HYRISE_NV_RETURN_NOT_OK(ConnectAll());
    const uint64_t warmup_ns =
        static_cast<uint64_t>(options_.warmup_s * 1e9);
    const uint64_t measure_end_ns = static_cast<uint64_t>(
        (options_.warmup_s + options_.duration_s) * 1e9);
    if (options_.timeline) {
      timeline_.resize(static_cast<size_t>(options_.duration_s) + 2);
    }

    start_ = Clock::now();
    const uint64_t schedule_end_ns = measure_end_ns;
    const uint64_t hard_end_ns =
        schedule_end_ns +
        static_cast<uint64_t>(options_.drain_timeout_s * 1e9);
    uint64_t issued = 0;

    while (true) {
      const uint64_t now_ns = NowNs();
      // Issue every operation whose intended time has arrived — late or
      // not. Ops that find no free connection queue in the backlog with
      // their intended time unchanged; that wait is measured latency.
      const uint64_t due = schedule_.DueCount(now_ns);
      while (issued < due) {
        const uint64_t op_id = issued++;
        LoadConn* conn = TakeIdleSlot();
        if (conn != nullptr) {
          SendOp(conn, op_id);
        } else {
          backlog_.push_back(op_id);
          if (backlog_.size() > report_.backlog_peak) {
            report_.backlog_peak = backlog_.size();
          }
        }
      }
      FlushDirty();

      const bool schedule_done = issued >= schedule_.total_ops();
      if (schedule_done && InFlight() == 0 && backlog_.empty()) break;
      if (schedule_done && now_ns >= hard_end_ns) {
        report_.abandoned = InFlight() + backlog_.size();
        break;
      }
      if (alive_ == 0) {
        return Status::IOError("load generator: every connection died");
      }

      PollOnce(now_ns, issued);
    }

    FinishReport(warmup_ns, measure_end_ns);
    return report_;
  }

 private:
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  uint64_t InFlight() const { return in_flight_; }

  /// Pops the next usable send slot. idle_ holds one token per free
  /// pipeline slot; a dead connection's tokens are skipped lazily here
  /// instead of being hunted down at kill time.
  LoadConn* TakeIdleSlot() {
    while (!idle_.empty()) {
      LoadConn* conn = idle_.back();
      idle_.pop_back();
      if (!conn->dead) return conn;
    }
    return nullptr;
  }

  Status ConnectAll() {
    epoll_fd_ = OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid()) {
      return Status::IOError("epoll_create1: " +
                             std::string(std::strerror(errno)));
    }
    // Handshake shared by every connection.
    const int depth = std::max(1, options_.pipeline_depth);
    Hello hello;
    hello.max_version = std::max(
        kProtocolVersionMin,
        std::min(options_.protocol_max, kProtocolVersionMax));
    // Ask for headroom beyond the depth so the server never sheds the
    // generator's own window (2x, capped by the protocol maximum).
    hello.window = std::min<uint32_t>(2u * static_cast<uint32_t>(depth),
                                      kMaxPipelineWindow);

    conns_.reserve(static_cast<size_t>(options_.connections));
    for (int i = 0; i < options_.connections; ++i) {
      auto fd_result = ConnectTcp(options_.host, options_.port,
                                  options_.connect_timeout_ms);
      if (!fd_result.ok()) {
        return Status::IOError(
            "connect " + std::to_string(i + 1) + " of " +
            std::to_string(options_.connections) + " failed: " +
            std::string(fd_result.status().message()));
      }
      auto conn = std::make_unique<LoadConn>();
      conn->fd = std::move(fd_result).ValueUnsafe();
      // Blocking handshake: at thousands of connections this is still
      // fast (sub-millisecond each) and keeps the state machine simple.
      auto reply = ExchangeHello(conn->fd.get(), hello,
                                 options_.connect_timeout_ms);
      if (!reply.ok()) return reply.status();
      conn->version = reply->version;
      conn->slots =
          conn->version >= 2
              ? static_cast<int>(std::min<uint32_t>(
                    static_cast<uint32_t>(depth), reply->window))
              : 1;
      HYRISE_NV_RETURN_NOT_OK(SetNonBlocking(conn->fd.get()));
      HYRISE_NV_RETURN_NOT_OK(SetNoDelay(conn->fd.get()));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) !=
          0) {
        return Status::IOError("epoll_ctl: " +
                               std::string(std::strerror(errno)));
      }
      for (int slot = 0; slot < conn->slots; ++slot) {
        idle_.push_back(conn.get());
      }
      conns_.push_back(std::move(conn));
    }
    alive_ = options_.connections;
    return Status::OK();
  }

  /// Builds and queues the frames of operation `op_id` on `conn`.
  void SendOp(LoadConn* conn, uint64_t op_id) {
    const bool is_read = rng_.NextDouble() < options_.read_pct;
    const int64_t key = static_cast<int64_t>(zipf_.Next());
    if (conn->version >= 2) {
      // v2: every op is ONE tagged frame. Reads keep ScanEqual; the
      // write triple collapses into a one-op kDmlBatch (the server runs
      // begin+insert+commit in a single transaction-stage pass).
      const std::vector<uint8_t> payload =
          is_read ? MakeScanEqualPayload(options_.table, 0,
                                         storage::Value(key),
                                         options_.scan_limit)
                  : MakeInsertBatchPayload(
                        options_.table, {storage::Value(key),
                                         storage::Value(value_payload_)});
      const uint32_t tag = conn->next_tag++;
      if (conn->next_tag == 0) conn->next_tag = 1;
      AppendFrame(conn, payload, tag);
      conn->tag_to_op.emplace(tag, op_id);
      ++in_flight_;
      MarkDirty(conn);
      return;
    }
    conn->op_failed = false;
    conn->op_shed = false;
    if (is_read) {
      AppendFrame(conn, MakeScanEqualPayload(options_.table, 0,
                                             storage::Value(key),
                                             options_.scan_limit));
      conn->expected.push_back(
          {op_id, static_cast<uint8_t>(Opcode::kScanEqual), true});
    } else {
      AppendFrame(conn, {static_cast<uint8_t>(Opcode::kBegin)});
      conn->expected.push_back(
          {op_id, static_cast<uint8_t>(Opcode::kBegin), false});

      std::vector<uint8_t> payload;
      WireWriter writer(&payload);
      writer.U8(static_cast<uint8_t>(Opcode::kInsert));
      writer.U64(0);  // session transaction
      writer.DmlBody(DmlOp::kInsert, options_.table, {},
                     {storage::Value(key), storage::Value(value_payload_)});
      AppendFrame(conn, payload);
      conn->expected.push_back(
          {op_id, static_cast<uint8_t>(Opcode::kInsert), false});

      payload.clear();
      writer.U8(static_cast<uint8_t>(Opcode::kCommit));
      writer.U64(0);
      AppendFrame(conn, payload);
      conn->expected.push_back(
          {op_id, static_cast<uint8_t>(Opcode::kCommit), true});
    }
    ++in_flight_;
    MarkDirty(conn);
  }

  /// SendOp only queues bytes; the actual ::send happens once per
  /// event-loop round via FlushDirty. Without this, every completion
  /// refills its slot with its own small send, each send wakes the
  /// server for one frame, and the per-wake overhead never amortises —
  /// measured, that caps one pipelined connection at the same
  /// throughput as depth 1. Coalescing the refills into one send per
  /// parsed batch is what makes the window actually pipeline.
  void MarkDirty(LoadConn* conn) {
    if (conn->flush_pending || conn->dead) return;
    conn->flush_pending = true;
    dirty_.push_back(conn);
  }

  void FlushDirty() {
    for (LoadConn* conn : dirty_) {
      conn->flush_pending = false;
      if (!conn->dead) FlushConn(conn);
    }
    dirty_.clear();
  }

  static void AppendFrame(LoadConn* conn, const std::vector<uint8_t>& payload,
                          uint32_t tag = 0) {
    const std::vector<uint8_t> frame =
        EncodeFrame(conn->version, tag, payload);
    conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  }

  void FlushConn(LoadConn* conn) {
    while (conn->out_pos < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd.get(), conn->out.data() + conn->out_pos,
                 conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        KillConn(conn);
        return;
      }
      conn->out_pos += static_cast<size_t>(n);
    }
    if (conn->out_pos == conn->out.size()) {
      conn->out.clear();
      conn->out_pos = 0;
    }
    SetWantWrite(conn, !conn->out.empty());
  }

  void SetWantWrite(LoadConn* conn, bool want) {
    if (conn->dead || want == conn->want_write) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.ptr = conn;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
    conn->want_write = want;
  }

  /// A connection hard-failed: every operation still expected on it is
  /// an error, and the socket leaves the loop.
  void KillConn(LoadConn* conn) {
    if (conn->dead) return;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
    uint64_t ops_lost = conn->tag_to_op.size();
    conn->tag_to_op.clear();
    uint64_t last_op = UINT64_MAX;
    for (const ExpectedFrame& exp : conn->expected) {
      if (exp.op_id != last_op) {
        ++ops_lost;
        last_op = exp.op_id;
      }
    }
    report_.errors += ops_lost;
    in_flight_ -= ops_lost;
    conn->expected.clear();
    conn->dead = true;
    conn->fd.Reset();
    --alive_;
  }

  void PollOnce(uint64_t now_ns, uint64_t issued) {
    // Sleep until the next intended send (or 50ms when the schedule is
    // done and the loop is just draining responses).
    int timeout_ms = 50;
    if (issued < schedule_.total_ops()) {
      const uint64_t next_ns = schedule_.IntendedNs(issued);
      timeout_ms =
          next_ns > now_ns
              ? static_cast<int>((next_ns - now_ns) / 1'000'000)
              : 0;
      if (timeout_ms > 50) timeout_ms = 50;
    }
    epoll_event events[256];
    const int n =
        ::epoll_wait(epoll_fd_.get(), events, 256, timeout_ms);
    for (int i = 0; i < n; ++i) {
      auto* conn = static_cast<LoadConn*>(events[i].data.ptr);
      if (conn->dead) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        KillConn(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) FlushConn(conn);
      if (conn->dead) continue;
      if (events[i].events & EPOLLIN) OnReadable(conn);
    }
  }

  void OnReadable(LoadConn* conn) {
    uint8_t buf[16384];
    while (true) {
      const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.insert(conn->in.end(), buf, buf + n);
        continue;
      }
      if (n == 0) {
        KillConn(conn);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      KillConn(conn);
      return;
    }
    ParseResponses(conn);
    // Flush the refill ops queued by the completions just parsed as ONE
    // send — see MarkDirty for why per-op sends defeat pipelining.
    FlushDirty();
    if (conn->dead) return;
    if (conn->in_pos > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<std::ptrdiff_t>(conn->in_pos));
      conn->in_pos = 0;
    }
  }

  void ParseResponses(LoadConn* conn) {
    while (!conn->dead) {
      FrameView frame;
      if (!NextFrame(conn->version, conn->in.data() + conn->in_pos,
                     conn->in.size() - conn->in_pos, &frame)
               .ok()) {
        ++report_.protocol_errors;
        KillConn(conn);
        return;
      }
      if (frame.consumed == 0) return;
      conn->in_pos += frame.consumed;
      if (conn->version >= 2) {
        OnTaggedResponseFrame(conn, frame.tag, frame.payload, frame.len);
      } else {
        OnResponseFrame(conn, frame.payload, frame.len);
      }
    }
  }

  /// v2 completion: one frame = one op, matched by tag (responses may
  /// arrive out of submission order).
  void OnTaggedResponseFrame(LoadConn* conn, uint32_t tag,
                             const uint8_t* payload, uint32_t len) {
    const auto it = conn->tag_to_op.find(tag);
    if (it == conn->tag_to_op.end() || len < 2) {
      ++report_.protocol_errors;
      KillConn(conn);
      return;
    }
    const uint64_t op_id = it->second;
    conn->tag_to_op.erase(it);
    const WireCode code = static_cast<WireCode>(payload[1]);
    const bool ok = code == WireCode::kOk;
    CompleteOp(conn, op_id, !ok && !IsRetryableWireCode(code),
               !ok && IsRetryableWireCode(code));
  }

  void OnResponseFrame(LoadConn* conn, const uint8_t* payload,
                       uint32_t len) {
    if (conn->expected.empty() || len < 2) {
      ++report_.protocol_errors;
      KillConn(conn);
      return;
    }
    const ExpectedFrame exp = conn->expected.front();
    conn->expected.pop_front();
    if (payload[0] != exp.opcode) {
      ++report_.protocol_errors;
      KillConn(conn);
      return;
    }
    const WireCode code = static_cast<WireCode>(payload[1]);
    if (code != WireCode::kOk) {
      if (IsRetryableWireCode(code)) {
        conn->op_shed = true;
      } else {
        conn->op_failed = true;
      }
    }
    if (!exp.last) return;
    CompleteOp(conn, exp.op_id, conn->op_failed, conn->op_shed);
  }

  /// Operation complete: attribute the outcome and the open-loop
  /// latency, then put the freed pipeline slot back to work.
  void CompleteOp(LoadConn* conn, uint64_t op_id, bool failed, bool shed) {
    --in_flight_;
    const uint64_t now_ns = NowNs();
    const uint64_t intended_ns = schedule_.IntendedNs(op_id);
    const uint64_t warmup_ns =
        static_cast<uint64_t>(options_.warmup_s * 1e9);
    const bool in_measure = intended_ns >= warmup_ns;
    if (failed) {
      if (in_measure) ++report_.errors;
    } else if (shed) {
      if (in_measure) ++report_.shed;
    } else {
      ++report_.completed_total;
    }
    if (!failed && !shed && in_measure) {
      ++report_.ops_completed;
      const uint64_t latency_ns =
          workload::OpenLoopSchedule::LatencyNs(intended_ns, now_ns);
      latency_hist_.Record(latency_ns);
      if (!timeline_.empty() && now_ns >= warmup_ns) {
        const size_t bucket = static_cast<size_t>(
            (now_ns - warmup_ns) / 1'000'000'000ull);
        if (bucket < timeline_.size()) {
          auto& slot = timeline_[bucket];
          ++slot.completed;
          const double us = static_cast<double>(latency_ns) / 1e3;
          slot.sum_us += us;
          if (us > slot.max_us) slot.max_us = us;
        }
      }
    }
    if (!backlog_.empty()) {
      const uint64_t next_op = backlog_.front();
      backlog_.pop_front();
      SendOp(conn, next_op);
    } else {
      idle_.push_back(conn);
    }
  }

  void FinishReport(uint64_t warmup_ns, uint64_t measure_end_ns) {
    (void)warmup_ns;
    (void)measure_end_ns;
    report_.ops_offered = schedule_.total_ops();
    report_.measure_s = options_.duration_s;
    report_.tput_rps =
        static_cast<double>(report_.ops_completed) / options_.duration_s;
    report_.elapsed_s = static_cast<double>(NowNs()) / 1e9;
    report_.capacity_rps =
        report_.elapsed_s > 0
            ? static_cast<double>(report_.completed_total) /
                  report_.elapsed_s
            : 0;
    report_.latency = latency_hist_.Snapshot();
    const obs::HistogramData& lat = report_.latency;
    report_.p50_us = lat.Percentile(50) / 1e3;
    report_.p99_us = lat.Percentile(99) / 1e3;
    report_.p999_us = lat.Percentile(99.9) / 1e3;
    report_.max_us = static_cast<double>(lat.count ? lat.max : 0) / 1e3;
    report_.mean_us = lat.Mean() / 1e3;
    report_.timeline = std::move(timeline_);
  }

  const LoadgenOptions options_;
  const workload::OpenLoopSchedule schedule_;
  workload::ZipfGenerator zipf_;
  Rng rng_;
  const std::string value_payload_;

  OwnedFd epoll_fd_;
  std::vector<std::unique_ptr<LoadConn>> conns_;
  std::vector<LoadConn*> idle_;
  std::deque<uint64_t> backlog_;
  /// Connections with queued-but-unsent frames, flushed once per
  /// event-loop round (send coalescing).
  std::vector<LoadConn*> dirty_;
  Clock::time_point start_;
  int alive_ = 0;
  uint64_t in_flight_ = 0;

  obs::Histogram latency_hist_;
  std::vector<LoadgenTimelineBucket> timeline_;
  LoadgenReport report_;
};

}  // namespace

Result<LoadgenReport> RunOpenLoopLoad(const LoadgenOptions& options) {
  if (options.connections <= 0) {
    return Status::InvalidArgument("loadgen needs at least one connection");
  }
  if (options.rate_rps <= 0 || options.duration_s <= 0) {
    return Status::InvalidArgument("loadgen needs a positive rate/duration");
  }
  if (options.pipeline_depth < 1) {
    return Status::InvalidArgument("pipeline depth must be >= 1");
  }
  if (options.pipeline_depth > 1 && options.protocol_max < 2) {
    return Status::InvalidArgument(
        "pipeline depth > 1 needs protocol v2 (tagged frames)");
  }
  OpenLoopDriver driver(options);
  return driver.Run();
}

}  // namespace hyrise_nv::net
