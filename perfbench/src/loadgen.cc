#include "loadgen.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>

#include "net/net_util.h"
#include "net/pipeline_client.h"
#include "net/wire.h"
#include "workload/open_loop.h"

namespace perfbench {

using hyrise_nv::Result;
using hyrise_nv::Status;
using hyrise_nv::net::Opcode;
using hyrise_nv::net::WireCode;
using hyrise_nv::net::WireReader;
using hyrise_nv::net::WireWriter;
using hyrise_nv::storage::RowLocation;
using hyrise_nv::storage::Value;

const char* ClassName(int cls) {
  switch (cls) {
    case kClassRead:
      return "read";
    case kClassWrite:
      return "write";
    default:
      return "cross";
  }
}

uint64_t LoadReport::Attempted() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.attempted;
  return n;
}

uint64_t LoadReport::Failed() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.errors + c.shed + c.abandoned + c.wrong;
  return n;
}

namespace {

using Clock = std::chrono::steady_clock;

struct Conn {
  hyrise_nv::net::OwnedFd fd;
  std::vector<uint8_t> in;
  size_t in_pos = 0;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  bool want_write = false;
  bool dead = false;
  bool dirty = false;
  uint32_t next_tag = 1;
  std::unordered_map<uint32_t, uint64_t> tag_to_op;
};

struct OpState {
  Op op;
  uint64_t intended_ns = 0;
  bool measured = false;
  Conn* conn = nullptr;
  int frames_left = 0;
  int step = 0;
  bool failed = false;
  bool shed = false;
  bool wrong = false;
  bool empty = false;
  /// Send and completion time of each step (one per round trip).
  std::vector<std::pair<uint64_t, uint64_t>> steps;
};

/// Parses a ScanEqual response body. `match` is set when some row's value
/// column starts with `prefix`; `first` receives the first row's location.
/// Returns false for a malformed body.
bool ParseScan(const uint8_t* body, size_t len, const std::string& prefix,
               RowLocation* first, bool* any_row, bool* match) {
  WireReader reader(body, len);
  reader.U8();  // truncated flag
  const uint32_t n = reader.U32();
  *match = false;
  *any_row = false;
  for (uint32_t i = 0; i < n && reader.ok(); ++i) {
    const RowLocation loc = reader.Loc();
    const std::vector<Value> row = reader.Row();
    if (!reader.ok()) break;
    if (!*any_row) {
      *first = loc;
      *any_row = true;
    }
    if (row.size() > 1 && std::holds_alternative<std::string>(row[1]) &&
        std::get<std::string>(row[1]).rfind(prefix, 0) == 0) {
      *match = true;
    }
  }
  return reader.ok();
}

/// The prefix the rows a read returns must carry.
std::string PrefixFor(const Op& op) {
  if (op.kind == OpKind::kRmw) return "v" + std::to_string(op.key) + ":";
  return op.expect_prefix;
}

class OpenLoop {
 public:
  OpenLoop(const LoadOptions& options, const OpSource& source,
         const AckSink& on_ack)
      : options_(options),
        source_(source),
        on_ack_(on_ack),
        schedule_(options.rate,
                  static_cast<uint64_t>(std::llround(
                      options.rate * (options.warmup_s + options.duration_s)))),
        warmup_ns_(static_cast<uint64_t>(options.warmup_s * 1e9)) {}

  Result<LoadReport> Run() {
    // Sleep until each send time with microsecond precision, not the
    // default 50 us timer slack.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    HYRISE_NV_RETURN_NOT_OK(ConnectAll());
    start_ = Clock::now();
    const uint64_t schedule_end_ns = static_cast<uint64_t>(
        (options_.warmup_s + options_.duration_s) * 1e9);
    const uint64_t hard_end_ns =
        schedule_end_ns + static_cast<uint64_t>(options_.drain_timeout_s * 1e9);
    uint64_t issued = 0;
    bool schedule_end_seen = false;
    while (true) {
      const uint64_t now_ns = NowNs();
      const uint64_t due = schedule_.DueCount(now_ns);
      while (issued < due) Issue(issued++, now_ns);
      FlushDirty();
      const bool schedule_done = issued >= schedule_.total_ops();
      if (schedule_done && !schedule_end_seen) {
        schedule_end_seen = true;
        report_.backlog_end = backlog_.size();
      }
      if (alive_ == 0) {
        if (!options_.tolerate_disconnect) {
          return Status::IOError("load generator: every connection died");
        }
        break;
      }
      if (schedule_done && ops_.empty()) break;
      if (schedule_done && now_ns >= hard_end_ns) break;
      PollOnce(now_ns, issued);
    }
    // Whatever is left never completed: queued, parked or in flight.
    for (const auto& [id, state] : ops_) {
      if (state.measured) ++report_.cls[state.op.cls].abandoned;
    }
    return std::move(report_);
  }

 private:
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  Status ConnectAll() {
    epoll_fd_ = hyrise_nv::net::OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid()) return Status::IOError("epoll_create1 failed");
    std::vector<uint8_t> hello;
    WireWriter writer(&hello);
    writer.U8(static_cast<uint8_t>(Opcode::kHello));
    writer.U32(hyrise_nv::net::kHelloMagic);
    writer.U16(2);
    writer.U16(2);
    writer.U32(static_cast<uint32_t>(2 * options_.depth));
    for (int i = 0; i < options_.connections; ++i) {
      auto fd_result =
          hyrise_nv::net::ConnectTcp("127.0.0.1", options_.port, 5000);
      if (!fd_result.ok()) return fd_result.status();
      auto conn = std::make_unique<Conn>();
      conn->fd = std::move(fd_result).ValueUnsafe();
      HYRISE_NV_RETURN_NOT_OK(hyrise_nv::net::WriteFrame(conn->fd.get(), hello));
      auto response = hyrise_nv::net::ReadFrame(conn->fd.get(), 5000);
      if (!response.ok()) return response.status();
      WireReader reader(response->data(), response->size());
      reader.U8();
      const auto code = static_cast<WireCode>(reader.U8());
      const uint16_t version = reader.U16();
      reader.U8();
      reader.U64();
      const uint32_t window = reader.U32();
      if (!reader.ok() || code != WireCode::kOk || version < 2 ||
          window < static_cast<uint32_t>(options_.depth)) {
        return Status::IOError("wire v2 handshake refused");
      }
      HYRISE_NV_RETURN_NOT_OK(hyrise_nv::net::SetNonBlocking(conn->fd.get()));
      HYRISE_NV_RETURN_NOT_OK(hyrise_nv::net::SetNoDelay(conn->fd.get()));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) != 0) {
        return Status::IOError("epoll_ctl failed");
      }
      for (int slot = 0; slot < options_.depth; ++slot) idle_.push_back(conn.get());
      conns_.push_back(std::move(conn));
    }
    alive_ = options_.connections;
    return Status::OK();
  }

  Conn* TakeIdleSlot() {
    while (!idle_.empty()) {
      Conn* conn = idle_.back();
      idle_.pop_back();
      if (!conn->dead) return conn;
    }
    return nullptr;
  }

  void Issue(uint64_t op_id, uint64_t now_ns) {
    OpState& state = ops_[op_id];
    state.op = source_(op_id);
    state.intended_ns = schedule_.IntendedNs(op_id);
    state.measured = state.intended_ns >= warmup_ns_;
    if (state.measured) ++report_.cls[state.op.cls].attempted;
    if (state.op.kind == OpKind::kRmw) {
      // Read-modify-writes of one key run one at a time, as a client
      // holding a per-key lock would: two concurrent updates of the same
      // version would otherwise conflict by construction.
      auto [it, fresh] = rmw_waiters_.try_emplace(state.op.key);
      if (!fresh) {
        it->second.push_back(op_id);
        return;
      }
    }
    Conn* conn = TakeIdleSlot();
    if (conn == nullptr) {
      backlog_.push_back(op_id);
      report_.backlog_peak = std::max<uint64_t>(report_.backlog_peak, backlog_.size());
      return;
    }
    if (state.measured) {
      report_.late_ns.push_back(static_cast<double>(now_ns - std::min(now_ns, state.intended_ns)));
    }
    Start(conn, op_id);
  }

  void Start(Conn* conn, uint64_t op_id) {
    OpState& state = ops_.at(op_id);
    state.conn = conn;
    const Op& op = state.op;
    std::vector<std::vector<uint8_t>> frames;
    switch (op.kind) {
      case OpKind::kRead:
      case OpKind::kRmw:
        frames.push_back(hyrise_nv::net::MakeScanEqualPayload(
            options_.table, 0, Value(op.key), /*limit=*/4));
        break;
      case OpKind::kInsert:
        frames.push_back(hyrise_nv::net::MakeInsertBatchPayload(
            options_.table, {Value(op.key), Value(op.value)}));
        break;
      case OpKind::kTxn: {
        std::vector<uint8_t> payload;
        WireWriter begin(&payload);
        begin.U8(static_cast<uint8_t>(Opcode::kBegin));
        frames.push_back(std::move(payload));
        for (int i = 0; i < 2; ++i) {
          std::vector<uint8_t> insert;
          WireWriter writer(&insert);
          writer.U8(static_cast<uint8_t>(Opcode::kInsert));
          writer.U64(0);
          writer.Str(options_.table);
          writer.Row(i == 0 ? std::vector<Value>{Value(op.key), Value(op.value)}
                            : std::vector<Value>{Value(op.key2), Value(op.value2)});
          frames.push_back(std::move(insert));
        }
        std::vector<uint8_t> commit;
        WireWriter commit_writer(&commit);
        commit_writer.U8(static_cast<uint8_t>(Opcode::kCommit));
        commit_writer.U64(0);
        frames.push_back(std::move(commit));
        break;
      }
    }
    Send(conn, op_id, state, frames);
  }

  void Send(Conn* conn, uint64_t op_id, OpState& state,
            const std::vector<std::vector<uint8_t>>& frames) {
    state.steps.push_back({NowNs(), 0});
    state.frames_left = static_cast<int>(frames.size());
    for (const auto& payload : frames) {
      const uint32_t tag = conn->next_tag++;
      if (conn->next_tag == 0) conn->next_tag = 1;
      const std::vector<uint8_t> frame =
          hyrise_nv::net::EncodeTaggedFrame(tag, payload);
      conn->out.insert(conn->out.end(), frame.begin(), frame.end());
      conn->tag_to_op.emplace(tag, op_id);
    }
    if (!conn->dirty) {
      conn->dirty = true;
      dirty_.push_back(conn);
    }
  }

  void FlushDirty() {
    for (Conn* conn : dirty_) {
      conn->dirty = false;
      if (!conn->dead) Flush(conn);
    }
    dirty_.clear();
  }

  void Flush(Conn* conn) {
    while (conn->out_pos < conn->out.size()) {
      const ssize_t n = ::send(conn->fd.get(), conn->out.data() + conn->out_pos,
                               conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Kill(conn);
        return;
      }
      conn->out_pos += static_cast<size_t>(n);
    }
    if (conn->out_pos == conn->out.size()) {
      conn->out.clear();
      conn->out_pos = 0;
    }
    const bool want = !conn->out.empty();
    if (want != conn->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.ptr = conn;
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
      conn->want_write = want;
    }
  }

  /// A dead connection fails every operation it carried.
  void Kill(Conn* conn) {
    if (conn->dead) return;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
    conn->dead = true;
    conn->fd.Reset();
    --alive_;
    std::vector<uint64_t> lost;
    for (const auto& [tag, op_id] : conn->tag_to_op) lost.push_back(op_id);
    conn->tag_to_op.clear();
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
    for (uint64_t op_id : lost) {
      auto it = ops_.find(op_id);
      if (it == ops_.end()) continue;
      if (options_.tolerate_disconnect) continue;  // counted as abandoned
      it->second.failed = true;
      Finish(op_id, /*release_slot=*/false);
    }
  }

  /// Waits for responses until the next operation is due (at most 20 ms),
  /// with a nanosecond timeout so the loop sleeps instead of spinning.
  void PollOnce(uint64_t now_ns, uint64_t issued) {
    uint64_t wait_ns = 20'000'000;
    if (issued < schedule_.total_ops()) {
      const uint64_t next_ns = schedule_.IntendedNs(issued);
      wait_ns = std::min(wait_ns, next_ns > now_ns ? next_ns - now_ns : 0);
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    epoll_event events[64];
    const int n = ::epoll_pwait2(epoll_fd_.get(), events, 64, &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      auto* conn = static_cast<Conn*>(events[i].data.ptr);
      if (conn->dead) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        Kill(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) Flush(conn);
      if (!conn->dead && (events[i].events & EPOLLIN)) OnReadable(conn);
    }
  }

  void OnReadable(Conn* conn) {
    uint8_t buf[16384];
    while (true) {
      const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.insert(conn->in.end(), buf, buf + n);
        continue;
      }
      if (n == 0 || (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)) {
        Kill(conn);
        return;
      }
      if (errno == EINTR) continue;
      break;
    }
    const size_t header = hyrise_nv::net::kFrameHeaderBytesV2;
    while (!conn->dead && conn->in.size() - conn->in_pos >= header) {
      const uint8_t* head = conn->in.data() + conn->in_pos;
      auto len = hyrise_nv::net::DecodeFrameHeader(head);
      if (!len.ok()) {
        Kill(conn);
        return;
      }
      if (conn->in.size() - conn->in_pos < header + *len) break;
      const uint8_t* payload = head + header;
      if (!hyrise_nv::net::CheckTaggedFrameCrc(head, payload, *len).ok() ||
          *len < 2) {
        Kill(conn);
        return;
      }
      conn->in_pos += header + *len;
      OnResponse(conn, hyrise_nv::net::TaggedFrameTag(head), payload, *len);
    }
    FlushDirty();
    if (conn->dead) return;
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<std::ptrdiff_t>(conn->in_pos));
    conn->in_pos = 0;
  }

  void OnResponse(Conn* conn, uint32_t tag, const uint8_t* payload,
                  uint32_t len) {
    auto tag_it = conn->tag_to_op.find(tag);
    if (tag_it == conn->tag_to_op.end()) {
      Kill(conn);
      return;
    }
    const uint64_t op_id = tag_it->second;
    conn->tag_to_op.erase(tag_it);
    OpState& state = ops_.at(op_id);
    const auto code = static_cast<WireCode>(payload[1]);
    if (code != WireCode::kOk) {
      if (hyrise_nv::net::IsRetryableWireCode(code)) {
        state.shed = true;
      } else {
        state.failed = true;
      }
    }
    if (--state.frames_left > 0) return;
    state.steps.back().second = NowNs();
    const bool ok = !state.failed && !state.shed;
    if (ok && (state.op.kind == OpKind::kRead || state.op.kind == OpKind::kRmw) &&
        state.step == 0) {
      RowLocation first;
      bool any_row = false;
      bool match = false;
      const bool expected = state.op.kind == OpKind::kRmw || !state.op.expect_prefix.empty();
      if (!ParseScan(payload + 2, len - 2, PrefixFor(state.op), &first, &any_row, &match)) {
        state.wrong = true;
      } else if (expected && !any_row) {
        state.empty = true;  // answered, but no visible version
      } else if (expected && !match) {
        state.wrong = true;  // rows of another key or a foreign value
      } else if (state.op.kind == OpKind::kRmw) {
        state.step = 1;
        std::vector<uint8_t> update;
        WireWriter writer(&update);
        writer.U8(static_cast<uint8_t>(Opcode::kDmlBatch));
        writer.U32(1);
        writer.U8(2);  // update
        writer.Str(options_.table);
        writer.Loc(first);
        writer.Row({Value(state.op.key), Value(state.op.value)});
        Send(conn, op_id, state, {update});
        return;
      }
    }
    Finish(op_id, /*release_slot=*/true);
  }

  void Finish(uint64_t op_id, bool release_slot) {
    auto node = ops_.extract(op_id);
    OpState& state = node.mapped();
    const uint64_t now_ns = NowNs();
    // An empty read-modify-write never sent its update: nothing to ack.
    const bool ok = !state.failed && !state.shed && !state.wrong && !state.empty;
    if (state.measured) {
      ClassStats& cls = report_.cls[state.op.cls];
      if (state.failed) {
        ++cls.errors;
      } else if (state.shed) {
        ++cls.shed;
      } else if (state.wrong) {
        ++cls.wrong;
      } else {
        ++cls.ok;
        if (state.empty) ++cls.empty;
        cls.latency_ns.push_back(static_cast<double>(
            hyrise_nv::workload::OpenLoopSchedule::LatencyNs(state.intended_ns,
                                                             now_ns)));
        if (state.steps.size() == 1 && state.op.kind != OpKind::kTxn) {
          cls.rtt_ns.push_back(static_cast<double>(now_ns - state.steps[0].first));
        }
      }
      if (options_.trace) RecordSpans(state, now_ns);
    }
    if (ok && on_ack_) {
      if (state.op.kind == OpKind::kInsert || state.op.kind == OpKind::kRmw) {
        on_ack_(state.op.key, state.op.value);
      } else if (state.op.kind == OpKind::kTxn) {
        on_ack_(state.op.key, state.op.value);
        on_ack_(state.op.key2, state.op.value2);
      }
    }
    if (state.op.kind == OpKind::kRmw) {
      auto it = rmw_waiters_.find(state.op.key);
      if (it != rmw_waiters_.end()) {
        if (it->second.empty()) {
          rmw_waiters_.erase(it);
        } else {
          backlog_.push_front(it->second.front());
          it->second.pop_front();
        }
      }
    }
    if (!release_slot) return;
    Conn* conn = state.conn;
    if (conn->dead) return;
    if (!backlog_.empty()) {
      const uint64_t next = backlog_.front();
      backlog_.pop_front();
      Start(conn, next);
    } else {
      idle_.push_back(conn);
    }
  }

  void RecordSpans(const OpState& state, uint64_t now_ns) {
    const uint64_t base = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start_.time_since_epoch())
            .count());
    const uint64_t root = ++next_span_;
    report_.spans.push_back(
        {root, 0, "gen.op", base + state.intended_ns, base + now_ns});
    for (const auto& [sent, done] : state.steps) {
      report_.spans.push_back(
          {++next_span_, root, "net.rtt", base + sent, base + (done ? done : now_ns)});
    }
  }

  const LoadOptions options_;
  const OpSource& source_;
  const AckSink& on_ack_;
  const hyrise_nv::workload::OpenLoopSchedule schedule_;
  const uint64_t warmup_ns_;

  hyrise_nv::net::OwnedFd epoll_fd_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Conn*> idle_;
  std::vector<Conn*> dirty_;
  std::deque<uint64_t> backlog_;
  std::unordered_map<uint64_t, OpState> ops_;
  std::unordered_map<int64_t, std::deque<uint64_t>> rmw_waiters_;
  Clock::time_point start_;
  int alive_ = 0;
  uint64_t next_span_ = 0;
  LoadReport report_;
};

}  // namespace

Result<LoadReport> RunLoad(const LoadOptions& options, const OpSource& source,
                           const AckSink& on_ack) {
  if (options.connections < 1 || options.connections > 4 || options.depth < 1 ||
      options.rate <= 0 || options.duration_s <= 0) {
    return Status::InvalidArgument("load generator: bad options");
  }
  OpenLoop loop(options, source, on_ack);
  return loop.Run();
}

}  // namespace perfbench
