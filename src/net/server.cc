#include "net/server.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "core/query.h"
#include "net/net_util.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"
#include "obs/request_stats.h"
#include "obs/trace.h"

namespace hyrise_nv::net {

namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Pending responses larger than this stop further reads on the
/// connection (backpressure): level-triggered epoll re-delivers EPOLLIN
/// once the client has drained its side.
constexpr size_t kMaxOutBacklog = 4u << 20;
/// Responses stop appending rows past this payload size; the response
/// carries a `truncated` flag instead of overflowing the frame cap.
constexpr size_t kMaxResultPayload = 6u << 20;

}  // namespace

/// A request whose response sits in the out buffer waiting to reach the
/// socket. Latency attribution completes only once the last byte of the
/// response has been accepted by the kernel — `flush_end` marks that
/// point on the connection's monotonic byte counter (the out buffer
/// itself is compacted, so offsets into it are not stable).
struct PendingRequest {
  uint64_t flush_end = 0;     // conn->bytes_queued after this response
  uint64_t start_ticks = 0;   // frame-read-complete
  uint64_t queued_ticks = 0;  // response appended to the out buffer
  uint32_t tag = 0;           // v2 request tag (0 on v1 connections)
  uint8_t op = 0;
  obs::StageBreakdown stages;  // parse..commit_publish filled at execute
  bool sampled = false;        // carries an engine trace to graft
  obs::SpanNode engine_trace;  // sampled txn_commit subtree, if any
};

/// One encoded response waiting to reach the socket: the frame header
/// EncodeFrameHeader wrote plus the payload it frames. Responses are
/// flushed as an iovec chain via writev — the payload is never copied
/// into a contiguous out buffer.
struct OutBuf {
  uint8_t header[kFrameHeaderBytesV2];
  uint32_t header_len = 0;
  std::vector<uint8_t> payload;
  size_t size() const { return header_len + payload.size(); }
};

/// One connection = one session. Owned by exactly one worker thread; no
/// field needs locking.
struct Connection {
  OwnedFd fd;
  uint64_t id = 0;
  std::vector<uint8_t> in;
  size_t in_pos = 0;  // parse cursor into `in`
  /// Encoded responses awaiting the socket, oldest first; chain_pos is
  /// how many bytes of the front response have already been sent.
  std::deque<OutBuf> out_chain;
  size_t chain_pos = 0;
  bool handshaken = false;
  /// Negotiated protocol version; flips to 2 after a v2 hello response
  /// is queued (the hello exchange itself is always v1-framed).
  uint16_t version = 1;
  /// Granted pipeline window (v2): requests outstanding beyond this are
  /// shed with the retryable kOverloaded code.
  uint32_t window = kDefaultPipelineWindow;
  bool close_after_flush = false;
  bool wants_writable = false;
  txn::Transaction txn;
  bool txn_open = false;
  uint64_t last_active_ms = 0;
  /// Monotonic response-byte counters; bytes_flushed trails bytes_queued
  /// by exactly the unsent backlog.
  uint64_t bytes_queued = 0;
  uint64_t bytes_flushed = 0;
  std::deque<PendingRequest> pending_requests;
  /// Encode scratch: response-payload vectors recycled after their frame
  /// is flushed, so the hot path reuses capacity instead of reallocating
  /// per response.
  std::vector<std::vector<uint8_t>> buf_pool;
  /// Scratch filled by ExecCommit for the request currently executing so
  /// ExecuteFrame can attribute the engine's commit stages; reset before
  /// every Execute().
  uint64_t last_wal_sync_ns = 0;
  uint64_t last_commit_publish_ns = 0;
  bool last_commit_sampled = false;

  size_t out_backlog() const {
    return static_cast<size_t>(bytes_queued - bytes_flushed);
  }
};

namespace {

/// Encode-scratch pool bounds: enough buffers for a full pipeline
/// window's worth of small responses, without pinning scan-sized
/// allocations to an idle connection.
constexpr size_t kMaxPooledBufs = 8;
constexpr size_t kMaxPooledBufBytes = 64u << 10;

void RecycleBuf(Connection* conn, std::vector<uint8_t>&& buf) {
  if (conn->buf_pool.size() >= kMaxPooledBufs ||
      buf.capacity() > kMaxPooledBufBytes) {
    return;
  }
  buf.clear();
  conn->buf_pool.push_back(std::move(buf));
}

std::vector<uint8_t> TakeBuf(Connection* conn) {
  if (conn->buf_pool.empty()) return {};
  std::vector<uint8_t> buf = std::move(conn->buf_pool.back());
  conn->buf_pool.pop_back();
  return buf;
}

}  // namespace

class ServerImpl {
 public:
  ServerImpl(core::Database* db, const ServerOptions& options)
      : db_(db),
        options_(options),
        latency_hist_(obs::MetricsRegistry::Instance().GetHistogram(
            "net.request.latency_ns")),
        requests_counter_(obs::MetricsRegistry::Instance().GetCounter(
            "net.requests.count")),
        overload_counter_(obs::MetricsRegistry::Instance().GetCounter(
            "net.overload.rejections")),
        warming_counter_(obs::MetricsRegistry::Instance().GetCounter(
            "net.warming.rejections")),
        protocol_error_counter_(obs::MetricsRegistry::Instance().GetCounter(
            "net.protocol.errors")),
        accepted_counter_(obs::MetricsRegistry::Instance().GetCounter(
            "net.connections.accepted")),
        conns_gauge_(obs::MetricsRegistry::Instance().GetGauge(
            "net.connections.open")),
        inflight_gauge_(
            obs::MetricsRegistry::Instance().GetGauge("net.inflight")),
        queue_gauge_(
            obs::MetricsRegistry::Instance().GetGauge("net.queue.depth")),
        slow_request_counter_(obs::MetricsRegistry::Instance().GetCounter(
            "net.slow_requests.count")) {
    for (uint8_t op = static_cast<uint8_t>(Opcode::kHello);
         op <= static_cast<uint8_t>(kLastOpcode); ++op) {
      op_counters_[op] = &obs::MetricsRegistry::Instance().GetCounter(
          std::string("net.op.") +
          OpcodeName(static_cast<Opcode>(op)) + ".count");
      // Pre-register the full per-opcode per-stage matrix so the export
      // surface is name-stable from the first stats call (dashboards and
      // the CI smoke key on these names existing, not on traffic).
      for (size_t stage = 0; stage < obs::kNumRequestStages; ++stage) {
        stage_hists_[op][stage] =
            &obs::MetricsRegistry::Instance().GetHistogram(
                std::string("net.op.") + OpcodeName(static_cast<Opcode>(op)) +
                ".stage." + obs::RequestStageName(stage) + ".latency_ns");
      }
    }
  }

  ~ServerImpl() {
    Drain();
    Wait();
  }

  Status Start() {
    auto listener_result = CreateListener(options_.host, options_.port);
    if (!listener_result.ok()) return listener_result.status();
    listen_fd_ = std::move(listener_result).ValueUnsafe();
    auto port_result = LocalPort(listen_fd_.get());
    if (!port_result.ok()) return port_result.status();
    port_ = *port_result;

    const int worker_count = std::max(1, options_.num_workers);
    workers_.reserve(static_cast<size_t>(worker_count));
    for (int i = 0; i < worker_count; ++i) {
      auto worker = std::make_unique<Worker>();
      worker->epoll_fd = OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
      worker->wake_fd =
          OwnedFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
      if (!worker->epoll_fd.valid() || !worker->wake_fd.valid()) {
        return Status::IOError("epoll/eventfd: " +
                               std::string(std::strerror(errno)));
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = worker->wake_fd.get();
      if (::epoll_ctl(worker->epoll_fd.get(), EPOLL_CTL_ADD,
                      worker->wake_fd.get(), &ev) < 0) {
        return Status::IOError("epoll_ctl(wake): " +
                               std::string(std::strerror(errno)));
      }
      workers_.push_back(std::move(worker));
    }
    for (auto& worker : workers_) {
      worker->thread =
          std::thread([this, w = worker.get()] { WorkerLoop(w); });
    }
    acceptor_ = std::thread([this] { AcceptLoop(); });
    HYRISE_NV_LOG(kInfo) << "server listening on " << options_.host << ":"
                         << port_ << " with " << workers_.size()
                         << " workers";
    return Status::OK();
  }

  uint16_t port() const { return port_; }
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  void Drain() {
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      return;
    }
    if (obs::BlackboxWriter* bb = db_->heap().blackbox()) {
      bb->Record(obs::BlackboxEventType::kDrain,
                 static_cast<uint64_t>(
                     conns_gauge_.Value() < 0 ? 0 : conns_gauge_.Value()));
    }
    WakeAll();
  }

  void Wait() {
    std::lock_guard<std::mutex> guard(join_mutex_);
    if (acceptor_.joinable()) acceptor_.join();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }

  ServerCounters counters() const {
    ServerCounters c;
    c.accepted = accepted_.load(std::memory_order_relaxed);
    c.overload_rejected =
        overload_rejected_.load(std::memory_order_relaxed);
    c.warming_rejected =
        warming_rejected_.load(std::memory_order_relaxed);
    c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    c.requests = requests_.load(std::memory_order_relaxed);
    c.open_connections = open_conns_.load(std::memory_order_relaxed);
    c.open_transactions = open_txns_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  struct Worker {
    OwnedFd epoll_fd;
    OwnedFd wake_fd;
    std::thread thread;
    std::mutex pending_mutex;
    std::deque<std::unique_ptr<Connection>> pending;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
  };

  void WakeAll() {
    for (auto& worker : workers_) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(worker->wake_fd.get(), &one, sizeof(one));
    }
  }

  // --- Acceptor -----------------------------------------------------------

  void AcceptLoop() {
    size_t next_worker = 0;
    while (!draining()) {
      pollfd pfd{listen_fd_.get(), POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 200);
      if (rc <= 0) continue;
      while (true) {
        const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        OwnedFd conn_fd(fd);
        (void)ConfigureAcceptedSocket(fd);
        if (open_conns_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
          // Connection-level admission control: a one-frame 503 and an
          // immediate close, so the client backs off instead of hanging.
          overload_rejected_.fetch_add(1, std::memory_order_relaxed);
          overload_counter_.Inc();
          const auto payload = MakeErrorPayload(
              Opcode::kHello, WireCode::kOverloaded,
              "connection limit reached");
          (void)WriteFrame(fd, payload);
          continue;
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(conn_fd);
        conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
        conn->last_active_ms = NowMs();
        accepted_.fetch_add(1, std::memory_order_relaxed);
        accepted_counter_.Inc();
        open_conns_.fetch_add(1, std::memory_order_relaxed);
        conns_gauge_.Add(1);
        if (obs::BlackboxWriter* bb = db_->heap().blackbox()) {
          bb->Record(obs::BlackboxEventType::kConnOpen, conn->id,
                     static_cast<uint64_t>(
                         open_conns_.load(std::memory_order_relaxed)));
        }
        Worker* worker = workers_[next_worker].get();
        next_worker = (next_worker + 1) % workers_.size();
        {
          std::lock_guard<std::mutex> guard(worker->pending_mutex);
          worker->pending.push_back(std::move(conn));
        }
        const uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(worker->wake_fd.get(), &one, sizeof(one));
      }
    }
    listen_fd_.Reset();
  }

  // --- Worker event loop --------------------------------------------------

  void WorkerLoop(Worker* worker) {
    std::vector<epoll_event> events(64);
    uint64_t last_sweep_ms = NowMs();
    while (true) {
      if (draining()) {
        CloseAllConnections(worker);
        return;
      }
      const int n = ::epoll_wait(worker->epoll_fd.get(), events.data(),
                                 static_cast<int>(events.size()), 200);
      if (n < 0 && errno != EINTR) {
        HYRISE_NV_LOG(kError)
            << "epoll_wait: " << std::strerror(errno);
        return;
      }
      AdoptPending(worker);
      for (int i = 0; i < std::max(n, 0); ++i) {
        const epoll_event& ev = events[static_cast<size_t>(i)];
        if (ev.data.fd == worker->wake_fd.get()) {
          uint64_t drain_count;
          while (::read(worker->wake_fd.get(), &drain_count,
                        sizeof(drain_count)) > 0) {
          }
          continue;
        }
        auto it = worker->conns.find(ev.data.fd);
        if (it == worker->conns.end()) continue;
        Connection* conn = it->second.get();
        // Read before honouring HUP: a peer that wrote and immediately
        // closed still has bytes pending, and they must be parsed (and
        // protocol errors counted) before the close is observed via
        // recv() == 0.
        if ((ev.events & EPOLLIN) != 0) {
          OnReadable(worker, conn);
          if (worker->conns.find(ev.data.fd) == worker->conns.end()) {
            continue;  // OnReadable closed the connection
          }
        }
        if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConnection(worker, conn);
          continue;
        }
        if ((ev.events & EPOLLOUT) != 0) {
          FlushOut(worker, conn);
        }
      }
      const uint64_t now = NowMs();
      if (options_.idle_timeout_ms > 0 &&
          now - last_sweep_ms >=
              static_cast<uint64_t>(options_.idle_timeout_ms) / 2 + 1) {
        last_sweep_ms = now;
        SweepIdle(worker, now);
      }
    }
  }

  void AdoptPending(Worker* worker) {
    std::deque<std::unique_ptr<Connection>> pending;
    {
      std::lock_guard<std::mutex> guard(worker->pending_mutex);
      pending.swap(worker->pending);
    }
    for (auto& conn : pending) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn->fd.get();
      if (::epoll_ctl(worker->epoll_fd.get(), EPOLL_CTL_ADD,
                      conn->fd.get(), &ev) < 0) {
        DropConnectionState(conn.get());
        continue;
      }
      worker->conns[conn->fd.get()] = std::move(conn);
    }
  }

  void SweepIdle(Worker* worker, uint64_t now) {
    std::vector<Connection*> idle;
    for (auto& [fd, conn] : worker->conns) {
      if (now - conn->last_active_ms >
          static_cast<uint64_t>(options_.idle_timeout_ms)) {
        idle.push_back(conn.get());
      }
    }
    for (Connection* conn : idle) {
      HYRISE_NV_LOG(kInfo) << "closing idle session " << conn->id;
      CloseConnection(worker, conn);
    }
  }

  void CloseAllConnections(Worker* worker) {
    for (auto& [fd, conn] : worker->conns) {
      // Best-effort flush of already-queued responses (the drain ack in
      // particular), then release the session's transaction.
      (void)TrySend(conn.get());
      DropConnectionState(conn.get());
    }
    worker->conns.clear();
    AdoptPending(worker);  // connections accepted but never registered
    for (auto& [fd, conn] : worker->conns) {
      DropConnectionState(conn.get());
    }
    worker->conns.clear();
  }

  /// Releases engine-side session state (the open transaction) and the
  /// bookkeeping for a connection that is going away.
  void DropConnectionState(Connection* conn) {
    if (conn->txn_open) {
      // A dead client must not leak claimed rows: abort stamps the
      // claims away, so its versions stay invisible to every reader.
      Status status = db_->Abort(conn->txn);
      if (!status.ok()) {
        HYRISE_NV_LOG(kWarn) << "abort of session " << conn->id
                             << " transaction failed: "
                             << status.ToString();
      }
      conn->txn_open = false;
      open_txns_.fetch_add(-1, std::memory_order_relaxed);
    }
    if (obs::BlackboxWriter* bb = db_->heap().blackbox()) {
      bb->Record(obs::BlackboxEventType::kConnClose, conn->id,
                 conn->txn_open ? 1 : 0);
    }
    open_conns_.fetch_add(-1, std::memory_order_relaxed);
    conns_gauge_.Add(-1);
  }

  void CloseConnection(Worker* worker, Connection* conn) {
    const int fd = conn->fd.get();
    ::epoll_ctl(worker->epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr);
    DropConnectionState(conn);
    worker->conns.erase(fd);
  }

  // --- I/O ----------------------------------------------------------------

  /// Non-blocking send of the out chain. Returns false when the
  /// connection was closed (error or close_after_flush completion).
  bool FlushOut(Worker* worker, Connection* conn) {
    if (!TrySend(conn)) {
      CloseConnection(worker, conn);
      return false;
    }
    const bool drained = conn->out_chain.empty();
    if (drained && conn->close_after_flush) {
      CloseConnection(worker, conn);
      return false;
    }
    const bool want_writable = !drained;
    if (want_writable != conn->wants_writable) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want_writable ? EPOLLOUT : 0u);
      ev.data.fd = conn->fd.get();
      ::epoll_ctl(worker->epoll_fd.get(), EPOLL_CTL_MOD, conn->fd.get(),
                  &ev);
      conn->wants_writable = want_writable;
    }
    return true;
  }

  /// Raw send loop; returns false on a hard socket error. The whole
  /// response chain goes out as one scatter-gather writev (header +
  /// payload iovecs, no coalescing copy); every byte accepted by the
  /// kernel advances bytes_flushed, which is what completes pending
  /// requests' latency attribution. Fully flushed payload buffers are
  /// recycled into the connection's encode-scratch pool.
  bool TrySend(Connection* conn) {
    constexpr int kMaxIov = 64;
    bool ok = true;
    while (!conn->out_chain.empty()) {
      iovec iov[kMaxIov];
      int iovcnt = 0;
      size_t skip = conn->chain_pos;  // applies to the front buffer only
      for (const OutBuf& buf : conn->out_chain) {
        if (iovcnt > kMaxIov - 2) break;
        if (skip < buf.header_len) {
          iov[iovcnt].iov_base =
              const_cast<uint8_t*>(buf.header) + skip;
          iov[iovcnt].iov_len = buf.header_len - skip;
          ++iovcnt;
          skip = 0;
        } else {
          skip -= buf.header_len;
        }
        if (!buf.payload.empty() && skip < buf.payload.size()) {
          iov[iovcnt].iov_base =
              const_cast<uint8_t*>(buf.payload.data()) + skip;
          iov[iovcnt].iov_len = buf.payload.size() - skip;
          ++iovcnt;
        }
        skip = 0;
      }
      // sendmsg == writev + flags; MSG_NOSIGNAL keeps a dead peer from
      // raising SIGPIPE out of the worker thread.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<size_t>(iovcnt);
      const ssize_t n = ::sendmsg(conn->fd.get(), &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        ok = false;
        break;
      }
      conn->bytes_flushed += static_cast<uint64_t>(n);
      size_t advanced = static_cast<size_t>(n);
      while (advanced > 0 && !conn->out_chain.empty()) {
        OutBuf& front = conn->out_chain.front();
        const size_t left = front.size() - conn->chain_pos;
        if (advanced >= left) {
          advanced -= left;
          conn->chain_pos = 0;
          RecycleBuf(conn, std::move(front.payload));
          conn->out_chain.pop_front();
        } else {
          conn->chain_pos += advanced;
          advanced = 0;
        }
      }
    }
    CompleteFlushedRequests(conn);
    return ok;
  }

  /// Finishes latency accounting for every pending request whose
  /// response has fully reached the socket: records the write_flush
  /// stage and the end-to-end `net.request.latency_ns` (which therefore
  /// covers output-backlog drain time, not just execution), applies the
  /// slow-request threshold, and publishes the wire→txn→WAL trace for
  /// sampled requests.
  void CompleteFlushedRequests(Connection* conn) {
    using obs::FastClock;
    using obs::RequestStage;
    while (!conn->pending_requests.empty() &&
           conn->pending_requests.front().flush_end <= conn->bytes_flushed) {
      PendingRequest req = std::move(conn->pending_requests.front());
      conn->pending_requests.pop_front();
      const uint64_t now_ticks = FastClock::NowTicks();
      const uint64_t total_ns = FastClock::TicksToNanos(
          static_cast<int64_t>(now_ticks - req.start_ticks));
      req.stages[RequestStage::kWriteFlush] = FastClock::TicksToNanos(
          static_cast<int64_t>(now_ticks - req.queued_ticks));
      latency_hist_.Record(total_ns);
      RecordStage(req.op, RequestStage::kWriteFlush,
                  req.stages[RequestStage::kWriteFlush]);
      const uint64_t threshold_ns = options_.slow_request_us * 1000;
      if (threshold_ns != 0 && total_ns >= threshold_ns) {
        CaptureSlowRequest(conn, req, total_ns);
      }
      if (req.sampled) PublishRequestTrace(req, total_ns);
    }
  }

  void RecordStage(uint8_t op, obs::RequestStage stage, uint64_t ns) {
    obs::Histogram* hist = stage_hists_[op][static_cast<size_t>(stage)];
    if (hist != nullptr) hist->Record(ns);
  }

  void CaptureSlowRequest(Connection* conn, const PendingRequest& req,
                          uint64_t total_ns) {
    const obs::RequestStage dominant = req.stages.Dominant();
    slow_request_counter_.Inc();
    slow_ring_.Push(req.op, total_ns, req.stages);
    if (obs::BlackboxWriter* bb = db_->heap().blackbox()) {
      bb->Record(obs::BlackboxEventType::kSlowRequest, req.op,
                 static_cast<uint64_t>(dominant), total_ns,
                 req.stages[dominant], conn->id);
    }
  }

  /// Builds the one-tree view the tracing satellite promises: the wire
  /// stages with the engine's sampled txn_commit subtree (which itself
  /// carries persist/wal_sync/commit_publish) grafted under execute.
  void PublishRequestTrace(const PendingRequest& req, uint64_t total_ns) {
    using obs::RequestStage;
    obs::SpanNode root;
    root.name = "request";
    root.seconds = static_cast<double>(total_ns) / 1e9;
    const RequestStage wire_stages[] = {RequestStage::kParse,
                                        RequestStage::kDispatch,
                                        RequestStage::kExecute,
                                        RequestStage::kWriteFlush};
    for (const RequestStage stage : wire_stages) {
      obs::SpanNode child;
      child.name = obs::RequestStageName(stage);
      child.seconds = static_cast<double>(req.stages[stage]) / 1e9;
      if (stage == RequestStage::kExecute && !req.engine_trace.name.empty()) {
        child.children.push_back(req.engine_trace);
      }
      root.children.push_back(std::move(child));
    }
    std::lock_guard<std::mutex> guard(request_trace_mutex_);
    last_request_trace_ = std::move(root);
  }

  void OnReadable(Worker* worker, Connection* conn) {
    if (conn->out_backlog() > kMaxOutBacklog) {
      // Backpressure: the client is not draining responses; stop
      // reading until it does (level-triggered epoll re-arms this).
      return;
    }
    uint8_t buf[16384];
    bool peer_closed = false;
    while (true) {
      const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.insert(conn->in.end(), buf, buf + n);
        conn->last_active_ms = NowMs();
        if (conn->in.size() - conn->in_pos > kMaxOutBacklog) break;
        continue;
      }
      if (n == 0) {
        // Peer closed — but bytes that arrived before the FIN still get
        // parsed (so a write-then-hang-up peer's protocol errors are
        // observed and counted), then the connection goes away.
        peer_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(worker, conn);
      return;
    }
    if (!ParseAndExecute(worker, conn)) return;  // connection closed
    // Compact the parse buffer once a batch is done.
    if (conn->in_pos > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<std::ptrdiff_t>(conn->in_pos));
      conn->in_pos = 0;
    }
    if (peer_closed) {
      (void)TrySend(conn);  // best-effort flush of queued responses
      CloseConnection(worker, conn);
      return;
    }
    FlushOut(worker, conn);
  }

  /// One complete frame discovered by the batch scan, pending execution.
  struct FrameRef {
    FrameView frame;     // points into conn->in
    uint64_t ticks = 0;  // frame-read-complete timestamp
    bool hoist = false;  // v2 ad-hoc read: may complete ahead of DML
  };

  /// True for requests the v2 ordering rules allow to complete out of
  /// order: pings and ad-hoc (tid 0) reads, which carry their own
  /// snapshot and touch no session state. DML, transaction control and
  /// in-transaction reads stay FIFO (DESIGN.md §17).
  static bool IsHoistableRead(const uint8_t* payload, uint32_t len) {
    if (len < 1) return false;
    const Opcode op = static_cast<Opcode>(payload[0]);
    if (op == Opcode::kPing) return true;
    if (op != Opcode::kScanEqual && op != Opcode::kScanRange &&
        op != Opcode::kCount) {
      return false;
    }
    if (len < 1 + sizeof(uint64_t)) return false;
    uint64_t tid;
    std::memcpy(&tid, payload + 1, sizeof(tid));
    return tid == 0;
  }

  /// Drains conn->in into per-connection request batches and executes
  /// them. Each batch is scanned for complete frames first (so the
  /// queue-depth gauge sees the real backlog and v2 read hoisting knows
  /// the whole wake's worth of work), then executed: on v2 connections
  /// ad-hoc reads run first and complete out of order ahead of any DML
  /// queued behind them; everything else runs in arrival order. Returns
  /// false when the connection was closed (protocol error).
  bool ParseAndExecute(Worker* worker, Connection* conn) {
    while (true) {
      std::vector<FrameRef> batch;
      Status fatal;  // bad length or CRC: poisons the stream
      size_t pos = conn->in_pos;
      while (true) {
        // Frame-read-complete: request latency is measured from here,
        // taken before the decode so the CRC check and opcode decode
        // land in the parse stage.
        FrameRef ref;
        ref.ticks = obs::FastClock::NowTicks();
        fatal = NextFrame(conn->version, conn->in.data() + pos,
                          conn->in.size() - pos, &ref.frame);
        if (!fatal.ok() || ref.frame.consumed == 0) break;
        ref.hoist = conn->version >= 2 &&
                    IsHoistableRead(ref.frame.payload, ref.frame.len);
        batch.push_back(ref);
        pos += ref.frame.consumed;
        // Before the handshake the framing of everything past the first
        // frame is unknown (hello may negotiate v2): execute one frame,
        // then rescan under the negotiated version.
        if (!conn->handshaken) break;
      }
      if (batch.empty() && fatal.ok()) return true;  // need more bytes
      conn->in_pos = pos;  // every scanned frame is consumed below
      size_t queued = batch.size();
      queue_gauge_.Add(static_cast<int64_t>(queued));
      // Two passes on v2 (hoisted reads, then the FIFO remainder); the
      // single pass over a v1 batch is the degenerate second pass. A
      // corrupt frame ended the scan, so everything before it runs and
      // answers first (DESIGN.md §17.2).
      for (const int pass : {0, 1}) {
        for (const FrameRef& ref : batch) {
          if (ref.hoist != (pass == 0)) continue;
          --queued;
          queue_gauge_.Add(-1);
          if (!ExecuteFrame(worker, conn, ref.frame, ref.ticks)) {
            queue_gauge_.Add(-static_cast<int64_t>(queued));
            return false;
          }
        }
      }
      if (!fatal.ok()) {
        ProtocolError(worker, conn, MakeFrameErrorPayload(fatal));
        return false;
      }
    }
  }

  /// A malformed frame or handshake: count it, queue the kProtocolError
  /// `response`, and close the connection after the flush (a byte stream
  /// past a bad frame cannot be resynchronised).
  void ProtocolError(Worker* worker, Connection* conn,
                     std::vector<uint8_t>&& response, uint32_t tag = 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    protocol_error_counter_.Inc();
    AppendResponse(conn, std::move(response), tag);
    conn->close_after_flush = true;
    FlushOut(worker, conn);
  }

  /// Frames `payload` under the connection's negotiated version straight
  /// into the out chain — the payload moves, it is never copied into a
  /// contiguous buffer.
  void AppendResponse(Connection* conn, std::vector<uint8_t>&& payload,
                      uint32_t tag = 0) {
    OutBuf buf;
    buf.header_len =
        EncodeFrameHeader(conn->version, tag, payload.data(),
                          static_cast<uint32_t>(payload.size()), buf.header);
    buf.payload = std::move(payload);
    conn->bytes_queued += buf.size();
    conn->out_chain.push_back(std::move(buf));
  }

  // --- Request execution --------------------------------------------------

  /// True when `tag` is already attached to an outstanding request on
  /// this connection (response not yet fully flushed). Bounded by the
  /// pipeline window, so the linear scan is cheap.
  static bool TagInFlight(Connection* conn, uint32_t tag) {
    for (const PendingRequest& pr : conn->pending_requests) {
      if (pr.tag == tag) return true;
    }
    return false;
  }

  /// Returns false when the connection was closed.
  bool ExecuteFrame(Worker* worker, Connection* conn, const FrameView& frame,
                    uint64_t start_ticks) {
    using obs::FastClock;
    using obs::RequestStage;
    const uint32_t tag = frame.tag;
    WireReader reader(frame.payload, frame.len);
    const uint8_t raw_op = reader.U8();
    std::vector<uint8_t> refusal;
    const Refusal verdict = RefuseRequest(raw_op, conn->handshaken, &refusal);
    if (verdict == Refusal::kAnswer) {  // an unknown opcode
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_error_counter_.Inc();
      AppendResponse(conn, std::move(refusal), tag);
      return true;
    }
    const Opcode op = static_cast<Opcode>(raw_op);
    op_counters_[raw_op]->Inc();
    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_counter_.Inc();
    if (verdict == Refusal::kClose) {
      ProtocolError(worker, conn, std::move(refusal), tag);
      return false;
    }

    // Stage attribution: parse (CRC + opcode decode + handshake check),
    // dispatch (admission control), execute (engine work, minus the
    // commit stages harvested from the transaction), wal_sync and
    // commit_publish (engine commit pipeline). write_flush completes in
    // CompleteFlushedRequests once the response reaches the socket.
    PendingRequest req;
    req.start_ticks = start_ticks;
    req.op = raw_op;
    req.tag = tag;
    const uint64_t parse_end_ticks = FastClock::NowTicks();
    req.stages[RequestStage::kParse] = FastClock::TicksToNanos(
        static_cast<int64_t>(parse_end_ticks - start_ticks));

    if (op == Opcode::kHello) {
      const bool keep = HandleHello(worker, conn, reader);
      if (keep) {
        // HandleHello already queued the response; the hello has no
        // dispatch/engine stages, so everything after parse is execute.
        const uint64_t exec_end_ticks = FastClock::NowTicks();
        req.stages[RequestStage::kExecute] = FastClock::TicksToNanos(
            static_cast<int64_t>(exec_end_ticks - parse_end_ticks));
        FinishRequestStages(conn, std::move(req), exec_end_ticks);
      }
      return keep;
    }

    std::vector<uint8_t> response;
    uint64_t dispatch_end_ticks = parse_end_ticks;
    if (conn->version >= 2 &&
        conn->pending_requests.size() >= conn->window) {
      // Pipeline window overflow: the client has more requests
      // outstanding than it negotiated. Shed the excess with the
      // retryable admission-control code — never a connection close.
      overload_rejected_.fetch_add(1, std::memory_order_relaxed);
      overload_counter_.Inc();
      response = MakeErrorPayload(
          op, WireCode::kOverloaded,
          "pipeline window exceeded (" + std::to_string(conn->window) +
              " requests outstanding)");
      dispatch_end_ticks = FastClock::NowTicks();
    } else if (conn->version >= 2 && TagInFlight(conn, tag)) {
      // Tags must be unique among outstanding requests — a duplicate
      // would make two responses indistinguishable to the client. The
      // frame boundary is intact, so answer cleanly and keep going.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_error_counter_.Inc();
      response = MakeErrorPayload(
          op, WireCode::kInvalidArgument,
          "request tag " + std::to_string(tag) + " already in flight");
      dispatch_end_ticks = FastClock::NowTicks();
    } else if (draining()) {
      response = MakeErrorPayload(op, WireCode::kDraining,
                                  "server is draining");
      dispatch_end_ticks = FastClock::NowTicks();
    } else {
      // Request-level admission control: a bounded number of requests
      // may execute concurrently; the rest get a 503-style rejection
      // the client treats as retryable.
      const int inflight =
          inflight_.fetch_add(1, std::memory_order_acq_rel);
      if (inflight >= options_.max_inflight) {
        overload_rejected_.fetch_add(1, std::memory_order_relaxed);
        overload_counter_.Inc();
        response = MakeErrorPayload(
            op, WireCode::kOverloaded,
            "server at capacity (" +
                std::to_string(options_.max_inflight) +
                " requests in flight)");
        dispatch_end_ticks = FastClock::NowTicks();
      } else if (ShedWhileWarming(op, inflight, &response)) {
        // Degraded serving: a tighter cap applied to engine-touching
        // ops; `response` already carries the retryable kWarming
        // rejection.
        dispatch_end_ticks = FastClock::NowTicks();
      } else {
        inflight_gauge_.Set(inflight + 1);
        dispatch_end_ticks = FastClock::NowTicks();
        conn->last_wal_sync_ns = 0;
        conn->last_commit_publish_ns = 0;
        conn->last_commit_sampled = false;
        response = Execute(op, conn, reader);
        req.stages[RequestStage::kWalSync] = conn->last_wal_sync_ns;
        req.stages[RequestStage::kCommitPublish] =
            conn->last_commit_publish_ns;
        if (conn->last_commit_sampled) {
          req.sampled = true;
          req.engine_trace = db_->LastSampledTxnTrace();
        }
      }
      inflight_.fetch_add(-1, std::memory_order_acq_rel);
      inflight_gauge_.Add(-1);
    }
    req.stages[RequestStage::kDispatch] = FastClock::TicksToNanos(
        static_cast<int64_t>(dispatch_end_ticks - parse_end_ticks));
    const uint64_t exec_end_ticks = FastClock::NowTicks();
    const uint64_t exec_ns = FastClock::TicksToNanos(
        static_cast<int64_t>(exec_end_ticks - dispatch_end_ticks));
    // The engine's wal_sync/commit_publish ran inside Execute(); carve
    // them out so the six stages stay disjoint and sum to ≈ total.
    const uint64_t engine_ns = req.stages[RequestStage::kWalSync] +
                               req.stages[RequestStage::kCommitPublish];
    req.stages[RequestStage::kExecute] =
        exec_ns > engine_ns ? exec_ns - engine_ns : 0;
    AppendResponse(conn, std::move(response), tag);
    FinishRequestStages(conn, std::move(req), FastClock::NowTicks());
    if (op == Opcode::kDrain) Drain();
    return true;
  }

  /// Records the stages known at execute time and parks the request to
  /// await its flush completion (flush_end = the out-buffer byte counter
  /// after its response, which AppendResponse just advanced).
  void FinishRequestStages(Connection* conn, PendingRequest req,
                           uint64_t queued_ticks) {
    using obs::RequestStage;
    req.queued_ticks = queued_ticks;
    req.flush_end = conn->bytes_queued;
    RecordStage(req.op, RequestStage::kParse,
                req.stages[RequestStage::kParse]);
    RecordStage(req.op, RequestStage::kDispatch,
                req.stages[RequestStage::kDispatch]);
    RecordStage(req.op, RequestStage::kExecute,
                req.stages[RequestStage::kExecute]);
    // Commit-pipeline stages only exist for durable commits; recording
    // zeros for every scan would drown the histograms that matter.
    if (req.stages[RequestStage::kWalSync] > 0) {
      RecordStage(req.op, RequestStage::kWalSync,
                  req.stages[RequestStage::kWalSync]);
    }
    if (req.stages[RequestStage::kCommitPublish] > 0) {
      RecordStage(req.op, RequestStage::kCommitPublish,
                  req.stages[RequestStage::kCommitPublish]);
    }
    conn->pending_requests.push_back(std::move(req));
  }

  bool HandleHello(Worker* worker, Connection* conn, WireReader& reader) {
    auto hello = ParseHello(reader);
    if (!hello.ok()) {
      ProtocolError(worker, conn,
                    MakeErrorPayload(Opcode::kHello, WireCode::kProtocolError,
                                     hello.status().message()));
      return false;
    }
    // No common version is a clean cross-version failure: the client
    // learns both supported ranges instead of a dropped connection.
    auto reply = Negotiate(*hello);
    if (!reply.ok() || draining()) {
      AppendResponse(conn, reply.ok()
                               ? MakeErrorPayload(Opcode::kHello,
                                                  WireCode::kDraining,
                                                  "server is draining")
                               : MakeStatusPayload(Opcode::kHello,
                                                   reply.status()));
      conn->close_after_flush = true;
      FlushOut(worker, conn);
      return false;
    }
    reply->mode = static_cast<uint8_t>(db_->options().mode);
    reply->session_id = conn->id;
    conn->handshaken = true;
    // The hello response is v1-framed even when v2 was negotiated (the
    // client cannot know the outcome before reading it); everything
    // after this frame — in both directions — is tagged.
    AppendResponse(conn, EncodeHelloReply(*reply));
    if (reply->version >= 2) {
      conn->version = reply->version;
      conn->window = reply->window;
    }
    return true;
  }

  bool serving_degraded() const {
    return db_->serving_state() == core::ServingState::kServingDegraded;
  }

  /// Tells a shed client why: the request waits for the background
  /// index build of an on-demand recovery.
  static std::string WarmingMessage() {
    return "server warming: building indexes after log recovery";
  }

  /// Ops that never get shed while warming: they don't touch table data
  /// and are exactly what a client needs to observe the warming state.
  static bool ExemptFromWarmingShed(Opcode op) {
    switch (op) {
      case Opcode::kHello:
      case Opcode::kPing:
      case Opcode::kStats:
      case Opcode::kRecoveryInfo:
      case Opcode::kDrain:
      // 2PC decisions and the in-doubt handshake must never be shed:
      // the coordinator's recovery protocol depends on them to converge
      // prepared transactions, and both are O(1) engine work.
      case Opcode::kDecide:
      case Opcode::kInDoubt:
        return true;
      default:
        return false;
    }
  }

  /// Load shedding during degraded serving: scans walk whole columns
  /// while the indexes build, so engine-touching requests beyond an
  /// eighth of max_inflight get a retryable kWarming rejection instead
  /// of queueing behind them.
  bool ShedWhileWarming(Opcode op, int inflight,
                        std::vector<uint8_t>* response) {
    if (ExemptFromWarmingShed(op) || !serving_degraded()) return false;
    const int cap = std::max(1, options_.max_inflight / 8);
    if (inflight < cap) return false;
    warming_rejected_.fetch_add(1, std::memory_order_relaxed);
    warming_counter_.Inc();
    if (obs::BlackboxWriter* bb = db_->heap().blackbox()) {
      bb->Record(obs::BlackboxEventType::kWarmingShed,
                 static_cast<uint64_t>(inflight));
    }
    *response = MakeErrorPayload(op, WireCode::kWarming, WarmingMessage());
    return true;
  }

  std::vector<uint8_t> Execute(Opcode op, Connection* conn,
                               WireReader& reader) {
    switch (op) {
      case Opcode::kPing:
        return MakeStatusPayload(op, Status::OK());
      case Opcode::kBegin:
        return ExecBegin(conn);
      case Opcode::kCommit:
        return ExecCommit(conn, reader);
      case Opcode::kAbort:
        return ExecAbort(conn, reader);
      case Opcode::kPrepare:
        return ExecPrepare(conn, reader);
      case Opcode::kDecide:
        return ExecDecide(reader);
      case Opcode::kInDoubt:
        return ExecInDoubt();
      case Opcode::kInsert:
      case Opcode::kUpdate:
      case Opcode::kDelete:
        return ExecDml(op, conn, reader);
      case Opcode::kDmlBatch:
        return ExecDmlBatch(conn, reader);
      case Opcode::kScanEqual:
      case Opcode::kScanRange:
        return ExecScan(op, conn, reader);
      case Opcode::kCount:
        return ExecCount(conn, reader);
      case Opcode::kCreateTable:
        return ExecCreateTable(reader);
      case Opcode::kCreateIndex:
        return ExecCreateIndex(reader);
      case Opcode::kStats:
        return ExecStats();
      case Opcode::kRecoveryInfo:
        return MakeOkString(op, RecoveryInfoJson());
      case Opcode::kCheckpoint: {
        if (serving_degraded()) {
          // The engine would refuse anyway (the deferred indexes are not
          // built yet); surface it as the retryable warming code so
          // clients know to simply wait for the build.
          return MakeErrorPayload(op, WireCode::kWarming, WarmingMessage());
        }
        std::lock_guard<std::mutex> guard(ddl_mutex_);
        return MakeStatusPayload(op, db_->Checkpoint());
      }
      case Opcode::kDrain:
        // The OK ack is queued before Drain() flips the flag (caller
        // handles that ordering); nothing else to do here.
        return MakeStatusPayload(op, Status::OK());
      case Opcode::kHello:
        break;  // handled before Execute()
    }
    return MakeErrorPayload(op, WireCode::kInternal, "unroutable opcode");
  }

  static std::vector<uint8_t> MakeOkString(Opcode op,
                                           const std::string& body) {
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(op));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.Str(body);
    return payload;
  }

  std::vector<uint8_t> ExecBegin(Connection* conn) {
    if (conn->txn_open) {
      return MakeErrorPayload(
          Opcode::kBegin, WireCode::kInvalidArgument,
          "session already has an open transaction (tid " +
              std::to_string(conn->txn.tid()) + ")");
    }
    auto tx_result = db_->Begin();
    if (!tx_result.ok()) {
      return MakeStatusPayload(Opcode::kBegin, tx_result.status());
    }
    conn->txn = *tx_result;
    conn->txn_open = true;
    open_txns_.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> payload = TakeBuf(conn);
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kBegin));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64(conn->txn.tid());
    writer.U64(conn->txn.snapshot());
    return payload;
  }

  /// Resolves the request's transaction id against the session. 0 means
  /// "the session's open transaction".
  Status SessionTxn(Connection* conn, uint64_t tid) {
    if (!conn->txn_open) {
      return Status::InvalidArgument("no open transaction on this session");
    }
    if (tid != 0 && tid != conn->txn.tid()) {
      return Status::InvalidArgument(
          "transaction id " + std::to_string(tid) +
          " does not match this session's open transaction " +
          std::to_string(conn->txn.tid()));
    }
    return Status::OK();
  }

  // Sessions on different worker threads commit through the engine's
  // concurrent pipeline — no global commit lock: persists and row
  // stamping run in parallel, only visibility publication is serialised
  // (in CID order, batched). The WAL engines additionally fold
  // concurrent sessions' fsyncs into one group commit.
  std::vector<uint8_t> ExecCommit(Connection* conn, WireReader& reader) {
    const uint64_t tid = reader.U64();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kCommit, WireCode::kInvalidArgument,
                              "malformed commit body");
    }
    Status status = SessionTxn(conn, tid);
    if (!status.ok()) return MakeStatusPayload(Opcode::kCommit, status);
    const bool sampled = conn->txn.sampled();
    status = db_->Commit(conn->txn);
    if (!conn->txn.active()) {
      conn->txn_open = false;
      open_txns_.fetch_add(-1, std::memory_order_relaxed);
    }
    if (!status.ok()) return MakeStatusPayload(Opcode::kCommit, status);
    // Hand the commit pipeline's stage timings to the request-level
    // attribution (only on success — a failed commit never reached the
    // publish stage and must not report a predecessor's numbers).
    conn->last_wal_sync_ns = conn->txn.wal_sync_ns();
    conn->last_commit_publish_ns = conn->txn.commit_publish_ns();
    conn->last_commit_sampled = sampled;
    std::vector<uint8_t> payload = TakeBuf(conn);
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kCommit));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64(conn->txn.commit_cid());
    return payload;
  }

  std::vector<uint8_t> ExecAbort(Connection* conn, WireReader& reader) {
    const uint64_t tid = reader.U64();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kAbort, WireCode::kInvalidArgument,
                              "malformed abort body");
    }
    Status status = SessionTxn(conn, tid);
    if (!status.ok()) return MakeStatusPayload(Opcode::kAbort, status);
    status = db_->Abort(conn->txn);
    conn->txn_open = false;
    open_txns_.fetch_add(-1, std::memory_order_relaxed);
    return MakeStatusPayload(Opcode::kAbort, status);
  }

  /// 2PC phase one. Body: [u64 tid][u64 gtid]. On success the
  /// transaction detaches from the session (the prepared registry owns
  /// it; a session drop must not abort it), so `txn_open` flips false —
  /// only a coordinator kDecide moves it further. On failure the
  /// transaction stays owned by the session and the coordinator aborts
  /// it through the normal kAbort path.
  std::vector<uint8_t> ExecPrepare(Connection* conn, WireReader& reader) {
    const uint64_t tid = reader.U64();
    const uint64_t gtid = reader.U64();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kPrepare, WireCode::kInvalidArgument,
                              "malformed prepare body");
    }
    Status status = SessionTxn(conn, tid);
    if (!status.ok()) return MakeStatusPayload(Opcode::kPrepare, status);
    status = db_->Prepare(conn->txn, gtid);
    if (!status.ok()) return MakeStatusPayload(Opcode::kPrepare, status);
    conn->txn = txn::Transaction();
    conn->txn_open = false;
    open_txns_.fetch_add(-1, std::memory_order_relaxed);
    return MakeStatusPayload(Opcode::kPrepare, Status::OK());
  }

  /// 2PC phase two. Body: [u64 gtid][u8 commit]. Deliberately not bound
  /// to any session transaction: the decision may arrive on a fresh
  /// connection after the preparing session (or the whole server) died.
  /// Idempotent — an unknown gtid answers OK.
  std::vector<uint8_t> ExecDecide(WireReader& reader) {
    const uint64_t gtid = reader.U64();
    const uint8_t commit = reader.U8();
    if (!reader.ok() || commit > 1) {
      return MakeErrorPayload(Opcode::kDecide, WireCode::kInvalidArgument,
                              "malformed decide body");
    }
    return MakeStatusPayload(Opcode::kDecide,
                             db_->Decide(gtid, commit != 0));
  }

  /// Recovery handshake: every prepared-but-undecided gtid on this
  /// shard. Body: empty. Response: [u32 count][u64 gtid]*.
  std::vector<uint8_t> ExecInDoubt() {
    const std::vector<uint64_t> gtids = db_->InDoubtGtids();
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kInDoubt));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U32(static_cast<uint32_t>(gtids.size()));
    for (uint64_t gtid : gtids) writer.U64(gtid);
    return payload;
  }

  /// Applies one decoded op inside `tx`: bound-checks the location,
  /// then inserts, updates or deletes. Returns the op's location (a
  /// delete echoes the one it removed).
  Result<storage::RowLocation> ApplyOp(txn::Transaction& tx,
                                       storage::Table* table,
                                       const DmlOp& op) {
    if (op.kind == DmlOp::kInsert) return db_->Insert(tx, table, op.row);
    HYRISE_NV_RETURN_NOT_OK(CheckLocation(table, op.loc));
    if (op.kind == DmlOp::kUpdate) {
      return db_->Update(tx, table, op.loc, op.row);
    }
    HYRISE_NV_RETURN_NOT_OK(db_->Delete(tx, table, op.loc));
    return op.loc;
  }

  /// kInsert, kUpdate or kDelete in the session transaction. Body:
  /// [u64 tid] + the op body. A delete answers with a status only.
  std::vector<uint8_t> ExecDml(Opcode op, Connection* conn,
                               WireReader& reader) {
    const uint64_t tid = reader.U64();
    const DmlOp dml = reader.DmlBody(DmlKind(op));
    if (!reader.ok()) {
      return MakeErrorPayload(op, WireCode::kInvalidArgument,
                              std::string("malformed ") + OpcodeName(op) +
                                  " body");
    }
    Status status = SessionTxn(conn, tid);
    if (!status.ok()) return MakeStatusPayload(op, status);
    auto table_result = db_->GetTable(dml.table);
    if (!table_result.ok()) {
      return MakeStatusPayload(op, table_result.status());
    }
    auto loc_result = ApplyOp(conn->txn, *table_result, dml);
    if (!loc_result.ok() || op == Opcode::kDelete) {
      return MakeStatusPayload(op, loc_result.status());
    }
    std::vector<uint8_t> payload = TakeBuf(conn);
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(op));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.Loc(*loc_result);
    return payload;
  }

  /// Pipelined autocommit write: [u32 count] then `count` kDmlBatch ops.
  /// The whole batch runs as ONE engine transaction — every op applies
  /// under one transaction-stage pass, then a single commit pays one
  /// group-commit fsync and one ordered publish for the lot. Atomic: any
  /// failing op aborts the batch and the error names its index.
  /// Response: [u32 count][loc]*count[u64 cid] (a delete echoes the
  /// location it removed).
  std::vector<uint8_t> ExecDmlBatch(Connection* conn, WireReader& reader) {
    constexpr Opcode kOp = Opcode::kDmlBatch;
    if (conn->txn_open) {
      return MakeErrorPayload(
          kOp, WireCode::kInvalidArgument,
          "dml_batch is autocommit; commit or abort the session "
          "transaction first");
    }
    const uint32_t count = reader.U32();
    if (!reader.ok() || count == 0) {
      return MakeErrorPayload(kOp, WireCode::kInvalidArgument,
                              "malformed dml_batch body");
    }
    auto tx_result = db_->Begin();
    if (!tx_result.ok()) {
      return MakeStatusPayload(kOp, tx_result.status());
    }
    txn::Transaction tx = std::move(*tx_result);
    const bool sampled = tx.sampled();
    std::vector<uint8_t> payload = TakeBuf(conn);
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(kOp));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U32(count);
    // One-entry table cache: batches overwhelmingly target one table,
    // and skipping the name lookup is part of the single-pass promise.
    storage::Table* cached_table = nullptr;
    std::string cached_name;
    Status failure;
    uint32_t i = 0;  // after the loop: the failing op's index
    for (; i < count; ++i) {
      const DmlOp op = reader.BatchOp();
      if (!reader.ok()) {
        failure = Status::InvalidArgument("malformed dml_batch op");
        break;
      }
      if (cached_table == nullptr || op.table != cached_name) {
        auto table_result = db_->GetTable(op.table);
        if (!table_result.ok()) {
          failure = table_result.status();
          break;
        }
        cached_table = *table_result;
        cached_name = op.table;
      }
      auto loc_result = ApplyOp(tx, cached_table, op);
      if (!loc_result.ok()) {
        failure = loc_result.status();
        break;
      }
      writer.Loc(*loc_result);
    }
    if (!failure.ok()) {
      (void)db_->Abort(tx);
      RecycleBuf(conn, std::move(payload));
      return MakeErrorPayload(kOp, WireCodeFromStatus(failure),
                              "op " + std::to_string(i) + ": " +
                                  std::string(failure.message()));
    }
    Status status = db_->Commit(tx);
    if (!status.ok()) {
      if (tx.active()) (void)db_->Abort(tx);
      RecycleBuf(conn, std::move(payload));
      return MakeStatusPayload(kOp, status);
    }
    conn->last_wal_sync_ns = tx.wal_sync_ns();
    conn->last_commit_publish_ns = tx.commit_publish_ns();
    conn->last_commit_sampled = sampled;
    writer.U64(tx.commit_cid());
    return payload;
  }

  /// Row locations come from an untrusted peer: bound-check them before
  /// they reach mvcc() pointer math.
  static Status CheckLocation(storage::Table* table,
                              storage::RowLocation loc) {
    const uint64_t rows =
        loc.in_main ? table->main_row_count() : table->delta_row_count();
    if (loc.row >= rows) {
      return Status::InvalidArgument(
          "row location " + std::to_string(loc.row) + " out of range (" +
          (loc.in_main ? "main" : "delta") + " holds " +
          std::to_string(rows) + " rows)");
    }
    return Status::OK();
  }

  std::vector<uint8_t> ExecScan(Opcode op, Connection* conn,
                                WireReader& reader) {
    const uint64_t tid = reader.U64();
    const std::string table_name = reader.Str();
    const uint32_t column = reader.U32();
    const storage::Value lo = reader.Value();
    const storage::Value hi =
        op == Opcode::kScanRange ? reader.Value() : lo;
    const uint32_t limit = reader.U32();
    if (!reader.ok()) {
      return MakeErrorPayload(op, WireCode::kInvalidArgument,
                              "malformed scan body");
    }
    auto table_result = db_->GetTable(table_name);
    if (!table_result.ok()) {
      return MakeStatusPayload(op, table_result.status());
    }
    storage::Table* table = *table_result;
    if (column >= table->schema().num_columns()) {
      return MakeErrorPayload(op, WireCode::kInvalidArgument,
                              "column index out of range");
    }
    storage::Cid snapshot;
    storage::Tid read_tid;
    if (tid == 0) {
      snapshot = db_->ReadSnapshot();
      read_tid = storage::kTidNone;
    } else {
      Status status = SessionTxn(conn, tid);
      if (!status.ok()) return MakeStatusPayload(op, status);
      snapshot = conn->txn.snapshot();
      read_tid = conn->txn.tid();
    }
    Result<std::vector<storage::RowLocation>> locs_result =
        op == Opcode::kScanEqual
            ? db_->ScanEqual(table, column, lo, snapshot, read_tid)
            : db_->ScanRange(table, column, lo, hi, snapshot, read_tid);
    if (!locs_result.ok()) {
      return MakeStatusPayload(op, locs_result.status());
    }
    std::vector<storage::RowLocation>& locs = *locs_result;
    bool truncated = false;
    if (limit != 0 && locs.size() > limit) {
      locs.resize(limit);
      truncated = true;
    }
    std::vector<uint8_t> payload = TakeBuf(conn);
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(op));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    const size_t truncated_at = payload.size();
    writer.U8(0);  // patched below if the payload cap truncates
    const size_t count_at = payload.size();
    writer.U32(0);  // patched with the emitted row count
    uint32_t emitted = 0;
    for (const storage::RowLocation& loc : locs) {
      if (payload.size() > kMaxResultPayload) {
        truncated = true;
        break;
      }
      writer.Loc(loc);
      writer.Row(core::MaterializeRows(table, {loc})[0]);
      ++emitted;
    }
    payload[truncated_at] = truncated ? 1 : 0;
    std::memcpy(payload.data() + count_at, &emitted, sizeof(emitted));
    return payload;
  }

  std::vector<uint8_t> ExecCount(Connection* conn, WireReader& reader) {
    const uint64_t tid = reader.U64();
    const std::string table_name = reader.Str();
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kCount, WireCode::kInvalidArgument,
                              "malformed count body");
    }
    auto table_result = db_->GetTable(table_name);
    if (!table_result.ok()) {
      return MakeStatusPayload(Opcode::kCount, table_result.status());
    }
    storage::Cid snapshot = db_->ReadSnapshot();
    storage::Tid read_tid = storage::kTidNone;
    if (tid != 0) {
      Status status = SessionTxn(conn, tid);
      if (!status.ok()) return MakeStatusPayload(Opcode::kCount, status);
      snapshot = conn->txn.snapshot();
      read_tid = conn->txn.tid();
    }
    const uint64_t count =
        core::CountRows(*table_result, snapshot, read_tid);
    std::vector<uint8_t> payload = TakeBuf(conn);
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kCount));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64(count);
    return payload;
  }

  std::vector<uint8_t> ExecCreateTable(WireReader& reader) {
    const std::string name = reader.Str();
    const uint16_t num_columns = reader.U16();
    std::vector<storage::ColumnDef> columns;
    columns.reserve(num_columns);
    for (uint16_t i = 0; i < num_columns && reader.ok(); ++i) {
      storage::ColumnDef def;
      def.name = reader.Str();
      def.type = static_cast<storage::DataType>(reader.U8());
      columns.push_back(std::move(def));
    }
    if (!reader.ok()) {
      return MakeErrorPayload(Opcode::kCreateTable,
                              WireCode::kInvalidArgument,
                              "malformed create-table body");
    }
    auto schema_result = storage::Schema::Make(std::move(columns));
    if (!schema_result.ok()) {
      return MakeStatusPayload(Opcode::kCreateTable,
                               schema_result.status());
    }
    std::lock_guard<std::mutex> guard(ddl_mutex_);
    auto table_result = db_->CreateTable(name, *schema_result);
    if (!table_result.ok()) {
      return MakeStatusPayload(Opcode::kCreateTable,
                               table_result.status());
    }
    std::vector<uint8_t> payload;
    WireWriter writer(&payload);
    writer.U8(static_cast<uint8_t>(Opcode::kCreateTable));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U64((*table_result)->id());
    return payload;
  }

  std::vector<uint8_t> ExecCreateIndex(WireReader& reader) {
    const std::string table_name = reader.Str();
    const uint32_t column = reader.U32();
    const uint8_t kind = reader.U8();
    if (!reader.ok() || kind > storage::kIndexSkipList) {
      return MakeErrorPayload(Opcode::kCreateIndex,
                              WireCode::kInvalidArgument,
                              "malformed create-index body");
    }
    std::lock_guard<std::mutex> guard(ddl_mutex_);
    return MakeStatusPayload(
        Opcode::kCreateIndex,
        db_->CreateIndex(table_name, column,
                         static_cast<storage::PIndexKind>(kind)));
  }

  /// The recovery report plus the live serving state (the report alone
  /// is a point-in-time snapshot of the open).
  std::string RecoveryInfoJson() const {
    std::string json = db_->last_recovery_report().ToJson();
    // Splice before the report's closing brace.
    json.pop_back();
    json += ",\"serving_state\":\"";
    json += serving_degraded() ? "degraded" : "ready";
    json += "\"}";
    return json;
  }

  /// {"threshold_us":...,"count":N,"recent":[{op,total_us,dominant,
  /// stages_us:{...}}]} — the newest captures, oldest first.
  std::string SlowRequestsJson() {
    constexpr size_t kMaxRecent = 8;
    std::vector<obs::SlowRequestRecord> records = slow_ring_.Snapshot();
    const size_t begin =
        records.size() > kMaxRecent ? records.size() - kMaxRecent : 0;
    std::ostringstream body;
    body << "{\"threshold_us\":" << options_.slow_request_us
         << ",\"count\":" << slow_ring_.total() << ",\"recent\":[";
    for (size_t i = begin; i < records.size(); ++i) {
      const obs::SlowRequestRecord& rec = records[i];
      if (i != begin) body << ",";
      body << "{\"seq\":" << rec.seq << ",\"op\":\""
           << OpcodeName(static_cast<Opcode>(rec.opcode))
           << "\",\"total_us\":"
           << static_cast<double>(rec.total_ns) / 1e3 << ",\"dominant\":\""
           << obs::RequestStageName(rec.stages.Dominant())
           << "\",\"stages_us\":{";
      for (size_t s = 0; s < obs::kNumRequestStages; ++s) {
        if (s != 0) body << ",";
        body << "\"" << obs::RequestStageName(s)
             << "\":" << static_cast<double>(rec.stages.ns[s]) / 1e3;
      }
      body << "}}";
    }
    body << "]}";
    return body.str();
  }

  std::vector<uint8_t> ExecStats() {
    const ServerCounters c = counters();
    obs::SpanNode request_trace;
    {
      std::lock_guard<std::mutex> guard(request_trace_mutex_);
      request_trace = last_request_trace_;
    }
    std::ostringstream body;
    body << "{\"server\":{\"connections\":" << c.open_connections
         << ",\"accepted\":" << c.accepted
         << ",\"overload_rejected\":" << c.overload_rejected
         << ",\"warming_rejected\":" << c.warming_rejected
         << ",\"protocol_errors\":" << c.protocol_errors
         << ",\"requests\":" << c.requests
         << ",\"open_transactions\":" << c.open_transactions
         << ",\"active_txns\":" << db_->txn_manager().ActiveCount()
         << ",\"draining\":" << (draining() ? "true" : "false")
         << ",\"serving_state\":\""
         << (serving_degraded() ? "degraded" : "ready") << "\"}"
         << ",\"slow_requests\":" << SlowRequestsJson();
    if (!request_trace.name.empty()) {
      body << ",\"last_request_trace\":" << request_trace.ToJson();
    }
    body << ",\"metrics\":" << db_->MetricsSnapshot().ToJson()
         << ",\"timeline\":" << db_->TimelineJson() << "}";
    return MakeOkString(Opcode::kStats, body.str());
  }

  core::Database* db_;
  const ServerOptions options_;
  OwnedFd listen_fd_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex join_mutex_;
  std::mutex ddl_mutex_;

  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<int> open_conns_{0};
  std::atomic<int> open_txns_{0};
  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> overload_rejected_{0};
  std::atomic<uint64_t> warming_rejected_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> requests_{0};

  obs::Histogram& latency_hist_;
  obs::Counter& requests_counter_;
  obs::Counter& overload_counter_;
  obs::Counter& warming_counter_;
  obs::Counter& protocol_error_counter_;
  obs::Counter& accepted_counter_;
  obs::Gauge& conns_gauge_;
  obs::Gauge& inflight_gauge_;
  obs::Gauge& queue_gauge_;
  obs::Counter* op_counters_[256] = {};
  obs::Histogram* stage_hists_[256][obs::kNumRequestStages] = {};
  obs::Counter& slow_request_counter_;
  obs::SlowRequestRing slow_ring_;

  /// Last completed sampled request's wire→txn→WAL span tree; guarded
  /// because completion runs on whichever worker flushed the response.
  mutable std::mutex request_trace_mutex_;
  obs::SpanNode last_request_trace_;

  friend class Server;
};

Server::Server(std::unique_ptr<ServerImpl> impl) : impl_(std::move(impl)) {}

Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Start(core::Database* db,
                                              const ServerOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("server needs a database");
  }
  auto impl = std::make_unique<ServerImpl>(db, options);
  HYRISE_NV_RETURN_NOT_OK(impl->Start());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

uint16_t Server::port() const { return impl_->port(); }
void Server::Drain() { impl_->Drain(); }
void Server::Wait() { impl_->Wait(); }
bool Server::draining() const { return impl_->draining(); }
ServerCounters Server::counters() const { return impl_->counters(); }

}  // namespace hyrise_nv::net
