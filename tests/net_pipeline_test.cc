// Pipelined wire-v2 serving tests (DESIGN.md §17): the async
// PipelinedClient against a live server, out-of-order read completion
// vs FIFO DML, the unknown-tag desync rule, kDmlBatch atomicity (in
// process and under a real SIGKILL mid-pipeline), v1-client compat over
// the wire, and the TCP_NODELAY regression guard for both socket ends.
//
// The SIGKILL test forks with live threads, so it is skipped under TSan
// (like serving_recovery_test); everything else here is TSan-clean.

#include "net/pipeline_client.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "net/client.h"
#include "net/net_util.h"
#include "net/server.h"
#include "nvm/nvm_env.h"

#if defined(__SANITIZE_THREAD__)
#define HYRISE_NV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYRISE_NV_TSAN 1
#endif
#endif

namespace hyrise_nv::net {
namespace {

using storage::DataType;
using storage::Value;

// --- Socket-option regression guard ---------------------------------------

TEST(TcpNoDelayTest, SetOnBothEndsOfEveryConnection) {
  // Nagle on either end serialises the pipelined protocol against
  // delayed ACKs and silently erases the batching win, so both paths —
  // ConnectTcp (client side) and ConfigureAcceptedSocket (every accept
  // loop) — must pin TCP_NODELAY.
  auto listener = CreateListener("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());

  auto client_fd = ConnectTcp("127.0.0.1", *port, 2000);
  ASSERT_TRUE(client_fd.ok());
  auto client_nodelay = GetNoDelay(client_fd->get());
  ASSERT_TRUE(client_nodelay.ok());
  EXPECT_TRUE(*client_nodelay) << "ConnectTcp must set TCP_NODELAY";

  int accepted = -1;
  for (int i = 0; i < 2000 && accepted < 0; ++i) {
    accepted = ::accept(listener->get(), nullptr, nullptr);
    if (accepted < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_GE(accepted, 0);
  OwnedFd accepted_fd(accepted);
  ASSERT_TRUE(ConfigureAcceptedSocket(accepted_fd.get()).ok());
  auto server_nodelay = GetNoDelay(accepted_fd.get());
  ASSERT_TRUE(server_nodelay.ok());
  EXPECT_TRUE(*server_nodelay)
      << "ConfigureAcceptedSocket must set TCP_NODELAY";
}

// --- In-process server fixture --------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = nvm::TempPath("net_pipeline_test");
    std::filesystem::create_directories(dir_);
    core::DatabaseOptions options;
    options.mode = core::DurabilityMode::kNvm;
    options.region_size = 64 << 20;
    options.data_dir = dir_;
    auto db_result = core::Database::Create(options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    db_ = std::move(*db_result);
    ServerOptions server_options;
    server_options.num_workers = 1;
    auto server_result = Server::Start(db_.get(), server_options);
    ASSERT_TRUE(server_result.ok()) << server_result.status().ToString();
    server_ = std::move(*server_result);
  }

  void TearDown() override {
    server_->Drain();
    server_->Wait();
    server_.reset();
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Creates the kv(k int64, v string) table with an index on k.
  void CreateKv() {
    Client client(ClientFor());
    ASSERT_TRUE(client.ConnectOnce().ok());
    ASSERT_TRUE(client
                    .CreateTable("kv", {{"k", DataType::kInt64},
                                        {"v", DataType::kString}})
                    .ok());
    ASSERT_TRUE(client.CreateIndex("kv", 0).ok());
  }

  ClientOptions ClientFor() {
    ClientOptions options;
    options.port = server_->port();
    return options;
  }

  PipelineClientOptions PipelineFor(uint32_t window = 0) {
    PipelineClientOptions options;
    options.port = server_->port();
    options.request_window = window;
    return options;
  }

  std::string dir_;
  std::unique_ptr<core::Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(PipelineTest, SubmitManyCompleteFifo) {
  PipelinedClient client(PipelineFor());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.window(), kDefaultPipelineWindow);
  std::vector<uint32_t> tags;
  for (int i = 0; i < 12; ++i) {
    auto tag = client.Submit(MakePingPayload());
    ASSERT_TRUE(tag.ok()) << tag.status().ToString();
    tags.push_back(*tag);
  }
  EXPECT_EQ(client.outstanding(), 12u);
  for (uint32_t expected : tags) {
    auto completion = client.Next();
    ASSERT_TRUE(completion.ok()) << completion.status().ToString();
    EXPECT_EQ(completion->tag, expected);
    EXPECT_EQ(completion->code, WireCode::kOk);
    EXPECT_TRUE(completion->ToStatus().ok());
  }
  EXPECT_EQ(client.outstanding(), 0u);
}

TEST_F(PipelineTest, AwaitOutOfSubmissionOrderUsesStash) {
  PipelinedClient client(PipelineFor());
  ASSERT_TRUE(client.Connect().ok());
  std::vector<uint32_t> tags;
  for (int i = 0; i < 4; ++i) {
    auto tag = client.Submit(MakePingPayload());
    ASSERT_TRUE(tag.ok());
    tags.push_back(*tag);
  }
  // Consume newest-first: every Await but the last drains earlier
  // completions into the stash and extracts its own.
  for (auto it = tags.rbegin(); it != tags.rend(); ++it) {
    auto completion = client.Await(*it);
    ASSERT_TRUE(completion.ok()) << completion.status().ToString();
    EXPECT_EQ(completion->tag, *it);
  }
  EXPECT_EQ(client.outstanding(), 0u);
  // A consumed tag is no longer outstanding.
  EXPECT_FALSE(client.Await(tags[0]).ok());
}

TEST_F(PipelineTest, AdHocReadCompletesAheadOfQueuedDml) {
  CreateKv();
  // Raw tagged frames so the ARRIVAL order of responses is observable:
  // one TCP write carries a DML batch (tag 1) then an ad-hoc read
  // (tag 2). Both land in one server batch; §17 hoists the read, so its
  // response must come back FIRST even though it was submitted second.
  auto fd_result = ConnectTcp("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd_result.ok());
  const int fd = fd_result->get();
  std::vector<uint8_t> hello;
  WireWriter writer(&hello);
  writer.U8(static_cast<uint8_t>(Opcode::kHello));
  writer.U32(kHelloMagic);
  writer.U16(kProtocolVersionMin);
  writer.U16(kProtocolVersionMax);
  writer.U32(8);
  ASSERT_TRUE(WriteFrame(fd, hello).ok());
  auto hello_resp = ReadFrame(fd, 2000);
  ASSERT_TRUE(hello_resp.ok());
  ASSERT_EQ((*hello_resp)[1], static_cast<uint8_t>(WireCode::kOk));

  std::vector<uint8_t> wire = EncodeTaggedFrame(
      1, MakeInsertBatchPayload("kv", {Value(int64_t{1}),
                                       Value(std::string("dml"))}));
  const std::vector<uint8_t> read_frame = EncodeTaggedFrame(
      2, MakeScanEqualPayload("kv", 0, Value(int64_t{999})));
  wire.insert(wire.end(), read_frame.begin(), read_frame.end());
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()).ok());

  uint32_t first_tag = 0;
  uint32_t second_tag = 0;
  auto first = RecvFrame(fd, 2, 5000, &first_tag);
  auto second = RecvFrame(fd, 2, 5000, &second_tag);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first_tag, 2u) << "ad-hoc read was not hoisted";
  EXPECT_EQ(second_tag, 1u);
  EXPECT_EQ((*first)[1], static_cast<uint8_t>(WireCode::kOk));
  EXPECT_EQ((*second)[1], static_cast<uint8_t>(WireCode::kOk));
}

TEST_F(PipelineTest, UnknownResponseTagClosesPipeline) {
  // A fake server that answers the handshake correctly, then replies
  // with a tag the client never submitted: the stream is out of sync
  // and the ONLY safe move is IOError + close — attributing the
  // response to some other request would corrupt caller state.
  auto listener = CreateListener("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());

  std::thread fake([&listener] {
    int fd = -1;
    for (int i = 0; i < 2000 && fd < 0; ++i) {
      fd = ::accept(listener->get(), nullptr, nullptr);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(fd, 0);
    OwnedFd conn(fd);
    auto hello = ReadFrame(conn.get(), 2000);
    ASSERT_TRUE(hello.ok());
    std::vector<uint8_t> resp;
    WireWriter writer(&resp);
    writer.U8(static_cast<uint8_t>(Opcode::kHello));
    writer.U8(static_cast<uint8_t>(WireCode::kOk));
    writer.U16(2);
    writer.U8(0);
    writer.U64(99);
    writer.U32(4);
    ASSERT_TRUE(WriteFrame(conn.get(), resp).ok());
    uint32_t tag = 0;
    auto request = RecvFrame(conn.get(), 2, 2000, &tag);
    ASSERT_TRUE(request.ok());
    std::vector<uint8_t> pong;
    WireWriter pong_writer(&pong);
    pong_writer.U8(static_cast<uint8_t>(Opcode::kPing));
    pong_writer.U8(static_cast<uint8_t>(WireCode::kOk));
    ASSERT_TRUE(SendFrame(conn.get(), 2, tag + 1, pong).ok());
  });

  PipelineClientOptions options;
  options.port = *port;
  PipelinedClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.window(), 4u);
  auto tag = client.Submit(MakePingPayload());
  ASSERT_TRUE(tag.ok());
  auto completion = client.Await(*tag);
  ASSERT_FALSE(completion.ok());
  EXPECT_EQ(completion.status().code(), StatusCode::kIOError);
  EXPECT_NE(completion.status().ToString().find("unknown tag"),
            std::string::npos);
  EXPECT_FALSE(client.connected());
  fake.join();
}

TEST_F(PipelineTest, V1ClientCompatAgainstV2Server) {
  CreateKv();
  ClientOptions options = ClientFor();
  options.protocol_max = 1;  // a pre-pipelining client binary
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.protocol_version(), 1);
  EXPECT_EQ(client.pipeline_window(), 0u);
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Begin().ok());
  auto loc = client.Insert("kv", {Value(int64_t{7}),
                                  Value(std::string("legacy"))});
  ASSERT_TRUE(loc.ok()) << loc.status().ToString();
  ASSERT_TRUE(client.Commit().ok());
  auto scan = client.ScanEqual("kv", 0, Value(int64_t{7}));
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(scan->rows[0].values[1]), "legacy");
}

TEST_F(PipelineTest, DmlBatchAtomicAndErrorsNameTheOp) {
  CreateKv();
  Client client(ClientFor());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.protocol_version(), 2);

  std::vector<DmlOp> good(3);
  for (int i = 0; i < 3; ++i) {
    good[i].kind = DmlOp::kInsert;
    good[i].table = "kv";
    good[i].row = {Value(int64_t{i}), Value(std::string("b"))};
  }
  auto result = client.DmlBatch(good);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->locs.size(), 3u);
  EXPECT_GT(result->cid, 0u);

  // Op 1 targets a missing table: the WHOLE batch must abort (ops 0 and
  // 2 included) and the error must name the failing index.
  std::vector<DmlOp> bad = good;
  bad[1].table = "nope";
  auto failed = client.DmlBatch(bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("op 1:"), std::string::npos);
  auto count = client.Count("kv");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u) << "failed batch leaked rows";

  // Batches are autocommit: inside a session transaction they must be
  // rejected instead of silently nesting.
  ASSERT_TRUE(client.Begin().ok());
  auto nested = client.DmlBatch(good);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(client.Abort().ok());
}

// --- SIGKILL mid-pipeline atomicity oracle --------------------------------

constexpr int kRowsPerMarker = 5;

uint16_t PickPort() {
  auto listener = CreateListener("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  EXPECT_TRUE(port.ok());
  return *port;
}

[[noreturn]] void ServeChild(core::DatabaseOptions db_options,
                             uint16_t port, bool create,
                             const std::string& marker) {
  auto db_result = create ? core::Database::Create(db_options)
                          : core::Database::Open(db_options);
  if (!db_result.ok()) ::_exit(2);
  auto db = std::move(db_result).ValueUnsafe();
  ServerOptions server_options;
  server_options.port = port;
  server_options.num_workers = 2;
  auto server_result = Server::Start(db.get(), server_options);
  if (!server_result.ok()) ::_exit(3);
  if (::creat(marker.c_str(), 0644) < 0) ::_exit(4);
  (*server_result)->Wait();
  server_result->reset();
  (void)db->Close();
  ::_exit(0);
}

pid_t SpawnServer(const core::DatabaseOptions& db_options, uint16_t port,
                  bool create, const std::string& marker) {
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) ServeChild(db_options, port, create, marker);
  for (int i = 0; i < 2000 && !std::filesystem::exists(marker); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(std::filesystem::exists(marker)) << "server child never ready";
  return pid;
}

void KillServerAndReap(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
}

/// One multi-insert kDmlBatch frame: kRowsPerMarker rows sharing
/// `marker` in column 0.
std::vector<uint8_t> MarkerBatchPayload(int64_t marker) {
  std::vector<uint8_t> payload;
  WireWriter writer(&payload);
  writer.U8(static_cast<uint8_t>(Opcode::kDmlBatch));
  writer.U32(kRowsPerMarker);
  for (int i = 0; i < kRowsPerMarker; ++i) {
    writer.U8(1);  // insert
    writer.Str("batch");
    writer.Row({Value(marker),
                Value(std::string("r") + std::to_string(i))});
  }
  return payload;
}

TEST(PipelineKillTest, KillNineMidPipelineLeavesNoPartialBatch) {
#ifdef HYRISE_NV_TSAN
  GTEST_SKIP() << "fork with threads is unsupported under TSan";
#else
  const std::string dir =
      "/tmp/hyrise-nv-pipeline-kill-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  core::DatabaseOptions db_options;
  db_options.mode = core::DurabilityMode::kWalValue;
  db_options.region_size = 128 << 20;
  db_options.data_dir = dir;
  const uint16_t port = PickPort();

  const pid_t first = SpawnServer(db_options, port, /*create=*/true,
                                  dir + "/ready1");

  {
    ClientOptions schema_options;
    schema_options.port = port;
    schema_options.max_retries = 3;
    Client schema(schema_options);
    ASSERT_TRUE(schema.Connect().ok());
    ASSERT_TRUE(schema
                    .CreateTable("batch", {{"marker", DataType::kInt64},
                                           {"r", DataType::kString}})
                    .ok());
    ASSERT_TRUE(schema.CreateIndex("batch", 0).ok());
  }

  // Pipeline marker batches flat out until the SIGKILL lands mid-window.
  // Every batch is ONE kDmlBatch frame, so the recovery oracle is per
  // marker: exactly 0 or kRowsPerMarker rows, never a partial batch —
  // and every ACKED marker must have all its rows.
  PipelineClientOptions pipe_options;
  pipe_options.port = port;
  pipe_options.request_window = 32;
  pipe_options.read_timeout_ms = 5000;
  PipelinedClient pipe(pipe_options);
  ASSERT_TRUE(pipe.Connect().ok());

  std::thread killer([first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ::kill(first, SIGKILL);
  });
  std::set<int64_t> acked;
  std::deque<int64_t> submitted_fifo;
  int64_t next_marker = 0;
  bool dead = false;
  while (!dead) {
    auto tag = pipe.Submit(MarkerBatchPayload(next_marker));
    if (!tag.ok()) break;  // server died mid-submit
    submitted_fifo.push_back(next_marker);
    ++next_marker;
    // Keep roughly half the window in flight; completions come back in
    // submit order (DML is FIFO), pairing with submitted_fifo.
    while (pipe.outstanding() > 16) {
      auto completion = pipe.Next();
      if (!completion.ok()) {
        dead = true;
        break;
      }
      const int64_t marker = submitted_fifo.front();
      submitted_fifo.pop_front();
      if (completion->code == WireCode::kOk) acked.insert(marker);
    }
  }
  killer.join();
  int wstatus = 0;
  ASSERT_EQ(::waitpid(first, &wstatus, 0), first);
  ASSERT_GT(acked.size(), 3u) << "pipeline barely ran before the kill";

  // Restart on the same data and check every marker's row count.
  const pid_t second = SpawnServer(db_options, port, /*create=*/false,
                                   dir + "/ready2");
  ClientOptions verify_options;
  verify_options.port = port;
  Client verify(verify_options);
  ASSERT_TRUE(verify.Connect().ok());
  for (int64_t marker = 0; marker < next_marker; ++marker) {
    auto scan = verify.ScanEqual("batch", 0, Value(marker));
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    const size_t rows = scan->rows.size();
    EXPECT_TRUE(rows == 0 || rows == kRowsPerMarker)
        << "marker " << marker << " has a PARTIAL batch: " << rows
        << " rows";
    if (acked.count(marker) > 0) {
      EXPECT_EQ(rows, static_cast<size_t>(kRowsPerMarker))
          << "acked marker " << marker << " lost rows";
    }
  }
  KillServerAndReap(second);
  std::filesystem::remove_all(dir);
#endif
}

}  // namespace
}  // namespace hyrise_nv::net
