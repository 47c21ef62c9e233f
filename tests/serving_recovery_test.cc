// Serve-during-recovery under real SIGKILL, end to end through the wire
// protocol (DESIGN.md §13): a forked server is killed mid-load, restarted
// with on-demand recovery, queried while degraded, killed AGAIN before
// the background index build ran, and restarted once more. The oracle is
// snapshot atomicity: every transaction commits 5 rows under one tag, so
// after any number of crashes every visible tag must have exactly 0 or 5
// rows — and every tag whose commit was acked must have exactly 5.
//
// Forked with live threads, so skipped under TSan; the same build/crash
// interleavings run in-process (TSan-clean) in on_demand_recovery_test.cc.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
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

#if defined(__SANITIZE_THREAD__)
#define HYRISE_NV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYRISE_NV_TSAN 1
#endif
#endif

namespace hyrise_nv::core {
namespace {

using storage::DataType;
using storage::Value;

constexpr int kRowsPerTag = 5;

uint16_t PickPort() {
  auto listener = net::CreateListener("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok());
  auto port = net::LocalPort(listener->get());
  EXPECT_TRUE(port.ok());
  return *port;
}

/// Child body: open (or create) the database, serve on `port`, touch
/// `marker` once accepting, run until killed (or drained).
[[noreturn]] void ServeChild(DatabaseOptions db_options, uint16_t port,
                             bool create, const std::string& marker) {
  auto db_result =
      create ? Database::Create(db_options) : Database::Open(db_options);
  if (!db_result.ok()) ::_exit(2);
  auto db = std::move(db_result).ValueUnsafe();
  net::ServerOptions server_options;
  server_options.port = port;
  server_options.num_workers = 2;
  auto server_result = net::Server::Start(db.get(), server_options);
  if (!server_result.ok()) ::_exit(3);
  if (::creat(marker.c_str(), 0644) < 0) ::_exit(4);
  (*server_result)->Wait();
  server_result->reset();
  (void)db->Close();
  ::_exit(0);
}

pid_t SpawnServer(const DatabaseOptions& db_options, uint16_t port,
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

void KillServer(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
}

/// One tagged transaction: kRowsPerTag rows sharing the tag in column 0.
/// Returns true only when the commit was acked.
bool LoadTag(net::Client& client, int64_t tag) {
  if (!client.Begin().ok()) return false;
  for (int i = 0; i < kRowsPerTag; ++i) {
    if (!client
             .Insert("tags", {Value(tag), Value(std::string("r") +
                                                std::to_string(i))})
             .ok()) {
      return false;
    }
  }
  return client.Commit().ok();
}

TEST(ServingRecoveryTest, DoubleKillNineWhileServingDegraded) {
#ifdef HYRISE_NV_TSAN
  GTEST_SKIP() << "fork with threads is unsupported under TSan";
#else
  const std::string dir =
      "/tmp/hyrise-nv-serving-rec-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DatabaseOptions db_options;
  db_options.mode = DurabilityMode::kWalValue;
  db_options.region_size = 128 << 20;
  db_options.data_dir = dir;
  const uint16_t port = PickPort();

  // --- Server 1: eager create; parent loads until SIGKILL mid-load. ---
  const pid_t first = SpawnServer(db_options, port, /*create=*/true,
                                  dir + "/ready1");

  net::ClientOptions client_options;
  client_options.port = port;
  client_options.max_retries = 3;
  client_options.auto_reconnect = false;
  net::Client load_client(client_options);
  ASSERT_TRUE(load_client.Connect().ok());
  ASSERT_TRUE(load_client
                  .CreateTable("tags", {{"tag", DataType::kInt64},
                                        {"r", DataType::kString}})
                  .ok());
  ASSERT_TRUE(load_client.CreateIndex("tags", 0).ok());

  std::thread killer([first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ::kill(first, SIGKILL);
  });
  std::set<int64_t> acked;
  for (int64_t tag = 0;; ++tag) {
    if (!LoadTag(load_client, tag)) break;  // server died mid-txn
    acked.insert(tag);
  }
  killer.join();
  int wstatus = 0;
  ASSERT_EQ(::waitpid(first, &wstatus, 0), first);
  ASSERT_GT(acked.size(), 10u) << "load barely started before the kill";

  // --- Server 2: on-demand restart with a delayed index build; query ---
  // --- while degraded, then SIGKILL again before the build ran.      ---
  db_options.log_recovery = LogRecoveryPolicy::kServeOnDemand;
  db_options.drain_pause_us = 2'000'000;
  const pid_t second = SpawnServer(db_options, port, /*create=*/false,
                                   dir + "/ready2");

  net::ClientOptions retry_options = client_options;
  retry_options.max_retries = 100;
  retry_options.auto_reconnect = true;
  net::Client degraded_client(retry_options);
  ASSERT_TRUE(degraded_client.Connect().ok());
  auto info = degraded_client.RecoveryInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_NE(info->find("\"serving_state\":\"degraded\""), std::string::npos)
      << *info;
  // First query lands while degraded: an index-free scan.
  const int64_t probe = *acked.begin();
  auto probe_scan = degraded_client.ScanEqual("tags", 0, Value(probe));
  ASSERT_TRUE(probe_scan.ok()) << probe_scan.status().ToString();
  EXPECT_EQ(probe_scan->rows.size(), static_cast<size_t>(kRowsPerTag));
  // Nested crash: no clean shutdown, index build still pending.
  KillServer(second);

  // --- Server 3: recover from the double crash, audit the oracle. ---
  const pid_t third = SpawnServer(db_options, port, /*create=*/false,
                                  dir + "/ready3");
  net::Client audit_client(retry_options);
  ASSERT_TRUE(audit_client.Connect().ok());
  ASSERT_TRUE(audit_client.WaitUntilReady(/*timeout_ms=*/120'000).ok());

  // Snapshot atomicity: acked tags are complete; the (at most one)
  // unacked in-flight tag either fully committed or fully vanished.
  const int64_t max_tag = *acked.rbegin() + 1;
  for (int64_t tag = 0; tag <= max_tag; ++tag) {
    auto rows = audit_client.ScanEqual("tags", 0, Value(tag));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    if (acked.count(tag) > 0) {
      EXPECT_EQ(rows->rows.size(), static_cast<size_t>(kRowsPerTag))
          << "acked tag " << tag << " lost rows across the double crash";
    } else {
      EXPECT_TRUE(rows->rows.empty() ||
                  rows->rows.size() == static_cast<size_t>(kRowsPerTag))
          << "torn commit for tag " << tag << ": " << rows->rows.size();
    }
  }
  auto count = audit_client.Count("tags");
  ASSERT_TRUE(count.ok());
  EXPECT_GE(*count, acked.size() * kRowsPerTag);

  // Still writable after all that.
  EXPECT_TRUE(LoadTag(audit_client, max_tag + 1));

  ASSERT_TRUE(audit_client.Drain().ok());
  ASSERT_EQ(::waitpid(third, &wstatus, 0), third);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "third server failed clean shutdown: " << wstatus;
  std::filesystem::remove_all(dir);
#endif
}

}  // namespace
}  // namespace hyrise_nv::core
