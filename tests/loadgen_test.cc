// Open-loop load generator tests: the zipfian key distribution, the
// fixed-arrival schedule's coordinated-omission accounting (driven by a
// fake clock — a server stall must charge queued operations their full
// wait), and a short end-to-end run against an in-process server.

#include "net/loadgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "nvm/nvm_env.h"
#include "workload/open_loop.h"
#include "workload/zipf.h"

namespace hyrise_nv {
namespace {

using workload::OpenLoopSchedule;
using workload::ZipfGenerator;

// --- Zipfian distribution --------------------------------------------------

TEST(ZipfGeneratorTest, KeysStayInRange) {
  ZipfGenerator zipf(1'000, 0.99, 7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(zipf.Next(), 1'000u);
  }
}

TEST(ZipfGeneratorTest, FrequencyFollowsPowerLawSlope) {
  // Under Zipf(theta) the frequency of the rank-r key is ∝ 1/r^theta, so
  // log(freq) against log(rank) is a line of slope -theta. Estimate the
  // slope by least squares over the top ranks (populous, low-variance)
  // and check it lands near -0.99.
  constexpr uint64_t kKeys = 10'000;
  constexpr double kTheta = 0.99;
  constexpr int kSamples = 400'000;
  ZipfGenerator zipf(kKeys, kTheta, 1234);
  std::map<uint64_t, uint64_t> counts;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.Next()];

  std::vector<uint64_t> by_rank;
  for (const auto& [key, count] : counts) by_rank.push_back(count);
  std::sort(by_rank.rbegin(), by_rank.rend());

  constexpr size_t kRanks = 50;
  ASSERT_GE(by_rank.size(), kRanks);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t r = 0; r < kRanks; ++r) {
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(static_cast<double>(by_rank[r]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(kRanks);
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(slope, -kTheta, 0.15) << "log-log slope " << slope;

  // Skew sanity: the hottest key dwarfs the uniform share.
  EXPECT_GT(by_rank.front(), (kSamples / kKeys) * 20);
}

// --- Open-loop schedule ----------------------------------------------------

TEST(OpenLoopScheduleTest, IntendedTimesAreExactAtRoundRates) {
  const OpenLoopSchedule schedule(1'000, 100);  // 1ms apart
  EXPECT_EQ(schedule.IntendedNs(0), 0u);
  EXPECT_EQ(schedule.IntendedNs(1), 1'000'000u);
  EXPECT_EQ(schedule.IntendedNs(50), 50'000'000u);
  EXPECT_EQ(schedule.total_ops(), 100u);
}

TEST(OpenLoopScheduleTest, DueCountTracksTheClock) {
  const OpenLoopSchedule schedule(1'000, 100);
  EXPECT_EQ(schedule.DueCount(0), 1u);          // op 0 due at t=0
  EXPECT_EQ(schedule.DueCount(999'999), 1u);    // op 1 not yet
  EXPECT_EQ(schedule.DueCount(1'000'000), 2u);
  EXPECT_EQ(schedule.DueCount(5'500'000), 6u);
  EXPECT_EQ(schedule.DueCount(10'000'000'000u), 100u);  // capped
}

TEST(OpenLoopScheduleTest, NoDriftOverLongSchedules) {
  // Intended times are computed, not accumulated: op 10^7 at 7777 rps
  // lands within one ns of the closed form.
  const double rate = 7'777;
  const OpenLoopSchedule schedule(rate, 20'000'000);
  const uint64_t i = 10'000'000;
  const double exact = static_cast<double>(i) * 1e9 / rate;
  EXPECT_NEAR(static_cast<double>(schedule.IntendedNs(i)), exact, 1.0);
}

TEST(OpenLoopScheduleTest, StallChargesQueuedOperationsTheirFullWait) {
  // Fake-clock reenactment of the coordinated-omission scenario: ops due
  // every 1ms, the "server" answers instantly until it stalls for 50ms,
  // then drains the queue. Every operation that came due during the
  // stall must be charged from its *intended* time — the measured
  // latencies must rise linearly through the stall window, not report
  // ~0 as a closed-loop harness would.
  const OpenLoopSchedule schedule(1'000, 100);
  const uint64_t stall_start_ns = 10'000'000;   // op 10 hits the stall
  const uint64_t stall_end_ns = 60'000'000;     // 50ms later
  std::vector<uint64_t> latency_ns(100);
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t intended = schedule.IntendedNs(i);
    uint64_t completion;
    if (intended < stall_start_ns) {
      completion = intended + 100'000;  // healthy: 100us service
    } else if (intended < stall_end_ns) {
      // Queued behind the stall; the drain is instantaneous at the end.
      completion = stall_end_ns;
    } else {
      completion = intended + 100'000;
    }
    latency_ns[i] = OpenLoopSchedule::LatencyNs(intended, completion);
  }
  EXPECT_EQ(latency_ns[5], 100'000u);
  // Op 10 (due exactly at the stall start) waits the whole stall.
  EXPECT_EQ(latency_ns[10], 50'000'000u);
  // Later arrivals wait progressively less — linear decay, never zero.
  EXPECT_EQ(latency_ns[30], 30'000'000u);
  EXPECT_EQ(latency_ns[59], 1'000'000u);
  EXPECT_EQ(latency_ns[60], 100'000u);  // first op after the stall
  // The stall is visible in the tail: ~half the stalled ops saw > 25ms.
  const auto over_25ms =
      std::count_if(latency_ns.begin(), latency_ns.end(),
                    [](uint64_t v) { return v > 25'000'000; });
  EXPECT_EQ(over_25ms, 25);
}

TEST(OpenLoopScheduleTest, LatencySaturatesAtZero) {
  EXPECT_EQ(OpenLoopSchedule::LatencyNs(5'000, 4'000), 0u);
  EXPECT_EQ(OpenLoopSchedule::LatencyNs(5'000, 5'000), 0u);
}

// --- End-to-end ------------------------------------------------------------

TEST(LoadgenEndToEndTest, ShortRunAgainstInProcessServer) {
  const std::string dir = nvm::TempPath("loadgen_e2e");
  std::filesystem::create_directories(dir);
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  options.tracking = nvm::TrackingMode::kNone;
  auto db_result = core::Database::Create(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(*db_result);
  net::ServerOptions server_options;
  server_options.num_workers = 2;
  auto server_result = net::Server::Start(db.get(), server_options);
  ASSERT_TRUE(server_result.ok()) << server_result.status().ToString();
  auto server = std::move(*server_result);

  {
    net::ClientOptions client_options;
    client_options.port = server->port();
    net::Client client(client_options);
    ASSERT_TRUE(client.Connect().ok());
    auto id = client.CreateTable("kv", {{"k", storage::DataType::kInt64},
                                        {"v", storage::DataType::kString}});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(client.CreateIndex("kv", 0).ok());
    ASSERT_TRUE(client.Begin().ok());
    for (int64_t key = 0; key < 100; ++key) {
      ASSERT_TRUE(
          client.Insert("kv", {storage::Value(key),
                               storage::Value(std::string("v"))})
              .ok());
    }
    ASSERT_TRUE(client.Commit().ok());
  }

  // Every wire path the generator has: v2 one-op kDmlBatch writes at
  // depth 1 and pipelined at depth 4, and v1 begin/insert/commit.
  for (const auto& [protocol_max, depth] :
       {std::pair<uint16_t, int>{2, 1}, std::pair<uint16_t, int>{2, 4},
        std::pair<uint16_t, int>{1, 1}}) {
    SCOPED_TRACE("protocol " + std::to_string(protocol_max) + " depth " +
                 std::to_string(depth));
    net::LoadgenOptions load;
    load.port = server->port();
    load.connections = 8;
    load.rate_rps = 500;
    load.duration_s = 1.0;
    load.warmup_s = 0.2;
    load.keys = 100;
    load.timeline = true;
    load.protocol_max = protocol_max;
    load.pipeline_depth = depth;
    auto report_result = net::RunOpenLoopLoad(load);
    ASSERT_TRUE(report_result.ok()) << report_result.status().ToString();
    const net::LoadgenReport& report = *report_result;

    EXPECT_EQ(report.protocol_errors, 0u);
    EXPECT_EQ(report.errors, 0u);
    EXPECT_EQ(report.abandoned, 0u);
    EXPECT_GT(report.ops_completed, 0u);
    EXPECT_GT(report.p50_us, 0.0);
    EXPECT_GE(report.p99_us, report.p50_us);
    EXPECT_GE(report.p999_us, report.p99_us);
    EXPECT_GE(report.max_us, report.p999_us);
    EXPECT_FALSE(report.timeline.empty());
  }

  server->Drain();
  server->Wait();
  server.reset();
  ASSERT_TRUE(db->Close().ok());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(LoadgenOptionsTest, RejectsNonsense) {
  net::LoadgenOptions options;
  options.port = 1;
  options.connections = 0;
  EXPECT_FALSE(net::RunOpenLoopLoad(options).ok());
  options.connections = 1;
  options.rate_rps = 0;
  EXPECT_FALSE(net::RunOpenLoopLoad(options).ok());
}

}  // namespace
}  // namespace hyrise_nv
