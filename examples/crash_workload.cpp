// Crash-forensics workload: runs a multi-threaded insert/update mix on
// an NVM-backed database with the full observability stack switched on
// (flight recorder, sampled transaction tracing, timeline recorder, crash
// handler) until it is killed or a duration elapses.
//
// Intended use (also what CI's crash-forensics smoke does):
//
//   ./example_crash_workload /tmp/fdb 30 4 &   # dir, seconds, threads
//   sleep 3 && kill -9 $!
//   ./dbinspect blackbox /tmp/fdb              # decode the last seconds
//
// The recorder lives inside the image (MAP_SHARED), so a SIGKILL loses
// nothing: the decoded timeline shows exactly what every thread was
// doing when the process died.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"

using namespace hyrise_nv;  // NOLINT: example brevity

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <data-dir> [seconds=30] [threads=4]\n",
                 argv[0]);
    return 1;
  }
  const std::string dir = argv[1];
  const double seconds = argc > 2 ? std::atof(argv[2]) : 30.0;
  unsigned threads = argc > 3
                         ? static_cast<unsigned>(std::atoi(argv[3]))
                         : 4;
  if (threads == 0) threads = 1;
  if (threads > 8) threads = 8;
  std::filesystem::create_directories(dir);

  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = size_t{128} << 20;
  options.data_dir = dir;
  // File-backed region: kill -9 forensics needs the real MAP_SHARED
  // page-cache durability, not the shadow simulation.
  options.tracking = nvm::TrackingMode::kNone;
  options.txn_sample_every = 64;
  // Each timeline tick also flushes the flight recorder.
  options.enable_timeline = true;
  options.timeline_interval_ms = 250;
  options.install_crash_handler = true;

  auto db_result = core::Database::Create(options);
  if (!db_result.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_result).ValueUnsafe();

  auto schema =
      *storage::Schema::Make({{"id", storage::DataType::kInt64},
                              {"payload", storage::DataType::kString}});
  storage::Table* table = *db->CreateTable("events", schema);

  std::printf("crash_workload: pid %d, %u threads, %.0fs — kill -9 me "
              "and run 'dbinspect blackbox %s'\n",
              static_cast<int>(::getpid()), threads, seconds,
              dir.c_str());
  std::fflush(stdout);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1234 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        auto tx_result = db->Begin();
        if (!tx_result.ok()) break;
        auto tx = std::move(tx_result).ValueUnsafe();
        const int64_t key =
            static_cast<int64_t>(rng.Uniform(1'000'000));
        auto insert = db->Insert(
            tx, table,
            {storage::Value(key), storage::Value(rng.NextString(48))});
        if (!insert.ok()) {
          (void)db->Abort(tx);
          continue;
        }
        if (db->Commit(tx).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();

  std::printf("crash_workload: clean finish, %llu commits\n",
              static_cast<unsigned long long>(committed.load()));
  std::printf("timeline: %s\n", db->TimelineJson().c_str());
  return db->Close().ok() ? 0 : 1;
}
