// Experiment E5 — where recovery time goes. Log-based recovery splits
// into checkpoint load + log replay + index rebuild (each scales with
// data); instant restart splits into map + in-flight fixup + volatile
// attach (none scale with data). All numbers come from the recovery
// span trace the engine records (RecoveryReport::trace), not from
// stopwatches in this benchmark. `open_persists` counts the persist
// calls the open made: a log open builds a fresh heap, so that count is
// exact for a given log (the open runs on one thread).

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "obs/trace.h"
#include "workload/enterprise.h"

using namespace hyrise_nv;  // NOLINT: benchmark brevity

namespace {

struct Recovered {
  std::unique_ptr<core::Database> db;
  uint64_t open_persists = 0;
};

Recovered BuildAndCrash(core::DurabilityMode mode, uint64_t rows,
                        const std::string& dir, bool with_checkpoint) {
  auto options = bench::EngineOptions(mode, dir, size_t{512} << 20);
  auto db = bench::Unwrap(core::Database::Create(options), "create");
  workload::EnterpriseConfig config;
  const uint64_t first_half = with_checkpoint ? rows / 2 : rows;
  (void)bench::Unwrap(workload::LoadEnterpriseTable(db.get(), "enterprise",
                                                    first_half, config),
                      "load");
  bench::Die(db->CreateIndex("enterprise", 0), "index");
  if (with_checkpoint) {
    bench::Die(db->Checkpoint(), "checkpoint");
    // Second half lands in the log tail only. Its strings come from a
    // seed of their own, so replaying the tail adds dictionary values
    // the checkpoint lacks.
    storage::Table* table =
        bench::Unwrap(db->GetTable("enterprise"), "table");
    const storage::Schema& schema = table->schema();
    Rng tail_rng(config.seed + 17);
    auto tx = bench::Unwrap(db->Begin(), "begin");
    for (uint64_t r = first_half; r < rows; ++r) {
      std::vector<storage::Value> row = table->GetRow({false, 0});
      for (size_t c = 0; c < row.size(); ++c) {
        if (schema.column(c).type == storage::DataType::kString) {
          row[c] = tail_rng.NextString(config.string_length);
        }
      }
      auto insert = db->Insert(tx, table, row);
      bench::Die(insert.status(), "tail insert");
      if ((r + 1) % 1024 == 0) {
        bench::Die(db->Commit(tx), "tail commit");
        tx = bench::Unwrap(db->Begin(), "begin");
      }
    }
    bench::Die(db->Commit(tx), "tail commit");
  }
  // An NVM restart keeps its heap; a log open starts a fresh one.
  const uint64_t before = mode == core::DurabilityMode::kNvm
                              ? db->nvm_stats().persist_calls.load()
                              : 0;
  Recovered recovered;
  recovered.db = bench::Unwrap(
      core::Database::CrashAndRecover(std::move(db)), "recover");
  recovered.open_persists =
      recovered.db->nvm_stats().persist_calls.load() - before;
  return recovered;
}

/// Seconds of a named span in the recovery trace (0 when the phase did
/// not run, e.g. checkpoint_load without a checkpoint).
double Phase(const obs::SpanNode& trace, const char* name) {
  const obs::SpanNode* span = trace.Find(name);
  return span != nullptr ? span->seconds : 0;
}

void PrintJson(const char* config, const Recovered& recovered) {
  const obs::SpanNode& trace = recovered.db->last_recovery_report().trace;
  std::printf(
      "BENCH_JSON {\"bench\":\"e5\",\"config\":\"%s\","
      "\"total_ms\":%.3f,\"checkpoint_load_ms\":%.3f,\"replay_ms\":%.3f,"
      "\"index_rebuild_ms\":%.3f,\"map_ms\":%.3f,\"fixup_ms\":%.3f,"
      "\"attach_ms\":%.3f,\"replayed_records\":%llu,"
      "\"open_persists\":%llu}\n",
      config, trace.seconds * 1e3, Phase(trace, "checkpoint_load") * 1e3,
      Phase(trace, "replay") * 1e3, Phase(trace, "index_rebuild") * 1e3,
      Phase(trace, "map") * 1e3, Phase(trace, "fixup") * 1e3,
      Phase(trace, "attach") * 1e3,
      static_cast<unsigned long long>(
          recovered.db->last_recovery_report().log.replayed_records),
      static_cast<unsigned long long>(recovered.open_persists));
}

}  // namespace

int main() {
  const uint64_t rows = bench::Scaled(20000);
  std::printf("E5 — recovery phase breakdown, %llu-row dataset\n\n",
              static_cast<unsigned long long>(rows));

  // Log engine, checkpoint + tail replay.
  {
    const std::string dir = bench::MakeBenchDir("e5");
    const Recovered recovered =
        BuildAndCrash(core::DurabilityMode::kWalValue, rows, dir,
                      /*with_checkpoint=*/true);
    const auto& report = recovered.db->last_recovery_report();
    std::printf("log-based (checkpoint at 50%% of data), %llu records "
                "replayed:\n%s",
                static_cast<unsigned long long>(
                    report.log.replayed_records),
                report.trace.Render().c_str());
    PrintJson("wal-checkpoint", recovered);
    bench::RemoveBenchDir(dir);
  }

  // Log engine without a checkpoint (pure replay).
  {
    const std::string dir = bench::MakeBenchDir("e5");
    const Recovered recovered =
        BuildAndCrash(core::DurabilityMode::kWalValue, rows, dir,
                      /*with_checkpoint=*/false);
    const auto& report = recovered.db->last_recovery_report();
    std::printf("\nlog-based (no checkpoint, full replay), %llu records "
                "replayed:\n%s",
                static_cast<unsigned long long>(
                    report.log.replayed_records),
                report.trace.Render().c_str());
    PrintJson("wal-full-replay", recovered);
    bench::RemoveBenchDir(dir);
  }

  // Instant restart.
  {
    const std::string dir = bench::MakeBenchDir("e5");
    const Recovered recovered =
        BuildAndCrash(core::DurabilityMode::kNvm, rows, dir,
                      /*with_checkpoint=*/false);
    std::printf("\nhyrise-nv (instant restart):\n%s",
                recovered.db->last_recovery_report().trace.Render().c_str());
    PrintJson("nvm-instant-restart", recovered);
    bench::RemoveBenchDir(dir);
  }

  std::printf("\npaper shape check: every log-recovery phase scales with "
              "data; every instant-restart phase is constant or "
              "delta-bounded\n");
  return 0;
}
