// Experiment E1 — recovery time vs dataset size (the paper's headline
// figure: 92.2 GB took ~53 s with log-based recovery, <1 s with
// Hyrise-NV). Reproduces the *shape*: log-based recovery grows linearly
// with the dataset, instant restart stays flat.
//
// A second sweep restarts an unmerged delta of distinct values in the
// kv row shape of the repository benchmark (int64 key with a hash index,
// 16-byte string): every row adds an entry to both delta dictionaries,
// so a restart that rebuilt dictionary state would grow with it.
//
//   ./bench_e1_recovery_scaling            # CI-sized sweep
//   HYRISE_NV_SCALE=10 ./bench_e1_...      # bigger datasets

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/query.h"
#include "storage/schema.h"
#include "workload/enterprise.h"

using namespace hyrise_nv;  // NOLINT: benchmark brevity

namespace {

struct Sample {
  uint64_t rows;
  double data_mb;
  double seconds;
};

Sample MeasureRecovery(core::DurabilityMode mode, uint64_t rows) {
  const std::string dir = bench::MakeBenchDir("e1");
  auto options = bench::EngineOptions(
      mode, dir, std::max<size_t>(size_t{256} << 20, rows * 256));
  auto db = bench::Unwrap(core::Database::Create(options), "create");

  workload::EnterpriseConfig config;
  (void)bench::Unwrap(
      workload::LoadEnterpriseTable(db.get(), "enterprise", rows, config),
      "load");
  bench::Die(db->CreateIndex("enterprise", 0), "index");

  auto recovered = bench::Unwrap(
      core::Database::CrashAndRecover(std::move(db)), "recover");
  Sample sample;
  sample.rows = rows;
  sample.data_mb =
      rows * workload::EnterpriseRowBytes(config) / (1024.0 * 1024.0);
  sample.seconds = recovered->last_recovery_report().total_seconds;

  // Sanity: the recovered database must hold every committed row.
  const uint64_t back =
      core::CountRows(*recovered->GetTable("enterprise"),
                      recovered->ReadSnapshot(), storage::kTidNone);
  if (back != rows) {
    std::fprintf(stderr, "E1: lost rows (%llu of %llu)\n",
                 static_cast<unsigned long long>(back),
                 static_cast<unsigned long long>(rows));
    std::exit(1);
  }
  bench::RemoveBenchDir(dir);
  return sample;
}

/// NVM restart of `rows` unmerged kv rows with distinct values.
Sample MeasureDeltaRestart(uint64_t rows) {
  const std::string dir = bench::MakeBenchDir("e1_delta");
  auto options = bench::EngineOptions(
      core::DurabilityMode::kNvm, dir,
      std::max<size_t>(size_t{256} << 20, rows * 512));
  auto db = bench::Unwrap(core::Database::Create(options), "create");
  auto schema = bench::Unwrap(
      storage::Schema::Make({{"k", storage::DataType::kInt64},
                             {"v", storage::DataType::kString}}),
      "schema");
  storage::Table* table = bench::Unwrap(db->CreateTable("kv", schema), "table");
  bench::Die(db->CreateIndex("kv", 0), "index");
  char value[24];  // "v" + 15 digits: 16 bytes for any k below 10^15
  for (uint64_t k = 0; k < rows;) {
    auto tx = bench::Unwrap(db->Begin(), "begin");
    for (int j = 0; j < 1000 && k < rows; ++j, ++k) {
      std::snprintf(value, sizeof(value), "v%015llu",
                    static_cast<unsigned long long>(k));
      bench::Die(db->Insert(tx, table,
                            {storage::Value(static_cast<int64_t>(k)),
                             storage::Value(std::string(value))})
                     .status(),
                 "insert");
    }
    bench::Die(db->Commit(tx), "commit");
  }

  auto recovered = bench::Unwrap(
      core::Database::CrashAndRecover(std::move(db)), "recover");
  Sample sample;
  sample.rows = rows;
  sample.data_mb = rows * 24 / (1024.0 * 1024.0);
  sample.seconds = recovered->last_recovery_report().total_seconds;

  storage::Table* back = *recovered->GetTable("kv");
  const uint64_t count =
      core::CountRows(back, recovered->ReadSnapshot(), storage::kTidNone);
  auto probe = recovered->ScanEqual(back, 0,
                                    storage::Value(static_cast<int64_t>(rows / 2)),
                                    recovered->ReadSnapshot(),
                                    storage::kTidNone);
  if (count != rows || !probe.ok() || probe->size() != 1) {
    std::fprintf(stderr, "E1 delta: lost rows (%llu of %llu)\n",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(rows));
    std::exit(1);
  }
  bench::RemoveBenchDir(dir);
  return sample;
}

double FitSlopeUsPerRow(const std::vector<Sample>& samples) {
  // Least-squares slope of seconds over rows, reported in µs/row.
  double n = samples.size(), sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& s : samples) {
    const double x = static_cast<double>(s.rows);
    sx += x;
    sy += s.seconds;
    sxx += x * x;
    sxy += x * s.seconds;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx) * 1e6;
}

}  // namespace

int main() {
  std::vector<uint64_t> row_counts;
  for (uint64_t base : {2000, 5000, 10000, 20000, 40000}) {
    row_counts.push_back(bench::Scaled(base));
  }

  std::printf("E1 — recovery time vs dataset size\n");
  std::printf("%10s %9s %14s %14s %12s\n", "rows", "data[MB]",
              "wal-value[s]", "wal-dict[s]", "nvm[s]");

  std::vector<Sample> wal_value, wal_dict, nvm;
  for (const uint64_t rows : row_counts) {
    wal_value.push_back(
        MeasureRecovery(core::DurabilityMode::kWalValue, rows));
    wal_dict.push_back(
        MeasureRecovery(core::DurabilityMode::kWalDict, rows));
    nvm.push_back(MeasureRecovery(core::DurabilityMode::kNvm, rows));
    std::printf("%10llu %9.1f %14.4f %14.4f %12.4f\n",
                static_cast<unsigned long long>(rows),
                wal_value.back().data_mb, wal_value.back().seconds,
                wal_dict.back().seconds, nvm.back().seconds);
    std::printf(
        "BENCH_JSON {\"bench\":\"e1\",\"rows\":%llu,\"data_mb\":%.1f,"
        "\"wal_value_s\":%.4f,\"wal_dict_s\":%.4f,\"nvm_s\":%.4f}\n",
        static_cast<unsigned long long>(rows), wal_value.back().data_mb,
        wal_value.back().seconds, wal_dict.back().seconds,
        nvm.back().seconds);
  }

  std::printf("\nfitted growth [µs per row]: wal-value %.2f, wal-dict "
              "%.2f, nvm %.4f\n",
              FitSlopeUsPerRow(wal_value), FitSlopeUsPerRow(wal_dict),
              FitSlopeUsPerRow(nvm));
  std::printf("paper shape check: log-based grows linearly, instant "
              "restart is flat (ratio at largest size: %.0fx)\n",
              wal_value.back().seconds /
                  std::max(nvm.back().seconds, 1e-9));

  std::printf("\nE1 — NVM restart vs unmerged delta rows (kv shape, "
              "distinct values)\n");
  std::printf("%10s %9s %12s\n", "rows", "data[MB]", "nvm[s]");
  std::vector<Sample> delta;
  for (uint64_t base : {25000, 50000, 100000, 150000, 200000}) {
    delta.push_back(MeasureDeltaRestart(bench::Scaled(base)));
    std::printf("%10llu %9.1f %12.4f\n",
                static_cast<unsigned long long>(delta.back().rows),
                delta.back().data_mb, delta.back().seconds);
    std::printf("BENCH_JSON {\"bench\":\"e1_delta\",\"rows\":%llu,"
                "\"nvm_s\":%.4f}\n",
                static_cast<unsigned long long>(delta.back().rows),
                delta.back().seconds);
  }
  const double delta_slope = FitSlopeUsPerRow(delta);
  std::printf("fitted growth, unmerged delta [µs per row]: nvm %.4f\n",
              delta_slope);
  std::printf("BENCH_JSON {\"bench\":\"e1_delta_fit\","
              "\"nvm_us_per_row\":%.4f}\n",
              delta_slope);
  return 0;
}
