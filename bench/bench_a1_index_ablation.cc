// Ablation A1 — index structures (design choices from DESIGN.md §4.3):
// point-lookup and range-scan cost with no index, the persistent hash
// index, and the persistent skip list, over main-resident and
// delta-resident data; then hash point lookups over a growing unmerged
// delta, one BENCH_JSON line per size.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/query.h"

using namespace hyrise_nv;  // NOLINT: benchmark brevity

namespace {

enum class IndexChoice { kNone, kHash, kSkipList };

const char* ChoiceName(IndexChoice choice) {
  switch (choice) {
    case IndexChoice::kNone:
      return "no index";
    case IndexChoice::kHash:
      return "hash";
    case IndexChoice::kSkipList:
      return "skip list";
  }
  return "?";
}

struct Sample {
  double point_us;
  double range_us;  // <0: not supported by this configuration
};

/// A kv table of `rows` distinct keys 0..rows-1 with `choice` on the key,
/// committed 1024 rows per transaction and left unmerged.
std::unique_ptr<core::Database> LoadKv(IndexChoice choice, uint64_t rows,
                                       Rng& rng, storage::Table** table) {
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = size_t{512} << 20;
  options.tracking = nvm::TrackingMode::kNone;
  options.nvm_latency = nvm::NvmLatencyModel::DefaultNvm();
  auto db = bench::Unwrap(core::Database::Create(options), "create");
  auto schema = *storage::Schema::Make({{"k", storage::DataType::kInt64},
                                        {"v", storage::DataType::kString}});
  *table = bench::Unwrap(db->CreateTable("kv", schema), "table");
  if (choice == IndexChoice::kHash) {
    bench::Die(db->CreateIndex("kv", 0), "index");
  } else if (choice == IndexChoice::kSkipList) {
    bench::Die(db->CreateOrderedIndex("kv", 0), "index");
  }
  auto tx = bench::Unwrap(db->Begin(), "begin");
  for (uint64_t k = 0; k < rows; ++k) {
    bench::Die(db->Insert(*&tx, *table,
                          {storage::Value(static_cast<int64_t>(k)),
                           storage::Value(rng.NextString(16))})
                   .status(),
               "insert");
    if ((k + 1) % 1024 == 0) {
      bench::Die(db->Commit(tx), "commit");
      tx = bench::Unwrap(db->Begin(), "begin");
    }
  }
  bench::Die(db->Commit(tx), "commit");
  return db;
}

Sample Run(IndexChoice choice, uint64_t rows, bool merged,
           uint64_t lookups) {
  Rng rng(7);
  storage::Table* table = nullptr;
  auto db = LoadKv(choice, rows, rng, &table);
  if (merged) {
    bench::Die(db->Merge("kv").status(), "merge");
  }

  const storage::Cid snapshot = db->ReadSnapshot();
  Sample sample;
  {
    Stopwatch timer;
    uint64_t hits = 0;
    for (uint64_t i = 0; i < lookups; ++i) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(rows));
      auto result = db->ScanEqual(table, 0, storage::Value(key), snapshot,
                                  storage::kTidNone);
      bench::Die(result.status(), "scan");
      hits += result->size();
    }
    sample.point_us = timer.ElapsedMicros() / lookups;
    if (hits != lookups) {
      std::fprintf(stderr, "A1: lookup miss\n");
      std::exit(1);
    }
  }
  {
    Stopwatch timer;
    const uint64_t span = 100;
    for (uint64_t i = 0; i < lookups / 10 + 1; ++i) {
      const int64_t lo = static_cast<int64_t>(rng.Uniform(rows - span));
      auto result = core::ScanRange(
          table, 0, storage::Value(lo),
          storage::Value(lo + static_cast<int64_t>(span) - 1), snapshot,
          storage::kTidNone, db->indexes(table));
      bench::Die(result.status(), "range");
    }
    sample.range_us = timer.ElapsedMicros() / (lookups / 10 + 1);
  }
  return sample;
}

/// Per-lookup median over batches of hash point lookups with uniform keys
/// over an unmerged delta of `rows` rows, timed after one warm-up pass.
/// Timing a batch, not a call, keeps the clock reads out of the figure.
double DeltaPointP50Us(uint64_t rows, uint64_t lookups) {
  constexpr uint64_t kBatch = 100;
  Rng rng(11);
  storage::Table* table = nullptr;
  auto db = LoadKv(IndexChoice::kHash, rows, rng, &table);
  const storage::Cid snapshot = db->ReadSnapshot();
  std::vector<double> micros;
  micros.reserve(lookups / kBatch);
  for (int pass = 0; pass < 2; ++pass) {
    micros.clear();
    for (uint64_t batch = 0; batch < lookups / kBatch; ++batch) {
      uint64_t hits = 0;
      Stopwatch timer;
      for (uint64_t i = 0; i < kBatch; ++i) {
        const int64_t key = static_cast<int64_t>(rng.Uniform(rows));
        auto result = db->ScanEqual(table, 0, storage::Value(key), snapshot,
                                    storage::kTidNone);
        bench::Die(result.status(), "scan");
        hits += result->size();
      }
      micros.push_back(timer.ElapsedMicros() / kBatch);
      if (hits != kBatch) {
        std::fprintf(stderr, "A1: %llu lookups of present keys found %llu "
                     "rows\n", static_cast<unsigned long long>(kBatch),
                     static_cast<unsigned long long>(hits));
        std::exit(1);
      }
    }
  }
  std::nth_element(micros.begin(), micros.begin() + micros.size() / 2,
                   micros.end());
  return micros[micros.size() / 2];
}

}  // namespace

int main() {
  const uint64_t rows = bench::Scaled(20000);
  const uint64_t lookups = bench::Scaled(2000);
  std::printf("A1 — index ablation: lookup cost by index structure "
              "(%llu rows, %llu lookups)\n\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(lookups));
  for (const bool merged : {false, true}) {
    std::printf("%s data:\n", merged ? "main-resident (merged)"
                                     : "delta-resident (unmerged)");
    std::printf("  %-12s %14s %16s\n", "index", "point [µs]",
                "range-100 [µs]");
    for (const auto choice : {IndexChoice::kNone, IndexChoice::kHash,
                              IndexChoice::kSkipList}) {
      const Sample sample = Run(choice, rows, merged, lookups);
      std::printf("  %-12s %14.2f %16.2f\n", ChoiceName(choice),
                  sample.point_us, sample.range_us);
    }
    std::printf("\n");
  }
  std::printf("notes: point lookups on merged data use the group-key CSR "
              "for any index kind; the skip list additionally serves "
              "delta-side ranges that otherwise fall back to scans\n");

  // The delta hash index chains rows by value id, so a lookup's cost
  // should not grow with the unmerged delta.
  std::printf("\nhash point lookups over an unmerged delta (p50 over "
              "batches of 100, %llu uniform keys):\n  %10s %12s\n",
              static_cast<unsigned long long>(lookups * 10), "rows",
              "point [µs]");
  for (const uint64_t delta_rows : {20000, 320000}) {
    const double p50 = DeltaPointP50Us(delta_rows, lookups * 10);
    std::printf("  %10llu %12.3f\n",
                static_cast<unsigned long long>(delta_rows), p50);
    std::printf("BENCH_JSON {\"bench\":\"a1_delta_point\",\"rows\":%llu,"
                "\"point_us\":%.3f}\n",
                static_cast<unsigned long long>(delta_rows), p50);
  }
  return 0;
}
