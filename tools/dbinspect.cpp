// dbinspect — offline inspection and verification of a Hyrise-NV
// persistent image.
//
// Prints the region header, allocator occupancy, transaction state,
// catalog, per-table partition/dictionary/index statistics, and MVCC
// health counters — without modifying the image (the file is copied into
// an anonymous region first).
//
//   dbinspect [--verify[=deep]] <data-dir | nvm-image> [--verbose]
//   dbinspect stats [--metrics-json | --prometheus] <data-dir | nvm-image>
//   dbinspect blackbox [--json] [--limit=N] <data-dir | nvm-image>
//   dbinspect timeline [--json] <data-dir | nvm-image>
//
// --verify        fast integrity check (region header + magic/CRC)
// --verify=deep   walk every persistent structure: allocator free lists,
//                 commit table, catalog, dictionaries, attribute
//                 vectors, MVCC vectors, indexes (advisory findings —
//                 e.g. a quarantined flight recorder — do not fail)
// stats           image summary + engine metrics snapshot (text table,
//                 --metrics-json for JSON, --prometheus for exposition
//                 format)
// blackbox        decode the NVM-persisted flight recorder into a crash
//                 timeline; works on corrupt images (geometry comes from
//                 the file size, every event slot carries its own CRC)
// timeline        reconstruct maintenance phase spans (merge /
//                 checkpoint / recovery-drain windows, fault and crash
//                 points) from the same flight recorder
//
// Exit codes: 0 = image is clean, 1 = usage error, 2 = corruption
// found, 3 = the image cannot be opened at all.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "alloc/pheap.h"
#include "alloc/region_header.h"
#include "common/json.h"
#include "index/index_set.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "recovery/verify.h"
#include "storage/catalog.h"
#include "txn/commit_table.h"

using namespace hyrise_nv;  // NOLINT: tool brevity

namespace {

const char* IndexKindName(uint64_t kind) {
  switch (kind) {
    case storage::kIndexHash:
      return "hash";
    case storage::kIndexSkipList:
      return "skip-list";
  }
  return "?";
}

const char* SeverityName(recovery::FindingSeverity severity) {
  switch (severity) {
    case recovery::FindingSeverity::kFatal:
      return "FATAL";
    case recovery::FindingSeverity::kTable:
      return "TABLE";
    case recovery::FindingSeverity::kWriteHazard:
      return "WRITE-HAZARD";
    case recovery::FindingSeverity::kAdvisory:
      return "ADVISORY";
  }
  return "?";
}

int RunVerify(const std::string& image_path, bool deep) {
  nvm::PmemRegionOptions options;
  options.file_path = image_path;
  options.tracking = nvm::TrackingMode::kNone;
  auto region_result = nvm::PmemRegion::Open(options);
  if (!region_result.ok()) {
    std::fprintf(stderr, "cannot open image: %s\n",
                 region_result.status().ToString().c_str());
    return 3;
  }
  auto region = std::move(region_result).ValueUnsafe();

  if (!deep) {
    Status status = alloc::ValidateRegionHeader(*region);
    if (!status.ok()) {
      std::printf("verify: FAILED — %s\n", status.ToString().c_str());
      return 2;
    }
    std::printf(
        "verify: header OK (%s shutdown; use --verify=deep for a full "
        "structure walk)\n",
        alloc::WasCleanShutdown(*region) ? "clean" : "crash");
    return 0;
  }

  recovery::VerifyReport report = recovery::DeepVerify(*region);
  std::printf("deep verify: %" PRIu64 " tables, %" PRIu64
              " structures checked, %zu finding(s)%s\n",
              report.tables_checked, report.structures_checked,
              report.findings.size(),
              report.sealed_image ? "" : " (crash image: close-time "
                                         "checksums not authoritative)");
  for (const auto& finding : report.findings) {
    std::printf("  [%s] %s%s%s%s: %s\n", SeverityName(finding.severity),
                finding.structure.c_str(),
                finding.table.empty() ? "" : " (table '",
                finding.table.c_str(), finding.table.empty() ? "" : "')",
                finding.detail.c_str());
  }
  if (report.blocking()) {
    std::printf("verify: FAILED\n");
    return 2;
  }
  if (!report.clean()) {
    std::printf("verify: OK (advisory findings only)\n");
  } else {
    std::printf("verify: OK\n");
  }
  return 0;
}

int RunBlackbox(const std::string& image_path, bool json, size_t limit) {
  // Open the raw region, not the heap: the recorder must decode even
  // when the region header, allocator, or catalog are trash.
  nvm::PmemRegionOptions options;
  options.file_path = image_path;
  options.tracking = nvm::TrackingMode::kNone;
  auto region_result = nvm::PmemRegion::Open(options);
  if (!region_result.ok()) {
    std::fprintf(stderr, "cannot open image: %s\n",
                 region_result.status().ToString().c_str());
    return 3;
  }
  auto region = std::move(region_result).ValueUnsafe();
  const obs::BlackboxDecodeResult result =
      obs::DecodeBlackbox(region->base(), region->size());
  if (json) {
    std::printf("%s\n", obs::BlackboxTimelineJson(result, limit).c_str());
    return result.present ? 0 : 2;
  }
  // Correlate with the region header when it is still readable: whether
  // the last shutdown was clean tells the reader if the newest events
  // describe a crash or a normal close.
  if (alloc::ValidateRegionHeader(*region).ok()) {
    std::printf("image: %s (last shutdown: %s)\n", image_path.c_str(),
                alloc::WasCleanShutdown(*region) ? "clean" : "crash");
  } else {
    std::printf("image: %s (region header corrupt — recorder decoded "
                "from file geometry alone)\n",
                image_path.c_str());
  }
  std::fputs(obs::RenderBlackboxTimeline(result, limit).c_str(), stdout);
  return result.present ? 0 : 2;
}

int RunTimeline(const std::string& image_path, bool json) {
  nvm::PmemRegionOptions options;
  options.file_path = image_path;
  options.tracking = nvm::TrackingMode::kNone;
  auto region_result = nvm::PmemRegion::Open(options);
  if (!region_result.ok()) {
    std::fprintf(stderr, "cannot open image: %s\n",
                 region_result.status().ToString().c_str());
    return 3;
  }
  auto region = std::move(region_result).ValueUnsafe();
  const obs::BlackboxDecodeResult decoded =
      obs::DecodeBlackbox(region->base(), region->size());
  const std::vector<obs::PhaseSpan> spans =
      obs::PhaseSpansFromBlackbox(decoded);
  if (json) {
    std::printf("%s\n", obs::PhaseSpansJson(spans).c_str());
    return decoded.present ? 0 : 2;
  }
  if (!decoded.present) {
    std::printf("no flight recorder found in %s\n", image_path.c_str());
    return 2;
  }
  std::printf("image: %s\n", image_path.c_str());
  std::fputs(obs::RenderPhaseSpans(spans).c_str(), stdout);
  return 0;
}

void PrintTable(storage::Table& table, bool verbose) {
  std::printf("\ntable '%s' (id %" PRIu64 ")\n", table.name().c_str(),
              table.id());
  std::printf("  columns: %zu  |  main rows: %" PRIu64
              "  |  delta rows: %" PRIu64 "\n",
              table.schema().num_columns(), table.main_row_count(),
              table.delta_row_count());

  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const auto& def = table.schema().column(c);
    const auto& main_col = table.main().column(c);
    const auto& delta_dict = table.delta().column(c).dictionary();
    // The value→id table's load counts its header slots, as growth does.
    const uint64_t slots = delta_dict.table_slots();
    const double load =
        slots == 0 ? 0.0
                   : 100.0 *
                         static_cast<double>(delta_dict.size() +
                                             storage::kDictTableHeaderSlots) /
                         static_cast<double>(slots);
    std::printf("  col %2zu %-18s %-7s  main dict %8" PRIu64
                " (%2u bits)   delta dict %8" PRIu64 " (table %" PRIu64
                " slots, load %.0f%%)\n",
                c, def.name.c_str(), storage::DataTypeName(def.type),
                main_col.dictionary().size(), main_col.attr().bits(),
                delta_dict.size(), slots, load);
  }

  storage::PTableGroup* group = table.group();
  for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
    const storage::PIndexMeta& idx = group->indexes[s];
    if (idx.state != 1) continue;
    std::printf("  index on col %" PRIu64 ": %s", idx.column,
                IndexKindName(idx.kind));
    const auto& main_meta = *group->main_col(idx.column);
    const bool has_gk = main_meta.gk_offsets.size > 0;
    std::printf("  (group-key on main: %s)", has_gk ? "yes" : "no");
    const index::DeltaIndex delta(&table.heap().region(),
                                  &table.heap().allocator(),
                                  &group->indexes[s]);
    if (idx.kind == storage::kIndexHash && delta.Attach().ok()) {
      // Heads count the values with delta rows; the longest chain is the
      // version count of the most-updated value.
      uint64_t heads = 0;
      uint64_t longest = 0;
      bool broken = false;
      for (uint64_t id = 0; id < delta.slot_count(); ++id) {
        uint64_t length = 0;
        broken |= !delta
                       .ForEachRow(static_cast<storage::ValueId>(id),
                                   [&](uint64_t) { ++length; })
                       .ok();
        heads += length > 0 ? 1 : 0;
        longest = std::max(longest, length);
      }
      std::printf("  heads %" PRIu64 "  links %" PRIu64
                  "  longest chain %" PRIu64 "%s",
                  heads, delta.link_count(), longest,
                  broken ? " (broken chain)" : "");
    }
    std::printf("\n");
  }

  // MVCC health: committed / deleted / claimed / never-committed rows.
  uint64_t committed = 0, deleted = 0, claimed = 0, garbage = 0;
  auto classify = [&](const storage::MvccEntry* entry) {
    if (entry->begin == storage::kCidInfinity) {
      ++garbage;  // uncommitted or aborted insert
    } else if (entry->end != storage::kCidInfinity) {
      ++deleted;
    } else {
      ++committed;
    }
    if (entry->tid != storage::kTidNone) ++claimed;
  };
  for (uint64_t r = 0; r < table.main_row_count(); ++r) {
    classify(table.main().mvcc(r));
  }
  for (uint64_t r = 0; r < table.delta_row_count(); ++r) {
    classify(table.delta().mvcc(r));
  }
  std::printf("  mvcc: %" PRIu64 " live, %" PRIu64 " deleted, %" PRIu64
              " in-flight/aborted, %" PRIu64 " claims\n",
              committed, deleted, garbage, claimed);

  if (verbose && table.main_row_count() + table.delta_row_count() > 0) {
    std::printf("  first rows:\n");
    uint64_t shown = 0;
    const storage::Cid snapshot = storage::kCidInfinity - 1;
    table.ForEachVisibleRow(snapshot, storage::kTidNone,
                            [&](storage::RowLocation loc) {
                              if (shown >= 5) return;
                              std::printf("    [%s %" PRIu64 "]",
                                          loc.in_main ? "main" : "delta",
                                          loc.row);
                              for (const auto& value :
                                   table.GetRow(loc)) {
                                if (const auto* i =
                                        std::get_if<int64_t>(&value)) {
                                  std::printf(" %" PRId64, *i);
                                } else if (const auto* d =
                                               std::get_if<double>(
                                                   &value)) {
                                  std::printf(" %g", *d);
                                } else {
                                  std::printf(" '%s'",
                                              std::get<std::string>(value)
                                                  .c_str());
                                }
                              }
                              std::printf("\n");
                              ++shown;
                            });
  }
}

void PrintUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--verify[=deep]] <data-dir | nvm-image> "
               "[--verbose]\n"
               "       %s stats [--metrics-json | --prometheus] "
               "<data-dir | nvm-image>\n"
               "       %s blackbox [--json] [--limit=N] "
               "<data-dir | nvm-image>\n"
               "       %s timeline [--json] <data-dir | nvm-image>\n",
               prog, prog, prog, prog);
}

enum class StatsFormat { kText, kJson, kPrometheus };

/// Whether walking catalog/table structures of this image is safe. A
/// crash image may hold torn in-flight state (e.g. a dictionary size
/// bumped before its payload landed), which the unguarded attach path
/// would chase into unmapped memory. Deep verify bounds-checks every
/// structure, so a crash image that verifies without blocking findings
/// is safe to walk.
bool StructureWalkIsSafe(alloc::PHeap& heap) {
  if (heap.was_clean_shutdown()) return true;
  return !recovery::DeepVerify(heap.region()).blocking();
}

int RunStats(const std::string& image_path, StatsFormat format) {
  nvm::PmemRegionOptions options;
  options.file_path = image_path;
  options.tracking = nvm::TrackingMode::kNone;
  auto heap_result = alloc::PHeap::OpenForInspection(options);
  if (!heap_result.ok()) {
    std::fprintf(stderr, "cannot open image: %s\n",
                 heap_result.status().ToString().c_str());
    return 3;
  }
  auto heap = std::move(heap_result).ValueUnsafe();

  // Offline process: the registry holds only what this inspection did,
  // plus the image-derived values synced here. The full metric name set
  // (persist/fsync histograms included) is pre-registered, so every
  // export surface is complete even with zero samples.
  auto& registry = obs::MetricsRegistry::Instance();
  const auto& stats = heap->region().stats();
  registry.GetCounter("nvm.persist.count")
      .Store(stats.persist_calls.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.fence.count")
      .Store(stats.fences.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.flush.lines")
      .Store(stats.flush_lines.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.flush.bytes")
      .Store(stats.flushed_bytes.load(std::memory_order_relaxed));
  registry.GetGauge("alloc.heap_used.bytes")
      .Set(static_cast<int64_t>(heap->allocator().HeapUsedBytes()));
  const obs::MetricsSnapshot snapshot = registry.Snapshot();

  const auto* header = alloc::HeaderOf(heap->region());
  size_t num_tables = 0;
  if (StructureWalkIsSafe(*heap)) {
    auto catalog_result = storage::Catalog::Attach(*heap);
    if (catalog_result.ok()) num_tables = (*catalog_result)->num_tables();
  }

  switch (format) {
    case StatsFormat::kJson:
      std::printf(
          "{\"image\":{\"path\":%s,\"size_bytes\":%" PRIu64
          ",\"format_version\":%u,\"clean_shutdown\":%s,"
          "\"heap_used_bytes\":%" PRIu64 ",\"tables\":%zu},"
          "\"metrics\":%s}\n",
          common::JsonQuote(image_path).c_str(),
          static_cast<uint64_t>(heap->region().size()),
          header->format_version,
          heap->was_clean_shutdown() ? "true" : "false",
          heap->allocator().HeapUsedBytes(), num_tables,
          snapshot.ToJson().c_str());
      break;
    case StatsFormat::kPrometheus:
      std::fputs(snapshot.ToPrometheusText().c_str(), stdout);
      break;
    case StatsFormat::kText:
      std::printf("image: %s\n", image_path.c_str());
      std::printf("  size: %.1f MiB  |  format v%u  |  last shutdown: %s\n",
                  heap->region().size() / (1024.0 * 1024.0),
                  header->format_version,
                  heap->was_clean_shutdown() ? "clean" : "crash");
      std::printf("  heap used: %.1f MiB  |  tables: %zu\n\n",
                  heap->allocator().HeapUsedBytes() / (1024.0 * 1024.0),
                  num_tables);
      std::fputs(snapshot.ToText().c_str(), stdout);
      break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool verbose = false;
  bool verify = false;
  bool deep = false;
  bool stats = false;
  bool blackbox = false;
  bool timeline = false;
  bool blackbox_json = false;
  size_t blackbox_limit = 0;
  StatsFormat stats_format = StatsFormat::kText;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "stats" && !stats && !blackbox && !timeline && path.empty()) {
      stats = true;
    } else if (arg == "blackbox" && !stats && !blackbox && !timeline &&
               path.empty()) {
      blackbox = true;
    } else if (arg == "timeline" && !stats && !blackbox && !timeline &&
               path.empty()) {
      timeline = true;
    } else if (arg == "--json" && (blackbox || timeline)) {
      blackbox_json = true;
    } else if (arg.rfind("--limit=", 0) == 0 && blackbox) {
      blackbox_limit = static_cast<size_t>(
          std::strtoull(arg.c_str() + 8, nullptr, 10));
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--verify=deep") {
      verify = true;
      deep = true;
    } else if (arg == "--metrics-json") {
      stats_format = StatsFormat::kJson;
    } else if (arg == "--prometheus") {
      stats_format = StatsFormat::kPrometheus;
    } else if (!arg.empty() && arg[0] == '-') {
      PrintUsage(argv[0]);
      return 1;
    } else if (path.empty()) {
      path = arg;
    } else {
      PrintUsage(argv[0]);
      return 1;
    }
  }
  if (path.empty() || (!stats && stats_format != StatsFormat::kText)) {
    PrintUsage(argv[0]);
    return 1;
  }
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    path += "/nvm.img";
  }

  if (blackbox) return RunBlackbox(path, blackbox_json, blackbox_limit);
  if (timeline) return RunTimeline(path, blackbox_json);
  if (stats) return RunStats(path, stats_format);
  if (verify) return RunVerify(path, deep);

  nvm::PmemRegionOptions options;
  options.file_path = path;
  options.tracking = nvm::TrackingMode::kNone;
  // OpenForInspection skips the dirty-marking a writer open performs, so
  // inspecting an image never flips its clean-shutdown flag.
  auto heap_result = alloc::PHeap::OpenForInspection(options);
  if (!heap_result.ok()) {
    std::fprintf(stderr, "cannot open image: %s\n",
                 heap_result.status().ToString().c_str());
    return 3;
  }
  auto heap = std::move(heap_result).ValueUnsafe();

  const auto* header = alloc::HeaderOf(heap->region());
  std::printf("region: %s\n", path.c_str());
  std::printf("  size: %.1f MiB  |  format v%u  |  last shutdown: %s\n",
              heap->region().size() / (1024.0 * 1024.0),
              header->format_version,
              heap->was_clean_shutdown() ? "clean" : "crash");
  std::printf("  heap used: %.1f MiB (%.1f%%)\n",
              heap->allocator().HeapUsedBytes() / (1024.0 * 1024.0),
              100.0 * heap->allocator().HeapUsedBytes() /
                  heap->region().size());
  std::printf("  roots:");
  for (const auto& slot : header->roots) {
    if (slot.name[0] != '\0') {
      std::printf(" %s@%" PRIu64, slot.name, slot.offset);
    }
  }
  std::printf("\n");

  auto commit_result = txn::CommitTable::Attach(*heap);
  if (commit_result.ok()) {
    const auto* block = (*commit_result)->block();
    uint64_t in_flight = 0;
    for (const auto& slot : block->slots) {
      if (slot.state == txn::PCommitSlot::kCommitting) ++in_flight;
    }
    std::printf("  txn state: watermark %" PRIu64 ", next tid block %"
                PRIu64 ", next cid block %" PRIu64
                ", in-flight commits %" PRIu64 "\n",
                block->commit_watermark, block->tid_block,
                block->cid_block, in_flight);
  }

  if (!StructureWalkIsSafe(*heap)) {
    std::printf(
        "  crash image failed deep verification; skipping the per-table "
        "walk\n  (run '--verify=deep' for findings, 'blackbox' for the "
        "pre-crash timeline)\n");
    return 2;
  }

  auto catalog_result = storage::Catalog::Attach(*heap);
  if (!catalog_result.ok()) {
    std::fprintf(stderr, "cannot attach catalog: %s\n",
                 catalog_result.status().ToString().c_str());
    return 3;
  }
  std::printf("  tables: %zu\n", (*catalog_result)->num_tables());
  for (const auto& table : (*catalog_result)->tables()) {
    PrintTable(*table, verbose);
  }
  return 0;
}
