#ifndef HYRISE_NV_RECOVERY_NVM_RECOVERY_H_
#define HYRISE_NV_RECOVERY_NVM_RECOVERY_H_

#include <memory>
#include <string>
#include <vector>

#include "alloc/pheap.h"
#include "obs/trace.h"
#include "recovery/verify.h"
#include "storage/catalog.h"
#include "txn/txn_manager.h"

namespace hyrise_nv::recovery {

/// Phase timings of an instant restart. Every phase is O(1) or
/// O(in-flight work + delta dictionary), never O(database size) — the
/// property experiment E1/E5 measures. kDeep validation adds an
/// O(database) verify phase by design; the hot path stays
/// kFastHeaderOnly.
struct NvmRecoveryReport {
  double map_seconds = 0;       // open + map the region, header check,
                                // allocator intents, dirty mark, flight
                                // recorder (kDeep: the first two only)
  double verify_seconds = 0;    // deep verification (kDeep only)
  double fixup_seconds = 0;     // catalog + txn manager bind, in-flight
                                // commits, in-doubt adoption
  double attach_seconds = 0;    // catalog bind, delta dict map rebuild,
                                // torn-insert repair
  double total_seconds = 0;
  bool was_clean_shutdown = false;
  VerifyReport verify;          // populated when kDeep ran
  /// Nested timed spans of the restart ("instant_restart" root with
  /// map / verify / fixup / attach children; DESIGN.md §9 has the full
  /// shape). The phase seconds above are derived from this tree.
  obs::SpanNode trace;
};

/// Result of an instant restart: all engine components bound to the
/// recovered NVM state.
struct NvmRestartResult {
  std::unique_ptr<alloc::PHeap> heap;
  std::unique_ptr<storage::Catalog> catalog;
  std::unique_ptr<txn::TxnManager> txn_manager;
  NvmRecoveryReport report;
  /// Tables quarantined by salvage (failed deep verification).
  std::vector<std::string> quarantined_tables;
  /// True when the restart ran in salvage mode: the image was never
  /// marked dirty and must be served read-only.
  bool salvage_read_only = false;
};

/// How to open the image.
struct NvmRestartOptions {
  nvm::PmemRegionOptions region;
  ValidationLevel level = ValidationLevel::kFastHeaderOnly;
  /// With kDeep: instead of failing on table-scoped findings, quarantine
  /// the affected tables and serve the rest read-only. Fatal findings
  /// still fail. Implies the image is not mutated (no allocator
  /// recovery, no in-flight commit rollforward, no dirty mark).
  bool salvage = false;
};

/// The paper's headline operation: opens the NVM region and is ready to
/// answer queries without reading a log or a checkpoint.
///
///  1. map the region, validate the header (constant work);
///  2. recover allocator intents, roll in-flight commits forward and
///     adopt in-doubt 2PC transactions (proportional to in-flight work
///     at crash time, not to data);
///  3. attach the catalog — rebinds table handles, repairs torn inserts,
///     and re-inserts the at most one delta dictionary id per column
///     whose table slot a crash cut off (constant work: the value→id
///     tables are persistent).
Result<NvmRestartResult> InstantRestart(
    const nvm::PmemRegionOptions& options);

/// Instant restart with a validation level and optional salvage mode.
/// Returns Corruption when verification fails (always for fatal
/// findings; for any finding when salvage is off).
Result<NvmRestartResult> InstantRestart(const NvmRestartOptions& options);

/// Same, over an already-opened heap (used for in-process crash
/// simulation where the region object survives).
Result<NvmRestartResult> InstantRestartFromHeap(
    std::unique_ptr<alloc::PHeap> heap);

}  // namespace hyrise_nv::recovery

#endif  // HYRISE_NV_RECOVERY_NVM_RECOVERY_H_
