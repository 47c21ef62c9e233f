#include "recovery/nvm_recovery.h"

#include <unordered_set>

namespace hyrise_nv::recovery {

namespace {

// The start of `map`: open, map and validate the region without
// changing it.
Result<std::unique_ptr<alloc::PHeap>> OpenRegion(
    const nvm::PmemRegionOptions& options, obs::SpanTracer& tracer) {
  tracer.Begin("open_region");
  auto heap_result = alloc::PHeap::OpenForInspection(options);
  tracer.End();
  return heap_result;
}

// Makes an inspected heap writable: allocator intents and the dirty
// mark, then the flight recorder's rescan.
Status FinishOpen(alloc::PHeap& heap, obs::SpanTracer& tracer) {
  tracer.Begin("recover_allocator");
  HYRISE_NV_RETURN_NOT_OK(heap.RecoverAllocator());
  tracer.End();
  tracer.Begin("attach_flight_recorder");
  heap.AttachBlackbox();
  tracer.End();
  return Status::OK();
}

Result<NvmRestartResult> FinishRestart(NvmRestartResult result,
                                       obs::SpanTracer& tracer) {
  // Phase 2: fixups — allocator intent recovery already ran inside
  // `map`; complete in-flight commits and adopt in-doubt 2PC
  // transactions here, in one pass over the sealed commit slots. Needs
  // the catalog, so bind it first (cheap: offsets only, dictionaries
  // later).
  tracer.Begin("fixup");
  tracer.Begin("attach_catalog");
  auto catalog_result = storage::Catalog::Attach(*result.heap);
  if (!catalog_result.ok()) return catalog_result.status();
  result.catalog = std::move(catalog_result).ValueUnsafe();
  tracer.End();

  tracer.Begin("attach_txn_manager");
  auto txn_result = txn::TxnManager::Attach(*result.heap);
  if (!txn_result.ok()) return txn_result.status();
  result.txn_manager = std::move(txn_result).ValueUnsafe();
  tracer.End();

  tracer.Begin("rollforward_commits");
  HYRISE_NV_RETURN_NOT_OK(
      result.txn_manager->RecoverCommitSlots(*result.catalog));
  tracer.End();
  result.report.fixup_seconds = tracer.End();

  // Phase 3: repair (torn inserts, plus the at most one dictionary id per
  // delta column whose table slot a crash cut off).
  tracer.Begin("attach");
  tracer.Begin("repair_torn_inserts");
  HYRISE_NV_RETURN_NOT_OK(result.catalog->RepairAfterCrash());
  tracer.End();
  result.report.attach_seconds = tracer.End();

  result.report.trace = tracer.Finish();
  result.report.total_seconds = result.report.trace.seconds;
  return result;
}

}  // namespace

Result<NvmRestartResult> InstantRestart(
    const nvm::PmemRegionOptions& options) {
  NvmRestartResult result;
  obs::SpanTracer tracer("instant_restart");
  tracer.Begin("map");
  auto heap_result = OpenRegion(options, tracer);
  if (!heap_result.ok()) return heap_result.status();
  result.heap = std::move(heap_result).ValueUnsafe();
  HYRISE_NV_RETURN_NOT_OK(FinishOpen(*result.heap, tracer));
  result.report.map_seconds = tracer.End();
  result.report.was_clean_shutdown = result.heap->was_clean_shutdown();
  return FinishRestart(std::move(result), tracer);
}

Result<NvmRestartResult> InstantRestart(const NvmRestartOptions& options) {
  if (options.level == ValidationLevel::kFastHeaderOnly &&
      !options.salvage) {
    return InstantRestart(options.region);
  }

  NvmRestartResult result;
  obs::SpanTracer tracer("instant_restart");
  // Map without mutating: the image must stay byte-identical until we
  // decide it is trustworthy (or decide to serve it read-only).
  tracer.Begin("map");
  auto heap_result = OpenRegion(options.region, tracer);
  if (!heap_result.ok()) return heap_result.status();
  result.heap = std::move(heap_result).ValueUnsafe();
  result.report.map_seconds = tracer.End();
  result.report.was_clean_shutdown = result.heap->was_clean_shutdown();

  tracer.Begin("verify");
  result.report.verify = DeepVerify(result.heap->region());
  result.report.verify_seconds = tracer.End();
  const VerifyReport& verify = result.report.verify;

  if (verify.has_fatal() || (!options.salvage && verify.blocking())) {
    return Status::Corruption("NVM image failed deep verification: " +
                              verify.Summary());
  }

  if (!options.salvage) {
    HYRISE_NV_RETURN_NOT_OK(FinishOpen(*result.heap, tracer));
    return FinishRestart(std::move(result), tracer);
  }

  // Salvage: bind everything except the tables with findings, and leave
  // the image untouched — no allocator recovery, no in-flight commit
  // rollforward or in-doubt adoption, no torn-insert repair, no dirty
  // mark. The caller must enforce read-only use.
  std::unordered_set<uint64_t> skip;
  for (const auto& finding : verify.findings) {
    if (finding.table_meta_off == 0 ||
        skip.count(finding.table_meta_off)) {
      continue;
    }
    skip.insert(finding.table_meta_off);
    result.quarantined_tables.push_back(finding.table);
  }
  tracer.Begin("attach");
  auto catalog_result = storage::Catalog::Attach(*result.heap, &skip);
  if (!catalog_result.ok()) return catalog_result.status();
  result.catalog = std::move(catalog_result).ValueUnsafe();
  auto txn_result = txn::TxnManager::Attach(*result.heap);
  if (!txn_result.ok()) return txn_result.status();
  result.txn_manager = std::move(txn_result).ValueUnsafe();
  result.report.attach_seconds = tracer.End();
  result.salvage_read_only = true;
  result.report.trace = tracer.Finish();
  result.report.total_seconds = result.report.trace.seconds;
  return result;
}

Result<NvmRestartResult> InstantRestartFromHeap(
    std::unique_ptr<alloc::PHeap> heap) {
  NvmRestartResult result;
  obs::SpanTracer tracer("instant_restart");
  tracer.Begin("map");
  result.heap = std::move(heap);
  // The region survived the simulated crash: nothing to open, and the
  // image is still marked dirty.
  tracer.Begin("recover_allocator");
  HYRISE_NV_RETURN_NOT_OK(result.heap->allocator().Recover());
  tracer.End();
  tracer.Begin("attach_flight_recorder");
  result.heap->AttachBlackbox();
  tracer.End();
  result.report.map_seconds = tracer.End();
  result.report.was_clean_shutdown = false;
  return FinishRestart(std::move(result), tracer);
}

}  // namespace hyrise_nv::recovery
