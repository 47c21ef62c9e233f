#ifndef HYRISE_NV_ALLOC_PHEAP_H_
#define HYRISE_NV_ALLOC_PHEAP_H_

#include <memory>
#include <string>
#include <string_view>

#include "alloc/pallocator.h"
#include "alloc/region_header.h"
#include "common/macros.h"
#include "common/status.h"
#include "nvm/pmem_region.h"
#include "obs/blackbox.h"

namespace hyrise_nv::alloc {

/// A formatted persistent heap: region + header + allocator, the unit the
/// storage engine builds on. Create() formats a fresh region;
/// OpenForInspection() validates an existing one, and RecoverAllocator()
/// plus AttachBlackbox() make it writable (recovery/nvm_recovery.cc times
/// each step of that open).
class PHeap {
 public:
  static Result<std::unique_ptr<PHeap>> Create(
      size_t size, const nvm::PmemRegionOptions& options);

  /// Maps and validates the region without running allocator recovery or
  /// marking it dirty — the image stays byte-identical, so callers can
  /// deep-verify it first and walk away from a corrupt one. Follow with
  /// RecoverAllocator() and AttachBlackbox() before the first allocation.
  static Result<std::unique_ptr<PHeap>> OpenForInspection(
      const nvm::PmemRegionOptions& options);

  /// Allocator intent recovery (reclaiming pending allocation intents)
  /// plus the dirty mark.
  Status RecoverAllocator();

  ~PHeap();

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(PHeap);

  nvm::PmemRegion& region() { return *region_; }
  PAllocator& allocator() { return *allocator_; }

  /// The flight recorder of this heap's region; nullptr when the region
  /// is too small to host one (obs/blackbox.h). Attached by Create()
  /// and by instant restart.
  obs::BlackboxWriter* blackbox() { return blackbox_.get(); }

  /// Attaches (or re-attaches after a simulated crash) the flight
  /// recorder and publishes it as the process-wide current writer.
  void AttachBlackbox();

  /// Whether the previous session ended with CloseClean(). Captured at
  /// open time, before this session marks the region dirty.
  bool was_clean_shutdown() const { return was_clean_; }

  Status SetRoot(std::string_view name, uint64_t offset) {
    return alloc::SetRoot(*region_, name, offset);
  }
  Result<uint64_t> GetRoot(std::string_view name) const {
    return alloc::GetRoot(*region_, name);
  }

  template <typename T>
  T* Resolve(uint64_t offset) {
    HYRISE_NV_DCHECK(offset != 0 && offset < region_->size(),
                     "bad resolve offset");
    return reinterpret_cast<T*>(region_->base() + offset);
  }

  /// Marks the clean-shutdown flag and syncs file-backed regions.
  Status CloseClean();

 private:
  PHeap() = default;

  std::unique_ptr<nvm::PmemRegion> region_;
  std::unique_ptr<PAllocator> allocator_;
  std::unique_ptr<obs::BlackboxWriter> blackbox_;
  bool was_clean_ = false;
};

}  // namespace hyrise_nv::alloc

#endif  // HYRISE_NV_ALLOC_PHEAP_H_
