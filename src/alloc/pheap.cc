#include "alloc/pheap.h"

namespace hyrise_nv::alloc {

PHeap::~PHeap() {
  if (blackbox_ &&
      obs::BlackboxWriter::Current() == blackbox_.get()) {
    obs::BlackboxWriter::SetCurrent(nullptr);
  }
}

void PHeap::AttachBlackbox() {
  blackbox_ = obs::BlackboxWriter::Attach(*region_);
  obs::BlackboxWriter::SetCurrent(blackbox_.get());
}

Result<std::unique_ptr<PHeap>> PHeap::Create(
    size_t size, const nvm::PmemRegionOptions& options) {
  auto heap = std::unique_ptr<PHeap>(new PHeap());
  auto region_result = nvm::PmemRegion::Create(size, options);
  if (!region_result.ok()) return region_result.status();
  heap->region_ = std::move(region_result).ValueUnsafe();
  HYRISE_NV_RETURN_NOT_OK(FormatRegionHeader(*heap->region_));
  HYRISE_NV_RETURN_NOT_OK(PAllocator::Format(*heap->region_));
  obs::BlackboxWriter::Format(*heap->region_);
  heap->allocator_ = std::make_unique<PAllocator>(*heap->region_);
  heap->was_clean_ = false;
  heap->AttachBlackbox();
  return heap;
}

Result<std::unique_ptr<PHeap>> PHeap::OpenForInspection(
    const nvm::PmemRegionOptions& options) {
  auto heap = std::unique_ptr<PHeap>(new PHeap());
  auto region_result = nvm::PmemRegion::Open(options);
  if (!region_result.ok()) return region_result.status();
  heap->region_ = std::move(region_result).ValueUnsafe();
  HYRISE_NV_RETURN_NOT_OK(ValidateRegionHeader(*heap->region_));
  heap->was_clean_ = WasCleanShutdown(*heap->region_);
  heap->allocator_ = std::make_unique<PAllocator>(*heap->region_);
  return heap;
}

Status PHeap::RecoverAllocator() {
  HYRISE_NV_RETURN_NOT_OK(allocator_->Recover());
  MarkDirty(*region_);
  return Status::OK();
}

Status PHeap::CloseClean() {
  if (blackbox_) {
    blackbox_->Record(obs::BlackboxEventType::kClose, 1);
    blackbox_->Flush();
  }
  MarkClean(*region_);
  if (!region_->file_path().empty()) {
    return region_->SyncToFile();
  }
  return Status::OK();
}

}  // namespace hyrise_nv::alloc
