#include "index/delta_index.h"

#include <string>

namespace hyrise_nv::index {

DeltaIndex::DeltaIndex(nvm::PmemRegion* region, alloc::PAllocator* alloc,
                       storage::PIndexMeta* meta)
    : region_(region),
      meta_(meta),
      buckets_(region, alloc, &meta->buckets),
      entries_(region, alloc, &meta->entries) {}

Status DeltaIndex::Create(nvm::PmemRegion& region, alloc::PAllocator& alloc,
                          storage::PIndexMeta* meta, uint64_t column,
                          uint64_t bucket_count) {
  if (bucket_count == 0 || (bucket_count & (bucket_count - 1)) != 0) {
    return Status::InvalidArgument("bucket count must be a power of two");
  }
  if (meta->state != 0) {
    return Status::AlreadyExists("index slot already active");
  }
  meta->column = column;
  meta->bucket_count = bucket_count;
  alloc::PVector<uint64_t>::Format(region, &meta->buckets);
  alloc::PVector<DeltaIndexEntry>::Format(region, &meta->entries);
  alloc::PVector<uint64_t> buckets(&region, &alloc, &meta->buckets);
  HYRISE_NV_RETURN_NOT_OK(buckets.AppendFill(0, bucket_count));
  region.Persist(meta, sizeof(storage::PIndexMeta));
  // Activating the slot last makes index creation crash-atomic.
  region.AtomicPersist64(&meta->state, 1);
  return Status::OK();
}

Status DeltaIndex::Attach() {
  if (meta_->state != 1) {
    return Status::InvalidArgument("attaching an inactive index slot");
  }
  if (meta_->bucket_count == 0 ||
      (meta_->bucket_count & (meta_->bucket_count - 1)) != 0) {
    return Status::Corruption("index bucket count corrupt");
  }
  HYRISE_NV_RETURN_NOT_OK(buckets_.Validate());
  HYRISE_NV_RETURN_NOT_OK(entries_.Validate());
  if (buckets_.size() != meta_->bucket_count) {
    return Status::Corruption("index bucket vector size mismatch");
  }
  // Bucket heads and chains must stay within the entry vector.
  for (uint64_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_.Get(b) > entries_.size()) {
      return Status::Corruption("index bucket head out of range");
    }
  }
  return Status::OK();
}

Status DeltaIndex::Insert(uint64_t hash, uint64_t row) {
  if (entries_.size() >= kMaxDeltaIndexEntries) {
    return Status::OutOfMemory("delta hash index holds " +
                               std::to_string(kMaxDeltaIndexEntries) +
                               " entries; merge the table");
  }
  const uint64_t bucket = hash & (meta_->bucket_count - 1);
  DeltaIndexEntry entry;
  entry.row = row;
  entry.tag = TagOf(hash);
  entry.next = static_cast<uint32_t>(buckets_.Get(bucket));
  // Durable entry first, then the atomic bucket-head publish.
  HYRISE_NV_RETURN_NOT_OK(entries_.Append(entry));
  region_->AtomicPersist64(buckets_.data() + bucket, entries_.size());
  return Status::OK();
}

}  // namespace hyrise_nv::index
