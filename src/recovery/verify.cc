#include "recovery/verify.h"

#include <cstddef>
#include <cstring>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "alloc/pallocator.h"
#include "alloc/pvector.h"
#include "alloc/region_header.h"
#include "common/bit_util.h"
#include "common/crc32.h"
#include "obs/blackbox.h"
#include "storage/catalog.h"
#include "storage/checksums.h"
#include "storage/dictionary.h"
#include "storage/layout.h"
#include "storage/schema.h"
#include "storage/types.h"
#include "txn/commit_table.h"

namespace hyrise_nv::recovery {

namespace {

using alloc::PVectorDesc;
using storage::DataType;
using storage::MvccEntry;
using storage::PDeltaColumnMeta;
using storage::PIndexMeta;
using storage::PMainColumnMeta;
using storage::PTableGroup;
using storage::PTableMeta;
using storage::SealTag;

/// Walk state threaded through the verifier.
struct Ctx {
  const nvm::PmemRegion* region = nullptr;
  VerifyReport* report = nullptr;
  /// Exclusive upper bounds for MVCC stamps, taken from the commit table
  /// when it is healthy (infinity otherwise, so a broken commit table
  /// does not cascade into per-row findings).
  uint64_t tid_bound = UINT64_MAX;
  uint64_t cid_bound = UINT64_MAX;
  bool sealed = false;
  std::string table_name;    // empty = region-global scope
  uint64_t table_off = 0;
};

void AddFinding(Ctx& ctx, const std::string& structure,
                FindingSeverity severity, std::string detail) {
  VerifyFinding finding;
  finding.structure = structure;
  finding.table = ctx.table_name;
  finding.table_meta_off = ctx.table_off;
  finding.severity = severity;
  finding.detail = std::move(detail);
  ctx.report->findings.push_back(std::move(finding));
}

/// Resolves `count` objects of type T at `off`, or nullptr when the range
/// is missing, misaligned, or out of bounds.
template <typename T>
const T* At(const nvm::PmemRegion& region, uint64_t off, uint64_t count) {
  if (off == 0 || off % 8 != 0) return nullptr;
  if (count != 0 && count > region.size() / sizeof(T)) return nullptr;
  const uint64_t bytes = count * sizeof(T);
  if (off > region.size() || bytes > region.size() - off) return nullptr;
  return reinterpret_cast<const T*>(region.base() + off);
}

/// Committed content pointer of a descriptor, or nullptr when the
/// descriptor is structurally unusable.
const uint8_t* ContentOf(const nvm::PmemRegion& region,
                         const PVectorDesc& desc, uint64_t elem_size) {
  const auto& slot = desc.slots[desc.version & 1];
  if (desc.size == 0 || desc.size > slot.capacity) return nullptr;
  if (slot.data < alloc::PAllocator::HeapBegin() || slot.data % 8 != 0) {
    return nullptr;
  }
  const uint64_t bytes = desc.size * elem_size;
  if (elem_size != 0 && bytes / elem_size != desc.size) return nullptr;
  if (slot.data > region.size() || bytes > region.size() - slot.data) {
    return nullptr;
  }
  return region.base() + slot.data;
}

/// Whether `payload` is the payload offset of a block the allocator has
/// handed out. A published structure on a free block would be handed out
/// again by the next allocation of its size class.
bool IsAllocatedBlock(const nvm::PmemRegion& region, uint64_t payload) {
  if (payload < sizeof(alloc::BlockHeader)) return false;
  const auto* block = At<alloc::BlockHeader>(
      region, payload - sizeof(alloc::BlockHeader), 1);
  return block != nullptr &&
         block->magic == alloc::BlockHeader::kMagicValue &&
         block->state == alloc::BlockHeader::kStateAllocated;
}

/// Structural + seal check of one descriptor. Returns false (and records
/// a finding) when the committed content is unusable.
bool CheckDesc(Ctx& ctx, const PVectorDesc& desc, uint64_t elem_size,
               const std::string& what) {
  ++ctx.report->structures_checked;
  bool healthy = true;
  const auto& slot = desc.slots[desc.version & 1];
  if (desc.size > slot.capacity) {
    AddFinding(ctx, "pvector_descriptor", FindingSeverity::kTable,
               what + ": size " + std::to_string(desc.size) +
                   " exceeds capacity " + std::to_string(slot.capacity));
    healthy = false;
  } else if (slot.capacity > 0) {
    const uint64_t bytes = slot.capacity * elem_size;
    const bool overflow =
        elem_size != 0 && bytes / elem_size != slot.capacity;
    if (slot.data < alloc::PAllocator::HeapBegin() ||
        slot.data % 8 != 0 || overflow || slot.data > ctx.region->size() ||
        bytes > ctx.region->size() - slot.data) {
      AddFinding(ctx, "pvector_descriptor", FindingSeverity::kTable,
                 what + ": buffer at " + std::to_string(slot.data) +
                     " (capacity " + std::to_string(slot.capacity) +
                     ") out of range");
      healthy = false;
    } else if (!IsAllocatedBlock(*ctx.region, slot.data)) {
      AddFinding(ctx, "pvector_descriptor", FindingSeverity::kTable,
                 what + ": buffer at " + std::to_string(slot.data) +
                     " is not an allocated block");
      healthy = false;
    }
  }
  if (healthy && ctx.sealed && desc.seal != 0 &&
      desc.seal != storage::ComputePVectorDescSeal(desc)) {
    AddFinding(ctx, "pvector_descriptor", FindingSeverity::kTable,
               what + ": descriptor seal mismatch");
    healthy = false;
  }
  return healthy;
}

uint64_t AllocMetaSeal(const alloc::AllocMeta& meta) {
  return SealTag(
      Crc32c(&meta, offsetof(alloc::AllocMeta, meta_crc)));
}

uint64_t TxnBlockSeal(const txn::PTxnStateBlock& block) {
  return SealTag(
      Crc32c(&block, offsetof(txn::PTxnStateBlock, block_crc)));
}

/// Reads the length-prefixed string at `off` inside a raw blob; returns
/// false on bounds violations.
bool ReadBlobString(const uint8_t* blob, uint64_t blob_size, uint64_t off,
                    std::string_view* out) {
  if (off > blob_size || blob_size - off < 4) return false;
  uint32_t len;
  std::memcpy(&len, blob + off, 4);
  if (len > blob_size - off - 4) return false;
  *out = std::string_view(reinterpret_cast<const char*>(blob + off + 4),
                          len);
  return true;
}

void VerifyAllocator(Ctx& ctx) {
  const auto& region = *ctx.region;
  const auto* meta =
      At<alloc::AllocMeta>(region, alloc::PAllocator::MetaOffset(), 1);
  ++ctx.report->structures_checked;
  if (meta == nullptr) {
    AddFinding(ctx, "allocator_meta", FindingSeverity::kFatal,
               "allocator metadata outside region");
    return;
  }
  const uint64_t heap_begin = alloc::PAllocator::HeapBegin();
  const uint64_t expected_end =
      region.size() - obs::BlackboxBytesFor(region.size());
  if (meta->heap_top < heap_begin || meta->heap_top > meta->heap_end ||
      meta->heap_end != expected_end) {
    AddFinding(ctx, "allocator_meta", FindingSeverity::kWriteHazard,
               "heap bounds out of range: top " +
                   std::to_string(meta->heap_top) + ", end " +
                   std::to_string(meta->heap_end));
    return;
  }
  if (ctx.sealed && meta->meta_crc != 0 &&
      meta->meta_crc != AllocMetaSeal(*meta)) {
    AddFinding(ctx, "allocator_meta", FindingSeverity::kWriteHazard,
               "allocator metadata seal mismatch");
    return;
  }
  // Free-list walk: every block must be a valid free block of its class.
  const uint64_t max_steps = region.size() / alloc::kMinClassSize + 1;
  for (size_t cls = 0; cls < alloc::kNumSizeClasses; ++cls) {
    const uint64_t cls_size = alloc::kMinClassSize << cls;
    uint64_t off = meta->free_heads[cls];
    uint64_t steps = 0;
    while (off != 0) {
      if (++steps > max_steps) {
        AddFinding(ctx, "allocator_meta", FindingSeverity::kWriteHazard,
                   "free list of class " + std::to_string(cls) +
                       " contains a cycle");
        return;
      }
      const auto* block = At<alloc::BlockHeader>(region, off, 1);
      if (block == nullptr || off % 64 != 0 || off < heap_begin ||
          off + sizeof(alloc::BlockHeader) > meta->heap_top) {
        AddFinding(ctx, "allocator_meta", FindingSeverity::kWriteHazard,
                   "free list of class " + std::to_string(cls) +
                       " points outside the heap (offset " +
                       std::to_string(off) + ")");
        return;
      }
      if (block->magic != alloc::BlockHeader::kMagicValue ||
          block->state != alloc::BlockHeader::kStateFree ||
          block->size != cls_size) {
        AddFinding(ctx, "allocator_meta", FindingSeverity::kWriteHazard,
                   "free list of class " + std::to_string(cls) +
                       " holds an invalid block at offset " +
                       std::to_string(off));
        return;
      }
      off = block->next;
    }
  }
}

void VerifyCommitTable(Ctx& ctx) {
  const auto& region = *ctx.region;
  ++ctx.report->structures_checked;
  auto root_result = alloc::GetRoot(region, txn::kTxnStateRootName);
  if (!root_result.ok()) {
    AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
               "txn_state root missing: " +
                   root_result.status().ToString());
    return;
  }
  const auto* block = At<txn::PTxnStateBlock>(region, *root_result, 1);
  if (block == nullptr) {
    AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
               "transaction state block outside region");
    return;
  }
  bool healthy = true;
  if (ctx.sealed && block->block_crc != 0 &&
      block->block_crc != TxnBlockSeal(*block)) {
    AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
               "transaction state seal mismatch");
    healthy = false;
  }
  if (block->tid_block == 0 || block->cid_block == 0) {
    AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
               "TID/CID block counters are zero");
    healthy = false;
  }
  if (block->commit_watermark >= block->cid_block + txn::kTidBlockSize) {
    AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
               "commit watermark " +
                   std::to_string(block->commit_watermark) +
                   " beyond the claimed CID space (cid_block " +
                   std::to_string(block->cid_block) + ")");
    healthy = false;
  }
  for (const auto& slot : block->slots) {
    if (slot.touch_off != 0 && !IsAllocatedBlock(region, slot.touch_off)) {
      // The next commit through this slot would write its touch list
      // into a block the allocator may hand out again.
      AddFinding(ctx, "commit_table", FindingSeverity::kWriteHazard,
                 "commit slot touch buffer at " +
                     std::to_string(slot.touch_off) +
                     " is not an allocated block");
    }
    if (slot.state != txn::PCommitSlot::kFree &&
        slot.state != txn::PCommitSlot::kCommitting &&
        slot.state != txn::PCommitSlot::kPrepared) {
      AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
                 "commit slot in impossible state " +
                     std::to_string(slot.state));
      healthy = false;
      continue;
    }
    if (slot.state == txn::PCommitSlot::kPrepared) {
      // In-doubt 2PC transaction: no CID yet, but the touch list and the
      // owning TID must be sound for later decide-commit/abort.
      if (slot.tid == 0 || slot.touch_count > slot.touch_capacity ||
          (slot.touch_count > 0 &&
           At<txn::TouchEntry>(region, slot.touch_off, slot.touch_count) ==
               nullptr)) {
        AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
                   "prepared commit slot is inconsistent (gtid " +
                       std::to_string(slot.gtid) + ")");
        healthy = false;
      }
      continue;
    }
    if (slot.state != txn::PCommitSlot::kCommitting) continue;
    if (slot.cid >= block->cid_block + txn::kTidBlockSize ||
        slot.touch_count > slot.touch_capacity ||
        (slot.touch_count > 0 &&
         At<txn::TouchEntry>(region, slot.touch_off, slot.touch_count) ==
             nullptr)) {
      AddFinding(ctx, "commit_table", FindingSeverity::kFatal,
                 "in-flight commit slot is inconsistent (cid " +
                     std::to_string(slot.cid) + ")");
      healthy = false;
    }
  }
  if (healthy) {
    // CIDs/TIDs are issued from claimed blocks, so every valid stamp is
    // below the next unclaimed block plus one block of slack for a claim
    // that persisted mid-crash.
    ctx.cid_bound = block->cid_block + txn::kTidBlockSize;
    ctx.tid_bound = block->tid_block + txn::kTidBlockSize;
  }
}

void VerifyMvcc(Ctx& ctx, const PTableGroup& group) {
  ++ctx.report->structures_checked;
  const bool main_ok =
      CheckDesc(ctx, group.main_mvcc, sizeof(MvccEntry), "main mvcc");
  const bool delta_ok =
      CheckDesc(ctx, group.delta_mvcc, sizeof(MvccEntry), "delta mvcc");
  if (main_ok && group.main_row_count != group.main_mvcc.size) {
    AddFinding(ctx, "mvcc", FindingSeverity::kTable,
               "main_row_count " + std::to_string(group.main_row_count) +
                   " != main mvcc size " +
                   std::to_string(group.main_mvcc.size));
  }
  auto check_entries = [&](const PVectorDesc& desc, const char* side) {
    const auto* entries = reinterpret_cast<const MvccEntry*>(
        ContentOf(*ctx.region, desc, sizeof(MvccEntry)));
    if (entries == nullptr) return;
    for (uint64_t r = 0; r < desc.size; ++r) {
      const MvccEntry& e = entries[r];
      if (e.begin != storage::kCidInfinity && e.begin >= ctx.cid_bound) {
        AddFinding(ctx, "mvcc", FindingSeverity::kTable,
                   std::string(side) + " row " + std::to_string(r) +
                       ": begin CID " + std::to_string(e.begin) +
                       " beyond issued CID space");
        return;
      }
      if (e.end != storage::kCidInfinity && e.end != 0 &&
          e.end >= ctx.cid_bound) {
        AddFinding(ctx, "mvcc", FindingSeverity::kTable,
                   std::string(side) + " row " + std::to_string(r) +
                       ": end CID " + std::to_string(e.end) +
                       " beyond issued CID space");
        return;
      }
      if (e.tid != storage::kTidNone && e.tid >= ctx.tid_bound) {
        AddFinding(ctx, "mvcc", FindingSeverity::kTable,
                   std::string(side) + " row " + std::to_string(r) +
                       ": TID " + std::to_string(e.tid) +
                       " beyond issued TID space");
        return;
      }
    }
  };
  if (main_ok) check_entries(group.main_mvcc, "main");
  if (delta_ok) check_entries(group.delta_mvcc, "delta");
  if (main_ok && delta_ok && ctx.sealed && group.mvcc_seal != 0 &&
      group.mvcc_seal !=
          storage::ComputeGroupMvccSeal(*ctx.region, group)) {
    AddFinding(ctx, "mvcc", FindingSeverity::kTable,
               "MVCC content seal mismatch");
  }
}

void VerifyMainColumn(Ctx& ctx, const PMainColumnMeta& col, DataType type,
                      uint64_t rows, uint64_t column) {
  const auto& region = *ctx.region;
  const std::string where = "main column " + std::to_string(column);
  const bool values_ok =
      CheckDesc(ctx, col.dict_values, 8, where + " dict values");
  const bool blob_ok =
      CheckDesc(ctx, col.dict_blob, 1, where + " dict blob");
  const bool words_ok =
      CheckDesc(ctx, col.attr_words, 8, where + " attr words");
  CheckDesc(ctx, col.gk_offsets, 8, where + " gk offsets");
  CheckDesc(ctx, col.gk_positions, 8, where + " gk positions");

  // Dictionary: strictly sorted; string entries inside the blob. The
  // merge-time content seal is checked whenever present (the main
  // partition is immutable, so it holds even after a crash).
  ++ctx.report->structures_checked;
  bool dict_ok = values_ok && blob_ok;
  if (dict_ok && col.dict_seal != 0 &&
      col.dict_seal != storage::ComputeMainDictSeal(region, col)) {
    AddFinding(ctx, "dictionary", FindingSeverity::kTable,
               where + ": dictionary content seal mismatch");
    dict_ok = false;
  }
  const uint64_t dict_size = col.dict_values.size;
  if (dict_ok && dict_size > 0) {
    const auto* values = reinterpret_cast<const uint64_t*>(
        ContentOf(region, col.dict_values, 8));
    const uint8_t* blob = ContentOf(region, col.dict_blob, 1);
    const uint64_t blob_size = col.dict_blob.size;
    if (values == nullptr) {
      dict_ok = false;
    } else if (type == DataType::kString) {
      std::string_view prev;
      for (uint64_t id = 0; id < dict_size && dict_ok; ++id) {
        std::string_view text;
        if (blob == nullptr ||
            !ReadBlobString(blob, blob_size, values[id], &text)) {
          AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                     where + ": dictionary entry " + std::to_string(id) +
                         " points outside the string blob");
          dict_ok = false;
        } else if (id > 0 && prev >= text) {
          AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                     where + ": dictionary not strictly sorted at id " +
                         std::to_string(id));
          dict_ok = false;
        } else {
          prev = text;
        }
      }
    } else {
      for (uint64_t id = 1; id < dict_size; ++id) {
        if (storage::CompareNumericEncoded(type, values[id - 1],
                                           values[id]) >= 0) {
          AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                     where + ": dictionary not strictly sorted at id " +
                         std::to_string(id));
          dict_ok = false;
          break;
        }
      }
    }
  }

  // Attribute vector: enough packed words, every id within the
  // dictionary. Merge-time seal checked whenever present.
  ++ctx.report->structures_checked;
  bool attr_ok = words_ok;
  if (attr_ok && col.attr_seal != 0 &&
      col.attr_seal != storage::ComputeMainAttrSeal(region, col)) {
    AddFinding(ctx, "attribute_vector", FindingSeverity::kTable,
               where + ": attribute content seal mismatch");
    attr_ok = false;
  }
  if (attr_ok && rows > 0) {
    const uint64_t bits = col.bits;
    if (bits < 1 || bits > 32) {
      AddFinding(ctx, "attribute_vector", FindingSeverity::kTable,
                 where + ": packed width " + std::to_string(bits) +
                     " out of range");
    } else if (col.attr_words.size <
               bitpack::WordsFor(rows, static_cast<uint8_t>(bits))) {
      AddFinding(ctx, "attribute_vector", FindingSeverity::kTable,
                 where + ": attribute vector too short for " +
                     std::to_string(rows) + " rows");
    } else {
      const auto* words = reinterpret_cast<const uint64_t*>(
          ContentOf(region, col.attr_words, 8));
      if (words != nullptr) {
        for (uint64_t r = 0; r < rows; ++r) {
          const uint64_t id =
              bitpack::Get(words, r, static_cast<uint8_t>(bits));
          if (id >= dict_size) {
            AddFinding(ctx, "attribute_vector", FindingSeverity::kTable,
                       where + ": row " + std::to_string(r) +
                           " references value id " + std::to_string(id) +
                           " outside the dictionary (size " +
                           std::to_string(dict_size) + ")");
            break;
          }
        }
      }
    }
  }

  // Group-key CSR: |dict|+1 monotone offsets mapping every row exactly
  // once. Part of the index↔table cross-check.
  if (col.gk_offsets.size != 0) {
    ++ctx.report->structures_checked;
    bool gk_ok = true;
    if (col.gk_seal != 0 &&
        col.gk_seal != storage::ComputeMainGkSeal(region, col)) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 where + ": group-key content seal mismatch");
      gk_ok = false;
    }
    const auto* offsets = reinterpret_cast<const uint64_t*>(
        ContentOf(region, col.gk_offsets, 8));
    if (gk_ok && (offsets == nullptr ||
                  col.gk_offsets.size != dict_size + 1)) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 where + ": group-key offsets have " +
                     std::to_string(col.gk_offsets.size) +
                     " entries, expected " + std::to_string(dict_size + 1));
      gk_ok = false;
    }
    if (gk_ok) {
      for (uint64_t v = 1; v <= dict_size; ++v) {
        if (offsets[v] < offsets[v - 1]) {
          AddFinding(ctx, "index", FindingSeverity::kTable,
                     where + ": group-key offsets not monotone at id " +
                         std::to_string(v));
          gk_ok = false;
          break;
        }
      }
    }
    if (gk_ok &&
        (offsets[0] != 0 || offsets[dict_size] != col.gk_positions.size ||
         col.gk_positions.size != rows)) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 where + ": group-key does not cover the main partition (" +
                     std::to_string(col.gk_positions.size) +
                     " positions for " + std::to_string(rows) + " rows)");
      gk_ok = false;
    }
    if (gk_ok) {
      const auto* positions = reinterpret_cast<const uint64_t*>(
          ContentOf(region, col.gk_positions, 8));
      for (uint64_t i = 0; positions != nullptr && i < rows; ++i) {
        if (positions[i] >= rows) {
          AddFinding(ctx, "index", FindingSeverity::kTable,
                     where + ": group-key position " + std::to_string(i) +
                         " references row " + std::to_string(positions[i]) +
                         " beyond the main partition");
          break;
        }
      }
    }
  }
}

/// The delta dictionary's value→id table: inside the heap, a power-of-two
/// slot count with room for every id, and each id in exactly one slot.
/// Only the last id may be missing — a crash can cut off its slot store,
/// and open re-inserts it (storage/dictionary.h).
void VerifyDictTable(Ctx& ctx, const PDeltaColumnMeta& col,
                     const std::string& where) {
  const auto& region = *ctx.region;
  ++ctx.report->structures_checked;
  const uint64_t dict_size = col.dict_values.size;
  if (col.dict_table == 0) {
    if (dict_size > 0) {
      AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                 where + ": value→id table missing for " +
                     std::to_string(dict_size) + " ids");
    }
    return;
  }
  const auto* table = At<storage::PDictTable>(region, col.dict_table, 1);
  if (table == nullptr || col.dict_table < alloc::PAllocator::HeapBegin()) {
    AddFinding(ctx, "dictionary", FindingSeverity::kTable,
               where + ": value→id table at " +
                   std::to_string(col.dict_table) + " outside the heap");
    return;
  }
  const uint64_t slot_count = table->slot_count;
  if (slot_count == 0 || (slot_count & (slot_count - 1)) != 0 ||
      slot_count <= dict_size + storage::kDictTableHeaderSlots ||
      At<uint32_t>(region, col.dict_table, slot_count) == nullptr) {
    AddFinding(ctx, "dictionary", FindingSeverity::kTable,
               where + ": value→id table has " + std::to_string(slot_count) +
                   " slots for " + std::to_string(dict_size) + " ids");
    return;
  }
  const auto* slots = At<uint32_t>(region, col.dict_table, slot_count);
  std::vector<bool> seen(dict_size, false);
  for (uint64_t pos = storage::kDictTableHeaderSlots; pos < slot_count;
       ++pos) {
    if (slots[pos] == 0) continue;
    const uint64_t id = slots[pos] - 1;
    if (id >= dict_size || seen[id]) {
      AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                 where + ": value→id slot " + std::to_string(pos) +
                     " holds id " + std::to_string(id) +
                     (id >= dict_size ? " outside the dictionary (size " +
                                            std::to_string(dict_size) + ")"
                                      : " a second time"));
      return;
    }
    seen[id] = true;
  }
  for (uint64_t id = 0; id + 1 < dict_size; ++id) {
    if (!seen[id]) {
      AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                 where + ": value→id table misses id " + std::to_string(id));
      return;
    }
  }
}

void VerifyDeltaColumn(Ctx& ctx, const PDeltaColumnMeta& col,
                       DataType type, const PTableGroup& group,
                       uint64_t column) {
  const auto& region = *ctx.region;
  const std::string where = "delta column " + std::to_string(column);
  const bool values_ok =
      CheckDesc(ctx, col.dict_values, 8, where + " dict values");
  const bool blob_ok =
      CheckDesc(ctx, col.dict_blob, 1, where + " dict blob");
  const bool attr_desc_ok = CheckDesc(ctx, col.attr, 4, where + " attr");

  // Dictionary: unsorted but duplicate-free; strings inside the blob.
  ++ctx.report->structures_checked;
  bool dict_ok = values_ok && blob_ok;
  if (dict_ok && ctx.sealed && col.dict_seal != 0 &&
      col.dict_seal != storage::ComputeDeltaDictSeal(region, col)) {
    AddFinding(ctx, "dictionary", FindingSeverity::kTable,
               where + ": dictionary content seal mismatch");
    dict_ok = false;
  }
  const uint64_t dict_size = col.dict_values.size;
  if (dict_ok && dict_size > 0) {
    const auto* values = reinterpret_cast<const uint64_t*>(
        ContentOf(region, col.dict_values, 8));
    const uint8_t* blob = ContentOf(region, col.dict_blob, 1);
    if (values != nullptr) {
      if (type == DataType::kString) {
        std::set<std::string_view> seen;
        for (uint64_t id = 0; id < dict_size; ++id) {
          std::string_view text;
          if (blob == nullptr ||
              !ReadBlobString(blob, col.dict_blob.size, values[id],
                              &text)) {
            AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                       where + ": dictionary entry " + std::to_string(id) +
                           " points outside the string blob");
            break;
          }
          if (!seen.insert(text).second) {
            AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                       where + ": duplicate dictionary value at id " +
                           std::to_string(id));
            break;
          }
        }
      } else {
        std::unordered_set<uint64_t> seen;
        for (uint64_t id = 0; id < dict_size; ++id) {
          if (!seen.insert(values[id]).second) {
            AddFinding(ctx, "dictionary", FindingSeverity::kTable,
                       where + ": duplicate dictionary value at id " +
                           std::to_string(id));
            break;
          }
        }
      }
    }
  }
  if (values_ok) VerifyDictTable(ctx, col, where);

  // Attribute vector: one id per committed delta row, each id within the
  // dictionary. Uncommitted trailing rows may be torn (they are truncated
  // by crash repair), so only rows covered by committed MVCC entries are
  // checked.
  ++ctx.report->structures_checked;
  bool attr_ok = attr_desc_ok;
  if (attr_ok && ctx.sealed && col.attr_seal != 0 &&
      col.attr_seal != storage::ComputeDeltaAttrSeal(region, col)) {
    AddFinding(ctx, "attribute_vector", FindingSeverity::kTable,
               where + ": attribute content seal mismatch");
    attr_ok = false;
  }
  if (attr_ok) {
    const uint64_t committed_rows = group.delta_mvcc.size;
    if (col.attr.size < committed_rows) {
      AddFinding(ctx, "attribute_vector", FindingSeverity::kTable,
                 where + ": attribute vector has " +
                     std::to_string(col.attr.size) + " entries for " +
                     std::to_string(committed_rows) + " delta rows");
    } else {
      const auto* ids = reinterpret_cast<const uint32_t*>(
          ContentOf(region, col.attr, 4));
      const auto* mvcc = reinterpret_cast<const MvccEntry*>(
          ContentOf(region, group.delta_mvcc, sizeof(MvccEntry)));
      if (ids != nullptr && mvcc != nullptr) {
        for (uint64_t r = 0; r < committed_rows; ++r) {
          if (mvcc[r].begin == storage::kCidInfinity) continue;
          if (ids[r] >= dict_size) {
            AddFinding(ctx, "attribute_vector", FindingSeverity::kTable,
                       where + ": committed row " + std::to_string(r) +
                           " references value id " +
                           std::to_string(ids[r]) +
                           " outside the dictionary (size " +
                           std::to_string(dict_size) + ")");
            break;
          }
        }
      }
    }
  }
}

/// Content seal of a hash index: identity fields, the linked count and
/// the heads and links. Skip-list indexes get structural checks only
/// (their entries vector doubles as a variable-width key blob).
uint64_t HashIndexSeal(const nvm::PmemRegion& region,
                       const PIndexMeta& idx) {
  uint32_t crc = Crc32c(&idx.kind, sizeof(idx.kind));
  crc = Crc32c(&idx.column, sizeof(idx.column), crc);
  crc = Crc32c(&idx.linked, sizeof(idx.linked), crc);
  crc = storage::CrcOfVectorContent(region, idx.entries,
                                    sizeof(storage::PIndexSlot), crc);
  return SealTag(crc);
}

void VerifyIndex(Ctx& ctx, const PIndexMeta& idx, const PTableGroup& group,
                 uint64_t num_columns) {
  const auto& region = *ctx.region;
  ++ctx.report->structures_checked;
  const std::string where = "index on column " + std::to_string(idx.column);
  if (idx.column >= num_columns) {
    AddFinding(ctx, "index", FindingSeverity::kTable,
               where + ": column out of range");
    return;
  }
  if (idx.kind == storage::kIndexSkipList) {
    const auto* head = At<storage::PSkipNode>(region, idx.head_off, 1);
    if (head == nullptr || idx.head_off < alloc::PAllocator::HeapBegin()) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 where + ": skip-list head outside the heap");
      return;
    }
    uint64_t off = idx.head_off;
    uint64_t steps = 0;
    const uint64_t max_steps =
        region.size() / sizeof(storage::PSkipNode) + 1;
    while (off != 0) {
      const auto* node = At<storage::PSkipNode>(region, off, 1);
      if (node == nullptr || off < alloc::PAllocator::HeapBegin()) {
        AddFinding(ctx, "index", FindingSeverity::kTable,
                   where + ": skip-list node outside the heap at offset " +
                       std::to_string(off));
        return;
      }
      if (node->height < 1 || node->height > storage::kSkipListMaxHeight) {
        AddFinding(ctx, "index", FindingSeverity::kTable,
                   where + ": skip-list node with impossible height " +
                       std::to_string(node->height));
        return;
      }
      if (++steps > max_steps) {
        AddFinding(ctx, "index", FindingSeverity::kTable,
                   where + ": skip-list level 0 contains a cycle");
        return;
      }
      off = node->next[0];
    }
    return;
  }
  if (idx.kind != storage::kIndexHash) {
    AddFinding(ctx, "index", FindingSeverity::kTable,
               where + ": unknown index kind " + std::to_string(idx.kind));
    return;
  }
  bool healthy = CheckDesc(ctx, idx.entries, sizeof(storage::PIndexSlot),
                           where + " entries");
  if (healthy && ctx.sealed && idx.content_seal != 0 &&
      idx.content_seal != HashIndexSeal(region, idx)) {
    AddFinding(ctx, "index", FindingSeverity::kTable,
               where + ": index content seal mismatch");
    healthy = false;
  }
  if (!healthy) return;
  const PDeltaColumnMeta& col =
      *const_cast<PTableGroup&>(group).delta_col(idx.column, num_columns);
  const uint64_t slot_count = idx.entries.size;
  const uint64_t linked = idx.linked;
  if (linked > group.delta_mvcc.size || linked > col.attr.size ||
      linked > slot_count) {
    AddFinding(ctx, "index", FindingSeverity::kTable,
               where + ": " + std::to_string(linked) +
                   " links outnumber the delta rows (" +
                   std::to_string(group.delta_mvcc.size) + ") or slots (" +
                   std::to_string(slot_count) + ")");
    return;
  }
  if (slot_count == 0) return;
  const auto* slots = reinterpret_cast<const storage::PIndexSlot*>(
      ContentOf(region, idx.entries, sizeof(storage::PIndexSlot)));
  const auto* ids =
      reinterpret_cast<const uint32_t*>(ContentOf(region, col.attr, 4));
  if (slots == nullptr || (linked > 0 && ids == nullptr)) return;
  for (uint64_t row = 0; row < linked; ++row) {
    if (slots[row].link > row) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 where + ": link of row " + std::to_string(row) +
                     " points forward to row " +
                     std::to_string(slots[row].link - 1));
      return;
    }
  }
  // Every link points back, so each chain walk ends; a row holding its
  // chain's id lies on that one chain only.
  uint64_t reached = 0;
  for (uint64_t id = 0; id < slot_count; ++id) {
    const uint64_t head = slots[id].head;
    if (head != 0 && id >= col.dict_values.size) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 where + ": head for id " + std::to_string(id) +
                     " beyond the dictionary (" +
                     std::to_string(col.dict_values.size) + " ids)");
      return;
    }
    if (head > linked) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 where + ": head of id " + std::to_string(id) +
                     " points at row " + std::to_string(head - 1) +
                     " beyond the linked rows (" + std::to_string(linked) +
                     ")");
      return;
    }
    for (uint64_t pos = head; pos != 0; pos = slots[pos - 1].link) {
      if (ids[pos - 1] != id) {
        AddFinding(ctx, "index", FindingSeverity::kTable,
                   where + ": row " + std::to_string(pos - 1) +
                       " on the chain of id " + std::to_string(id) +
                       " holds id " + std::to_string(ids[pos - 1]));
        return;
      }
      ++reached;
    }
  }
  if (linked == 0) return;
  // Only the newest row may be off its chain: a crash cut its insert
  // before the head publish (index/delta_index.h).
  const uint64_t newest_id = ids[linked - 1];
  const bool newest_published =
      newest_id < slot_count && slots[newest_id].head == linked;
  const uint64_t expected = linked - (newest_published ? 0 : 1);
  if (reached != expected) {
    AddFinding(ctx, "index", FindingSeverity::kTable,
               where + ": heads reach " + std::to_string(reached) + " of " +
                   std::to_string(linked) + " linked rows");
  }
}

void VerifyTable(Ctx& ctx, uint64_t meta_off) {
  const auto& region = *ctx.region;
  ctx.table_off = meta_off;
  ctx.table_name = "table@" + std::to_string(meta_off);
  ++ctx.report->tables_checked;
  ++ctx.report->structures_checked;

  const auto* meta = At<PTableMeta>(region, meta_off, 1);
  if (meta == nullptr || meta_off < alloc::PAllocator::HeapBegin()) {
    AddFinding(ctx, "table_meta", FindingSeverity::kTable,
               "table metadata outside the heap");
    return;
  }
  if (std::memchr(meta->name, '\0', PTableMeta::kMaxNameLen) == nullptr) {
    AddFinding(ctx, "table_meta", FindingSeverity::kTable,
               "table name is not NUL-terminated");
    return;
  }
  if (meta->name[0] != '\0') ctx.table_name = meta->name;
  if (!IsAllocatedBlock(region, meta_off)) {
    AddFinding(ctx, "table_meta", FindingSeverity::kTable,
               "table metadata at " + std::to_string(meta_off) +
                   " is not an allocated block");
  }

  // Schema: must deserialize and agree with the recorded column count.
  ++ctx.report->structures_checked;
  const uint8_t* schema_bytes =
      At<uint8_t>(region, meta->schema_off, meta->schema_len);
  if (schema_bytes == nullptr || meta->schema_len == 0) {
    AddFinding(ctx, "schema", FindingSeverity::kTable,
               "schema blob outside the heap");
    return;
  }
  auto schema_result =
      storage::Schema::Deserialize(schema_bytes, meta->schema_len);
  if (!schema_result.ok()) {
    AddFinding(ctx, "schema", FindingSeverity::kTable,
               "schema blob does not deserialize: " +
                   schema_result.status().ToString());
    return;
  }
  const storage::Schema& schema = *schema_result;
  if (schema.num_columns() != meta->num_columns ||
      meta->num_columns == 0) {
    AddFinding(ctx, "schema", FindingSeverity::kTable,
               "schema has " + std::to_string(schema.num_columns()) +
                   " columns, table records " +
                   std::to_string(meta->num_columns));
    return;
  }

  const uint64_t ncols = meta->num_columns;
  const auto* group_bytes =
      At<uint8_t>(region, meta->group_off, PTableGroup::ByteSize(ncols));
  if (group_bytes == nullptr ||
      meta->group_off < alloc::PAllocator::HeapBegin()) {
    AddFinding(ctx, "table_meta", FindingSeverity::kTable,
               "table group outside the heap");
    return;
  }
  if (!IsAllocatedBlock(region, meta->group_off)) {
    AddFinding(ctx, "table_meta", FindingSeverity::kTable,
               "table group at " + std::to_string(meta->group_off) +
                   " is not an allocated block");
  }
  const auto& group = *reinterpret_cast<const PTableGroup*>(group_bytes);
  auto& mutable_group = const_cast<PTableGroup&>(group);

  VerifyMvcc(ctx, group);
  for (uint64_t c = 0; c < ncols; ++c) {
    const DataType type = schema.column(c).type;
    VerifyMainColumn(ctx, *mutable_group.main_col(c), type,
                     group.main_row_count, c);
    VerifyDeltaColumn(ctx, *mutable_group.delta_col(c, ncols), type, group,
                      c);
  }
  for (const auto& idx : group.indexes) {
    if (idx.state == 0) continue;
    if (idx.state != 1) {
      AddFinding(ctx, "index", FindingSeverity::kTable,
                 "index slot in impossible state " +
                     std::to_string(idx.state));
      continue;
    }
    VerifyIndex(ctx, idx, group, ncols);
  }
}

void VerifyCatalogAndTables(Ctx& ctx) {
  const auto& region = *ctx.region;
  ++ctx.report->structures_checked;
  auto root_result = alloc::GetRoot(region, storage::kCatalogRootName);
  if (!root_result.ok()) {
    AddFinding(ctx, "catalog", FindingSeverity::kFatal,
               "catalog root missing: " + root_result.status().ToString());
    return;
  }
  const auto* meta = At<storage::PCatalogMeta>(region, *root_result, 1);
  if (meta == nullptr) {
    AddFinding(ctx, "catalog", FindingSeverity::kFatal,
               "catalog metadata outside region");
    return;
  }
  if (meta->next_table_id == 0) {
    AddFinding(ctx, "catalog", FindingSeverity::kFatal,
               "catalog table-id counter is zero");
    return;
  }
  if (!CheckDesc(ctx, meta->table_meta_offsets, 8, "catalog table list")) {
    // Upgrade: a broken catalog spine takes the whole image down.
    ctx.report->findings.back().severity = FindingSeverity::kFatal;
    ctx.report->findings.back().structure = "catalog";
    return;
  }
  const auto* offsets = reinterpret_cast<const uint64_t*>(
      ContentOf(region, meta->table_meta_offsets, 8));
  for (uint64_t i = 0; offsets != nullptr &&
                       i < meta->table_meta_offsets.size;
       ++i) {
    VerifyTable(ctx, offsets[i]);
    ctx.table_name.clear();
    ctx.table_off = 0;
  }
}

void VerifyBlackbox(Ctx& ctx) {
  const auto& region = *ctx.region;
  const auto geom = obs::BlackboxGeometryFor(region.size());
  if (!geom.enabled()) return;
  ++ctx.report->structures_checked;
  Status status =
      obs::ValidateBlackboxHeader(region.base(), region.size());
  if (!status.ok()) {
    // Diagnostics only: the next attach quarantines (reformats) it, and
    // per-slot CRCs still let dbinspect decode surviving events.
    AddFinding(ctx, "flight_recorder", FindingSeverity::kAdvisory,
               status.message());
  }
}

}  // namespace

bool VerifyReport::has_fatal() const {
  for (const auto& f : findings) {
    if (f.severity == FindingSeverity::kFatal) return true;
  }
  return false;
}

bool VerifyReport::blocking() const {
  for (const auto& f : findings) {
    if (f.severity != FindingSeverity::kAdvisory) return true;
  }
  return false;
}

bool VerifyReport::HasStructure(const std::string& structure) const {
  for (const auto& f : findings) {
    if (f.structure == structure) return true;
  }
  return false;
}

std::string VerifyReport::Summary() const {
  if (findings.empty()) return "no findings";
  std::string out = std::to_string(findings.size()) + " finding(s): ";
  const size_t shown = findings.size() < 6 ? findings.size() : 6;
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) out += ", ";
    out += findings[i].structure;
    if (!findings[i].table.empty()) out += "(" + findings[i].table + ")";
  }
  if (shown < findings.size()) out += ", ...";
  return out;
}

VerifyReport DeepVerify(const nvm::PmemRegion& region) {
  VerifyReport report;
  report.deep = true;
  Ctx ctx;
  ctx.region = &region;
  ctx.report = &report;

  ++report.structures_checked;
  Status header_status = alloc::ValidateRegionHeader(region);
  if (!header_status.ok()) {
    AddFinding(ctx, "region_header", FindingSeverity::kFatal,
               header_status.ToString());
    return report;
  }
  ctx.sealed = alloc::WasCleanShutdown(region);
  report.sealed_image = ctx.sealed;

  VerifyAllocator(ctx);
  VerifyCommitTable(ctx);
  VerifyCatalogAndTables(ctx);
  VerifyBlackbox(ctx);
  return report;
}

void SealForCleanShutdown(alloc::PHeap& heap) {
  auto& region = heap.region();

  auto* alloc_meta = reinterpret_cast<alloc::AllocMeta*>(
      region.base() + alloc::PAllocator::MetaOffset());
  alloc_meta->meta_crc = AllocMetaSeal(*alloc_meta);
  region.Persist(&alloc_meta->meta_crc, sizeof(alloc_meta->meta_crc));

  auto SealDesc = [&region](PVectorDesc* desc) {
    desc->seal = storage::ComputePVectorDescSeal(*desc);
    region.Persist(&desc->seal, sizeof(desc->seal));
  };

  auto txn_root = heap.GetRoot(txn::kTxnStateRootName);
  if (txn_root.ok()) {
    auto* block = heap.Resolve<txn::PTxnStateBlock>(*txn_root);
    block->block_crc = TxnBlockSeal(*block);
    region.Persist(&block->block_crc, sizeof(block->block_crc));
  }

  auto catalog_root = heap.GetRoot(storage::kCatalogRootName);
  if (!catalog_root.ok()) return;
  auto* catalog = heap.Resolve<storage::PCatalogMeta>(*catalog_root);
  SealDesc(&catalog->table_meta_offsets);
  const auto* offsets = reinterpret_cast<const uint64_t*>(
      ContentOf(region, catalog->table_meta_offsets, 8));
  if (offsets == nullptr && catalog->table_meta_offsets.size > 0) return;

  for (uint64_t i = 0; i < catalog->table_meta_offsets.size; ++i) {
    const auto* meta = At<PTableMeta>(region, offsets[i], 1);
    if (meta == nullptr || meta->num_columns == 0) continue;
    const uint64_t ncols = meta->num_columns;
    if (At<uint8_t>(region, meta->group_off,
                    PTableGroup::ByteSize(ncols)) == nullptr) {
      continue;
    }
    auto* group = heap.Resolve<PTableGroup>(meta->group_off);
    SealDesc(&group->main_mvcc);
    SealDesc(&group->delta_mvcc);
    group->mvcc_seal = storage::ComputeGroupMvccSeal(region, *group);
    region.Persist(&group->mvcc_seal, sizeof(group->mvcc_seal));
    for (uint64_t c = 0; c < ncols; ++c) {
      PMainColumnMeta* col = group->main_col(c);
      SealDesc(&col->dict_values);
      SealDesc(&col->dict_blob);
      SealDesc(&col->attr_words);
      SealDesc(&col->gk_offsets);
      SealDesc(&col->gk_positions);
      storage::SealMainColumn(region, col);
      storage::SealMainGroupKey(region, col);
      PDeltaColumnMeta* dcol = group->delta_col(c, ncols);
      SealDesc(&dcol->dict_values);
      SealDesc(&dcol->dict_blob);
      SealDesc(&dcol->attr);
      dcol->dict_seal = storage::ComputeDeltaDictSeal(region, *dcol);
      dcol->attr_seal = storage::ComputeDeltaAttrSeal(region, *dcol);
      region.Persist(&dcol->dict_seal, sizeof(uint64_t) * 2);
    }
    for (auto& idx : group->indexes) {
      if (idx.state != 1) continue;
      if (idx.kind == storage::kIndexHash) {
        idx.content_seal = HashIndexSeal(region, idx);
        region.Persist(&idx.content_seal, sizeof(idx.content_seal));
      }
    }
  }
}

}  // namespace hyrise_nv::recovery
