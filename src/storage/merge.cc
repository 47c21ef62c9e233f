#include "storage/merge.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/bit_util.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "storage/checksums.h"
#include "storage/dictionary.h"

namespace hyrise_nv::storage {

namespace {

/// Frees the active buffer of a persistent vector (used when retiring the
/// old group). Best-effort: failures only leak.
void FreeVectorBuffer(alloc::PAllocator& alloc,
                      const alloc::PVectorDesc& desc) {
  const auto& slot = desc.slots[desc.version & 1];
  if (slot.data != 0) {
    (void)alloc.Free(slot.data);
  }
}

/// Per-column dictionary merge result: the merged (sorted, distinct)
/// dictionary plus id remappings for both old partitions.
struct DictMerge {
  std::vector<uint64_t> merged_values;  // numeric bits or *new* blob offsets
  std::vector<char> merged_blob;        // strings only
  std::vector<ValueId> main_map;        // old main id -> new id
  std::vector<ValueId> delta_map;       // old delta id -> new id
};

DictMerge MergeNumericDicts(DataType type,
                            const alloc::PVector<uint64_t>& main_values,
                            const DeltaDictionary& delta_dict) {
  DictMerge out;
  const uint64_t n_main = main_values.size();
  const uint64_t n_delta = delta_dict.size();
  out.main_map.resize(n_main, kInvalidValueId);
  out.delta_map.resize(n_delta, kInvalidValueId);

  // Delta ids sorted by value; main is already sorted.
  std::vector<std::pair<uint64_t, ValueId>> delta_sorted;
  delta_sorted.reserve(n_delta);
  // The delta dictionary stores numeric bits directly in its value vector;
  // re-encode through the public accessor to stay independent of layout.
  for (uint64_t id = 0; id < n_delta; ++id) {
    delta_sorted.emplace_back(
        EncodeNumeric(delta_dict.GetValue(static_cast<ValueId>(id)), type),
        static_cast<ValueId>(id));
  }
  std::sort(delta_sorted.begin(), delta_sorted.end(),
            [type](const auto& a, const auto& b) {
              return CompareNumericEncoded(type, a.first, b.first) < 0;
            });

  uint64_t i = 0, j = 0;
  while (i < n_main || j < n_delta) {
    int cmp;
    if (i >= n_main) {
      cmp = 1;
    } else if (j >= n_delta) {
      cmp = -1;
    } else {
      cmp = CompareNumericEncoded(type, main_values.Get(i),
                                  delta_sorted[j].first);
    }
    const auto new_id = static_cast<ValueId>(out.merged_values.size());
    if (cmp < 0) {
      out.merged_values.push_back(main_values.Get(i));
      out.main_map[i++] = new_id;
    } else if (cmp > 0) {
      out.merged_values.push_back(delta_sorted[j].first);
      out.delta_map[delta_sorted[j++].second] = new_id;
    } else {
      out.merged_values.push_back(main_values.Get(i));
      out.main_map[i++] = new_id;
      out.delta_map[delta_sorted[j++].second] = new_id;
    }
  }
  return out;
}

DictMerge MergeStringDicts(const MainDictionary& main_dict,
                           const alloc::PVector<uint64_t>& main_values,
                           const DeltaDictionary& delta_dict) {
  DictMerge out;
  const uint64_t n_main = main_values.size();
  const uint64_t n_delta = delta_dict.size();
  out.main_map.resize(n_main, kInvalidValueId);
  out.delta_map.resize(n_delta, kInvalidValueId);

  // Materialise both dictionaries' strings (views would dangle once we
  // start writing the new blob, and merge is stop-the-world anyway).
  std::vector<std::string> main_strings(n_main);
  for (uint64_t id = 0; id < n_main; ++id) {
    main_strings[id] = std::get<std::string>(
        main_dict.GetValue(static_cast<ValueId>(id)));
  }
  std::vector<std::pair<std::string, ValueId>> delta_sorted;
  delta_sorted.reserve(n_delta);
  for (uint64_t id = 0; id < n_delta; ++id) {
    delta_sorted.emplace_back(std::get<std::string>(delta_dict.GetValue(
                                  static_cast<ValueId>(id))),
                              static_cast<ValueId>(id));
  }
  std::sort(delta_sorted.begin(), delta_sorted.end());

  auto emit = [&out](const std::string& text) -> ValueId {
    const auto new_id = static_cast<ValueId>(out.merged_values.size());
    const uint64_t offset = out.merged_blob.size();
    const uint32_t len = static_cast<uint32_t>(text.size());
    out.merged_blob.resize(offset + 4 + text.size());
    std::memcpy(out.merged_blob.data() + offset, &len, 4);
    std::memcpy(out.merged_blob.data() + offset + 4, text.data(),
                text.size());
    out.merged_values.push_back(offset);
    return new_id;
  };

  uint64_t i = 0, j = 0;
  while (i < n_main || j < n_delta) {
    int cmp;
    if (i >= n_main) {
      cmp = 1;
    } else if (j >= n_delta) {
      cmp = -1;
    } else {
      cmp = main_strings[i].compare(delta_sorted[j].first);
    }
    if (cmp < 0) {
      out.main_map[i] = emit(main_strings[i]);
      ++i;
    } else if (cmp > 0) {
      out.delta_map[delta_sorted[j].second] = emit(delta_sorted[j].first);
      ++j;
    } else {
      const ValueId id = emit(main_strings[i]);
      out.main_map[i++] = id;
      out.delta_map[delta_sorted[j++].second] = id;
    }
  }
  return out;
}

/// Builds the group-key CSR (offsets + positions) for one column of the
/// new main.
Status BuildGroupKeyIndex(nvm::PmemRegion& region,
                          alloc::PAllocator& alloc, PMainColumnMeta* col,
                          const std::vector<ValueId>& attr_ids,
                          uint64_t dict_size) {
  std::vector<uint64_t> offsets(dict_size + 1, 0);
  for (const ValueId id : attr_ids) offsets[id + 1]++;
  for (uint64_t v = 1; v <= dict_size; ++v) offsets[v] += offsets[v - 1];
  std::vector<uint64_t> positions(attr_ids.size());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint64_t row = 0; row < attr_ids.size(); ++row) {
    positions[cursor[attr_ids[row]]++] = row;
  }
  alloc::PVector<uint64_t> gk_offsets(&region, &alloc, &col->gk_offsets);
  alloc::PVector<uint64_t> gk_positions(&region, &alloc,
                                        &col->gk_positions);
  HYRISE_NV_RETURN_NOT_OK(gk_offsets.BulkAppend(offsets.data(),
                                                offsets.size()));
  HYRISE_NV_RETURN_NOT_OK(
      gk_positions.BulkAppend(positions.data(), positions.size()));
  SealMainGroupKey(region, col);
  return Status::OK();
}

}  // namespace

Status BuildMainGroupKey(Table& table, uint64_t column) {
  auto& heap = table.heap();
  PMainColumnMeta* col = table.group()->main_col(column);
  const MainColumn& main_col = table.main().column(column);
  const uint64_t rows = table.main_row_count();
  std::vector<ValueId> attr_ids(rows);
  for (uint64_t r = 0; r < rows; ++r) attr_ids[r] = main_col.AttrAt(r);
  return BuildGroupKeyIndex(heap.region(), heap.allocator(), col, attr_ids,
                            main_col.dictionary().size());
}

Result<MergeStats> MergeTable(Table& table, Cid snapshot) {
  Stopwatch timer;
  MergeStats stats;
  auto& heap = table.heap();
  auto& region = heap.region();
  auto& alloc = heap.allocator();
  const Schema& schema = table.schema();
  const uint64_t ncols = schema.num_columns();
  PTableGroup* old_group = table.group();

  stats.main_rows_before = table.main_row_count();
  stats.delta_rows_before = table.delta_row_count();

  // 1. Survivors: committed-and-not-deleted versions as of `snapshot`.
  std::vector<RowLocation> survivors;
  survivors.reserve(stats.main_rows_before + stats.delta_rows_before);
  table.ForEachVisibleRow(snapshot, kTidNone, [&](RowLocation loc) {
    survivors.push_back(loc);
  });
  stats.rows_after = survivors.size();
  stats.dropped_rows =
      stats.main_rows_before + stats.delta_rows_before - survivors.size();

  // 2. Allocate the new group.
  alloc::IntentHandle group_intent;
  auto group_off_result = alloc.AllocWithIntent(
      PTableGroup::ByteSize(ncols), &group_intent);
  if (!group_off_result.ok()) return group_off_result.status();
  const uint64_t new_group_off = *group_off_result;
  auto* new_group = heap.Resolve<PTableGroup>(new_group_off);
  std::memset(new_group, 0, PTableGroup::ByteSize(ncols));
  MainPartition::Format(region, new_group, ncols);
  DeltaPartition::Format(region, new_group, ncols);

  // 3. Per column: merged dictionary + re-encoded attribute vector +
  //    group-key index for previously indexed columns.
  for (uint64_t c = 0; c < ncols; ++c) {
    const DataType type = schema.column(c).type;
    const MainColumn& old_main = table.main().column(c);
    const DeltaColumn& old_delta = table.delta().column(c);

    // Reach the old main's raw sorted values through a temporary handle.
    alloc::PVector<uint64_t> old_main_values(
        &region, &alloc, &old_group->main_col(c)->dict_values);

    DictMerge merge =
        type == DataType::kString
            ? MergeStringDicts(old_main.dictionary(), old_main_values,
                               old_delta.dictionary())
            : MergeNumericDicts(type, old_main_values,
                                old_delta.dictionary());

    // New attribute ids in survivor order.
    std::vector<ValueId> attr_ids(survivors.size());
    for (uint64_t r = 0; r < survivors.size(); ++r) {
      const RowLocation loc = survivors[r];
      const ValueId old_id = loc.in_main ? old_main.AttrAt(loc.row)
                                         : old_delta.AttrAt(loc.row);
      attr_ids[r] = loc.in_main ? merge.main_map[old_id]
                                : merge.delta_map[old_id];
      HYRISE_NV_DCHECK(attr_ids[r] != kInvalidValueId,
                       "merge lost a dictionary mapping");
    }

    PMainColumnMeta* new_col = new_group->main_col(c);
    alloc::PVector<uint64_t> new_values(&region, &alloc,
                                        &new_col->dict_values);
    HYRISE_NV_RETURN_NOT_OK(new_values.BulkAppend(
        merge.merged_values.data(), merge.merged_values.size()));
    if (type == DataType::kString) {
      alloc::PVector<char> new_blob(&region, &alloc, &new_col->dict_blob);
      HYRISE_NV_RETURN_NOT_OK(new_blob.BulkAppend(
          merge.merged_blob.data(), merge.merged_blob.size()));
    }
    const uint8_t bits = BitsFor(
        merge.merged_values.empty() ? 0 : merge.merged_values.size() - 1);
    new_col->bits = bits;
    region.Persist(&new_col->bits, sizeof(new_col->bits));
    alloc::PVector<uint64_t> new_words(&region, &alloc,
                                       &new_col->attr_words);
    HYRISE_NV_RETURN_NOT_OK(PackedAttributeVector::Build(
        new_words, bits, attr_ids.data(), attr_ids.size()));
    SealMainColumn(region, new_col);

    // Group-key index if this column was indexed in the old group.
    for (uint64_t s = 0; s < kMaxIndexesPerTable; ++s) {
      if (old_group->indexes[s].state == 1 &&
          old_group->indexes[s].column == c) {
        HYRISE_NV_RETURN_NOT_OK(BuildGroupKeyIndex(
            region, alloc, new_col, attr_ids, merge.merged_values.size()));
        break;
      }
    }
  }

  // 4. New main MVCC: keep original begin CIDs, clear claims/ends.
  {
    alloc::PVector<MvccEntry> new_mvcc(&region, &alloc,
                                       &new_group->main_mvcc);
    std::vector<MvccEntry> entries(survivors.size());
    for (uint64_t r = 0; r < survivors.size(); ++r) {
      const MvccEntry* old_entry = table.mvcc(survivors[r]);
      entries[r].begin = old_entry->begin;
      entries[r].end = kCidInfinity;
      entries[r].tid = kTidNone;
    }
    HYRISE_NV_RETURN_NOT_OK(
        new_mvcc.BulkAppend(entries.data(), entries.size()));
    new_group->main_row_count = survivors.size();
    region.Persist(&new_group->main_row_count,
                   sizeof(new_group->main_row_count));
  }

  // 5. Fresh (empty) delta-side index slots for previously indexed
  //    columns, preserving each index's kind.
  for (uint64_t s = 0; s < kMaxIndexesPerTable; ++s) {
    const PIndexMeta& old_idx = old_group->indexes[s];
    if (old_idx.state != 1) continue;
    PIndexMeta* new_idx = &new_group->indexes[s];
    new_idx->kind = old_idx.kind;
    new_idx->column = old_idx.column;
    alloc::PVector<PIndexSlot>::Format(region, &new_idx->entries);
    if (old_idx.kind == kIndexSkipList) {
      // Fresh head node for an empty skip list.
      auto head_result = alloc.Alloc(sizeof(PSkipNode));
      if (!head_result.ok()) return head_result.status();
      auto* head =
          reinterpret_cast<PSkipNode*>(region.base() + *head_result);
      std::memset(head, 0, sizeof(PSkipNode));
      head->height = kSkipListMaxHeight;
      region.Persist(head, sizeof(PSkipNode));
      new_idx->head_off = *head_result;
    }
    new_idx->state = 1;
    region.Persist(new_idx, sizeof(PIndexMeta));
  }

  // 6. Publish: persist the whole group, retire its intent (a crash
  //    before the swap then only leaks the group, instead of allocator
  //    recovery freeing a published one), then the single atomic swap.
  region.Persist(new_group, PTableGroup::ByteSize(ncols));
  alloc.CommitIntent(group_intent);
  region.AtomicPersist64(&table.meta()->group_off, new_group_off);

  // 7. Retire the old group (best-effort; a crash here only leaks).
  for (uint64_t c = 0; c < ncols; ++c) {
    PMainColumnMeta* col = old_group->main_col(c);
    FreeVectorBuffer(alloc, col->dict_values);
    FreeVectorBuffer(alloc, col->dict_blob);
    FreeVectorBuffer(alloc, col->attr_words);
    FreeVectorBuffer(alloc, col->gk_offsets);
    FreeVectorBuffer(alloc, col->gk_positions);
    PDeltaColumnMeta* dcol = old_group->delta_col(c, ncols);
    FreeVectorBuffer(alloc, dcol->dict_values);
    FreeVectorBuffer(alloc, dcol->dict_blob);
    FreeVectorBuffer(alloc, dcol->attr);
    DeltaDictionary::FreeTables(alloc, region, dcol->dict_table);
  }
  FreeVectorBuffer(alloc, old_group->main_mvcc);
  FreeVectorBuffer(alloc, old_group->delta_mvcc);
  for (uint64_t s = 0; s < kMaxIndexesPerTable; ++s) {
    if (old_group->indexes[s].state == 1) {
      FreeVectorBuffer(alloc, old_group->indexes[s].entries);
    }
  }
  (void)alloc.Free(region.OffsetOf(old_group));

  HYRISE_NV_RETURN_NOT_OK(table.ReattachGroup());
  stats.seconds = timer.ElapsedSeconds();
#if HYRISE_NV_METRICS_ENABLED
  auto& registry = obs::MetricsRegistry::Instance();
  static obs::Histogram& duration =
      registry.GetHistogram("merge.duration_ns");
  static obs::Counter& merges = registry.GetCounter("merge.count");
  static obs::Counter& merged_rows =
      registry.GetCounter("merge.rows.merged");
  static obs::Counter& dropped_rows =
      registry.GetCounter("merge.rows.dropped");
  duration.Record(static_cast<uint64_t>(stats.seconds * 1e9));
  merges.Inc();
  merged_rows.Add(stats.rows_after);
  dropped_rows.Add(stats.dropped_rows);
#endif
  return stats;
}

}  // namespace hyrise_nv::storage
