#include "wal/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "common/byte_codec.h"
#include "common/crc32.h"
#include "nvm/nvm_env.h"
#include "storage/layout.h"

namespace hyrise_nv::wal {

namespace {

constexpr uint64_t kCheckpointMagic = 0x48594E5643504B31ull;  // "HYNVCPK1"
constexpr uint32_t kCheckpointVersion = 1;

Status Truncated() { return Status::Corruption("checkpoint truncated"); }

template <typename T>
void WritePVector(ByteWriter& out, const alloc::PVector<T>& vec) {
  out.U64(vec.size());
  out.Raw(vec.data(), vec.size() * sizeof(T));
}

template <typename T>
Status ReadPVector(ByteReader& in, alloc::PVector<T>& vec) {
  const uint64_t count = in.Count(in.U64(), sizeof(T));
  const uint8_t* data = in.Bytes(count * sizeof(T));
  if (!in.ok()) return Truncated();
  if (count == 0) return Status::OK();
  return vec.BulkAppend(reinterpret_cast<const T*>(data), count);
}

void SerializeTable(ByteWriter& out, storage::Table& table) {
  auto& heap = table.heap();
  auto& region = heap.region();
  auto& alloc = heap.allocator();
  storage::PTableGroup* group = table.group();
  const uint64_t ncols = table.schema().num_columns();

  out.Str(table.name());
  out.U64(table.id());
  const std::vector<uint8_t> schema = table.schema().Serialize();
  out.U64(schema.size());
  out.Raw(schema.data(), schema.size());

  uint32_t index_count = 0;
  for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
    if (group->indexes[s].state == 1) ++index_count;
  }
  out.U32(index_count);
  for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
    if (group->indexes[s].state == 1) {
      out.U64(group->indexes[s].column);
      out.U64(group->indexes[s].kind);
    }
  }

  out.U64(table.main_row_count());
  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PMainColumnMeta* col = group->main_col(c);
    out.U64(col->bits);
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint64_t> words(&region, &alloc, &col->attr_words);
    WritePVector(out, dict);
    WritePVector(out, blob);
    WritePVector(out, words);
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->main_mvcc);
    WritePVector(out, mvcc);
  }

  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PDeltaColumnMeta* col = group->delta_col(c, ncols);
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint32_t> attr(&region, &alloc, &col->attr);
    WritePVector(out, dict);
    WritePVector(out, blob);
    WritePVector(out, attr);
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->delta_mvcc);
    WritePVector(out, mvcc);
  }
}

Status DeserializeTable(ByteReader& in, alloc::PHeap& heap,
                        storage::Catalog& catalog, CheckpointInfo* info) {
  auto& region = heap.region();
  auto& alloc = heap.allocator();

  const std::string name = in.Str();
  const uint64_t table_id = in.U64();
  const uint64_t schema_len = in.U64();
  const uint8_t* schema_bytes = in.Bytes(schema_len);
  if (!in.ok()) return Truncated();
  HYRISE_NV_ASSIGN_OR_RETURN(
      const storage::Schema schema,
      storage::Schema::Deserialize(schema_bytes, schema_len));
  const uint64_t ncols = schema.num_columns();

  auto table_result = catalog.RestoreTable(name, schema, table_id);
  if (!table_result.ok()) return table_result.status();
  storage::Table* table = *table_result;
  storage::PTableGroup* group = table->group();

  const uint64_t index_count = in.Count(in.U32(), 2 * sizeof(uint64_t));
  for (uint64_t i = 0; i < index_count; ++i) {
    const uint64_t column = in.U64();
    const uint64_t kind = in.U64();
    info->indexed_columns.push_back({name, column, kind});
  }

  const uint64_t main_rows = in.U64();
  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PMainColumnMeta* col = group->main_col(c);
    col->bits = in.U64();
    region.Persist(&col->bits, sizeof(col->bits));
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint64_t> words(&region, &alloc, &col->attr_words);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, dict));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, blob));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, words));
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->main_mvcc);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, mvcc));
  }
  group->main_row_count = main_rows;
  region.Persist(&group->main_row_count, sizeof(group->main_row_count));

  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PDeltaColumnMeta* col = group->delta_col(c, ncols);
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint32_t> attr(&region, &alloc, &col->attr);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, dict));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, blob));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, attr));
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->delta_mvcc);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(in, mvcc));
  }
  HYRISE_NV_RETURN_NOT_OK(table->ReattachGroup());
  // The delta dictionaries were bulk-loaded without their value→id
  // tables: build them, once.
  return table->RepairAfterCrash();
}

}  // namespace

Status WriteCheckpoint(const std::string& path,
                       const BlockDeviceOptions& device_options,
                       storage::Catalog& catalog,
                       txn::CommitTable& commit_table,
                       uint64_t log_offset) {
  std::vector<uint8_t> bytes;
  ByteWriter out(&bytes);
  out.U64(kCheckpointMagic);
  out.U32(kCheckpointVersion);
  out.U64(log_offset);
  out.U64(commit_table.block()->commit_watermark);
  out.U64(commit_table.block()->tid_block);
  out.U64(commit_table.block()->cid_block);
  out.U32(static_cast<uint32_t>(catalog.num_tables()));
  for (const auto& table : catalog.tables()) {
    SerializeTable(out, *table);
  }
  out.U32(MaskCrc(Crc32c(bytes.data(), bytes.size())));

  // Write to a temp file and rename, so a crash never clobbers the
  // previous checkpoint.
  const std::string tmp_path = path + ".tmp";
  {
    auto device_result = BlockDevice::Create(tmp_path, device_options);
    if (!device_result.ok()) return device_result.status();
    auto append_result =
        (*device_result)->Append(bytes.data(), bytes.size());
    if (!append_result.ok()) return append_result.status();
    HYRISE_NV_RETURN_NOT_OK((*device_result)->Sync());
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("checkpoint rename failed");
  }
  return Status::OK();
}

Result<CheckpointInfo> LoadCheckpoint(
    const std::string& path, const BlockDeviceOptions& device_options,
    alloc::PHeap& heap, storage::Catalog& catalog,
    txn::CommitTable& commit_table) {
  if (!nvm::FileExists(path)) {
    return Status::NotFound("no checkpoint at " + path);
  }
  auto device_result = BlockDevice::Open(path, device_options);
  if (!device_result.ok()) return device_result.status();
  BlockDevice& device = **device_result;
  if (device.size() < 8 + 4 + 8 * 4 + 4 + 4) {
    return Status::Corruption("checkpoint too small");
  }
  std::vector<uint8_t> data(device.size());
  HYRISE_NV_RETURN_NOT_OK(device.Read(0, data.data(), data.size()));

  const size_t content_len = data.size() - 4;
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + content_len, 4);
  if (stored_crc != MaskCrc(Crc32c(data.data(), content_len))) {
    return Status::Corruption("checkpoint CRC mismatch");
  }

  ByteReader in(data.data(), content_len);
  const uint64_t magic = in.U64();
  const uint32_t version = in.U32();
  if (magic != kCheckpointMagic || version != kCheckpointVersion) {
    return Status::Corruption("bad checkpoint header");
  }
  CheckpointInfo info;
  info.bytes = data.size();
  info.log_offset = in.U64();
  const uint64_t watermark = in.U64();
  const uint64_t tid_block = in.U64();
  const uint64_t cid_block = in.U64();
  info.watermark = watermark;

  const uint64_t table_count = in.Count(in.U32());
  for (uint64_t t = 0; t < table_count; ++t) {
    HYRISE_NV_RETURN_NOT_OK(DeserializeTable(in, heap, catalog, &info));
  }
  if (!in.ok()) return Truncated();

  // Restore transaction state.
  auto* block = commit_table.block();
  heap.region().AtomicPersist64(&block->commit_watermark, watermark);
  heap.region().AtomicPersist64(&block->tid_block, tid_block);
  heap.region().AtomicPersist64(&block->cid_block, cid_block);
  return info;
}

}  // namespace hyrise_nv::wal
