#include "storage/catalog.h"

#include <cstring>

namespace hyrise_nv::storage {

Result<std::unique_ptr<Catalog>> Catalog::Format(alloc::PHeap& heap) {
  alloc::IntentHandle intent;
  auto meta_off_result =
      heap.allocator().AllocWithIntent(sizeof(PCatalogMeta), &intent);
  if (!meta_off_result.ok()) return meta_off_result.status();
  const uint64_t meta_off = *meta_off_result;
  auto* meta = heap.Resolve<PCatalogMeta>(meta_off);
  std::memset(meta, 0, sizeof(PCatalogMeta));
  meta->next_table_id = 1;
  heap.region().Persist(meta, sizeof(PCatalogMeta));
  HYRISE_NV_RETURN_NOT_OK(heap.SetRoot(kCatalogRootName, meta_off));
  heap.allocator().CommitIntent(intent);

  auto catalog = std::unique_ptr<Catalog>(new Catalog(heap));
  catalog->meta_ = meta;
  catalog->table_offsets_ = alloc::PVector<uint64_t>(
      &heap.region(), &heap.allocator(), &meta->table_meta_offsets);
  return catalog;
}

Result<std::unique_ptr<Catalog>> Catalog::Attach(
    alloc::PHeap& heap,
    const std::unordered_set<uint64_t>* skip_table_offsets) {
  auto root_result = heap.GetRoot(kCatalogRootName);
  if (!root_result.ok()) return root_result.status();
  auto catalog = std::unique_ptr<Catalog>(new Catalog(heap));
  catalog->meta_ = heap.Resolve<PCatalogMeta>(*root_result);
  catalog->table_offsets_ = alloc::PVector<uint64_t>(
      &heap.region(), &heap.allocator(),
      &catalog->meta_->table_meta_offsets);
  HYRISE_NV_RETURN_NOT_OK(
      catalog->BindAndAttachTables(skip_table_offsets));
  return catalog;
}

Status Catalog::BindAndAttachTables(
    const std::unordered_set<uint64_t>* skip_table_offsets) {
  HYRISE_NV_RETURN_NOT_OK(table_offsets_.Validate());
  tables_.clear();
  for (uint64_t i = 0; i < table_offsets_.size(); ++i) {
    const uint64_t off = table_offsets_.Get(i);
    if (skip_table_offsets != nullptr && skip_table_offsets->count(off)) {
      continue;
    }
    auto table_result = Table::Attach(*heap_, off);
    if (!table_result.ok()) return table_result.status();
    tables_.push_back(std::move(table_result).ValueUnsafe());
  }
  return Status::OK();
}

Result<Table*> Catalog::CreateTable(const std::string& name,
                                    const Schema& schema) {
  return RestoreTable(name, schema, meta_->next_table_id);
}

Result<Table*> Catalog::RestoreTable(const std::string& name,
                                     const Schema& schema,
                                     uint64_t table_id) {
  for (const auto& table : tables_) {
    if (table->name() == name) {
      return Status::AlreadyExists("table '" + name + "' already exists");
    }
    if (table->id() == table_id) {
      return Status::AlreadyExists("table id already in use");
    }
  }
  alloc::IntentHandle publish_intent;
  auto meta_off_result =
      Table::Create(*heap_, name, table_id, schema, &publish_intent);
  if (!meta_off_result.ok()) return meta_off_result.status();

  // The catalog append is the durability point of the DDL: once the
  // offset is in the table list, the table exists across crashes. The
  // intent is retired first: a crash before the append then leaks the
  // table's blocks, whereas the other order would let allocator recovery
  // free a published table.
  heap_->allocator().CommitIntent(publish_intent);
  Status append_status = table_offsets_.Append(*meta_off_result);
  if (!append_status.ok()) {
    (void)heap_->allocator().Free(*meta_off_result);
    return append_status;
  }
  if (table_id + 1 > meta_->next_table_id) {
    heap_->region().AtomicPersist64(&meta_->next_table_id, table_id + 1);
  }

  auto table_result = Table::Attach(*heap_, *meta_off_result);
  if (!table_result.ok()) return table_result.status();
  tables_.push_back(std::move(table_result).ValueUnsafe());
  return tables_.back().get();
}

Result<Table*> Catalog::GetTableById(uint64_t table_id) const {
  for (const auto& table : tables_) {
    if (table->id() == table_id) return table.get();
  }
  return Status::NotFound("no table with id " + std::to_string(table_id));
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  for (const auto& table : tables_) {
    if (table->name() == name) return table.get();
  }
  return Status::NotFound("no table named '" + name + "'");
}

Status Catalog::RepairAfterCrash() {
  for (auto& table : tables_) {
    HYRISE_NV_RETURN_NOT_OK(table->RepairAfterCrash());
  }
  return Status::OK();
}

}  // namespace hyrise_nv::storage
