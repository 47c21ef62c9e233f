// Corruption matrix: flip one bit in each persistent structure class of a
// cleanly shut down NVM image and assert that deep verification detects
// it and attributes it to the right structure.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>

#include "alloc/pallocator.h"
#include "alloc/pvector.h"
#include "alloc/region_header.h"
#include "core/database.h"
#include "nvm/nvm_env.h"
#include "recovery/verify.h"
#include "storage/catalog.h"
#include "storage/layout.h"
#include "txn/commit_table.h"

namespace hyrise_nv::recovery {
namespace {

using storage::DataType;
using storage::Value;

storage::Schema KvSchema() {
  return *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"v", DataType::kString}});
}

/// Builds a representative database image: a merged main partition with
/// group-key index, a populated delta, a hash index, and a clean
/// shutdown (so every seal is authoritative). Returns the image path.
std::string BuildPristineImage(const std::string& dir) {
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  options.tracking = nvm::TrackingMode::kNone;
  auto db = std::move(core::Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  EXPECT_TRUE(db->CreateIndex("kv", 0).ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(db->InsertAutoCommit(
                      table, {Value(int64_t{i}),
                              Value(std::string("v") + std::to_string(i))})
                    .ok());
  }
  EXPECT_TRUE(db->Merge("kv").ok());
  for (int i = 100; i < 110; ++i) {
    EXPECT_TRUE(db->InsertAutoCommit(
                      table, {Value(int64_t{i}),
                              Value(std::string("d") + std::to_string(i))})
                    .ok());
  }
  EXPECT_TRUE(db->Close().ok());
  return options.NvmImagePath();
}

/// Navigation helpers over a mapped image — the same pointer walk the
/// verifier performs, used here to find a byte worth corrupting.
struct Nav {
  nvm::PmemRegion& region;

  template <typename T>
  T* At(uint64_t off) {
    return reinterpret_cast<T*>(region.base() + off);
  }
  uint64_t OffsetOf(const void* ptr) const {
    return static_cast<uint64_t>(reinterpret_cast<const uint8_t*>(ptr) -
                                 region.base());
  }
  static uint64_t DescData(const alloc::PVectorDesc& desc) {
    return desc.slots[desc.version & 1].data;
  }
  storage::PCatalogMeta* Catalog() {
    return At<storage::PCatalogMeta>(
        *alloc::GetRoot(region, storage::kCatalogRootName));
  }
  storage::PTableMeta* FirstTable() {
    auto* catalog = Catalog();
    auto* offsets = At<uint64_t>(DescData(catalog->table_meta_offsets));
    return At<storage::PTableMeta>(offsets[0]);
  }
  storage::PTableGroup* Group() {
    return At<storage::PTableGroup>(FirstTable()->group_off);
  }
};

class CorruptionMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Build the pristine image once; each test corrupts a private copy.
    static const std::string* pristine = [] {
      const std::string dir = nvm::TempPath("corruption_matrix_src");
      std::filesystem::create_directories(dir);
      return new std::string(BuildPristineImage(dir));
    }();
    image_ = nvm::TempPath("corruption_matrix_img");
    std::filesystem::copy_file(*pristine, image_);
  }
  void TearDown() override { nvm::RemoveFileIfExists(image_); }

  /// Maps the image, lets `locate` pick a byte, XORs one bit into it,
  /// and writes the image back out.
  void FlipBit(const std::function<uint64_t(Nav&)>& locate,
               uint8_t mask = 0x04) {
    nvm::PmemRegionOptions options;
    options.file_path = image_;
    options.tracking = nvm::TrackingMode::kNone;
    auto region_result = nvm::PmemRegion::Open(options);
    ASSERT_TRUE(region_result.ok()) << region_result.status().ToString();
    auto region = std::move(region_result).ValueUnsafe();
    Nav nav{*region};
    const uint64_t off = locate(nav);
    ASSERT_LT(off, region->size());
    region->base()[off] ^= mask;
    region->Persist(region->base() + off, 1);
    ASSERT_TRUE(region->SyncToFile().ok());
  }

  /// Maps the image and lets `edit` rewrite the hash index's slots (head
  /// and link each hold 1 + a delta row). The content seal is cleared, so
  /// only the structural checks can catch the damage.
  void EditHashIndex(
      const std::function<void(storage::PIndexSlot* slots)>& edit) {
    nvm::PmemRegionOptions options;
    options.file_path = image_;
    options.tracking = nvm::TrackingMode::kNone;
    auto region = std::move(nvm::PmemRegion::Open(options)).ValueUnsafe();
    Nav nav{*region};
    storage::PIndexMeta* idx = nullptr;
    for (auto& slot : nav.Group()->indexes) {
      if (slot.state == 1 && slot.kind == storage::kIndexHash) idx = &slot;
    }
    ASSERT_NE(idx, nullptr) << "image has no hash index";
    edit(nav.At<storage::PIndexSlot>(Nav::DescData(idx->entries)));
    idx->content_seal = 0;
    ASSERT_TRUE(region->SyncToFile().ok());
  }

  /// Opens a copy of the image normally and looks `key` up through the
  /// hash index.
  Status LookupInCopy(const std::string& name, int64_t key) {
    core::DatabaseOptions options;
    options.mode = core::DurabilityMode::kNvm;
    options.region_size = 64 << 20;
    options.data_dir = nvm::TempPath(name);
    options.tracking = nvm::TrackingMode::kNone;
    std::filesystem::create_directories(options.data_dir);
    std::filesystem::copy_file(image_, options.NvmImagePath());
    Status status;
    {
      auto db_result = core::Database::Open(options);
      if (!db_result.ok()) return db_result.status();
      auto& db = *db_result;
      status = db->ScanEqual(*db->GetTable("kv"), 0, Value(key),
                             db->ReadSnapshot(), storage::kTidNone)
                   .status();
    }
    std::error_code ec;
    std::filesystem::remove_all(options.data_dir, ec);
    return status;
  }

  VerifyReport Verify() {
    nvm::PmemRegionOptions options;
    options.file_path = image_;
    options.tracking = nvm::TrackingMode::kNone;
    auto region = std::move(nvm::PmemRegion::Open(options)).ValueUnsafe();
    return DeepVerify(*region);
  }

  std::string image_;
};

TEST_F(CorruptionMatrixTest, PristineImageVerifiesClean) {
  VerifyReport report = Verify();
  EXPECT_TRUE(report.clean()) << report.Summary();
  EXPECT_TRUE(report.sealed_image);
  EXPECT_EQ(report.tables_checked, 1u);
  EXPECT_GT(report.structures_checked, 10u);
}

TEST_F(CorruptionMatrixTest, RegionHeaderFlipIsFatal) {
  FlipBit([](Nav&) { return uint64_t{1}; });  // inside the header magic
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("region_header")) << report.Summary();
  EXPECT_TRUE(report.has_fatal());
}

TEST_F(CorruptionMatrixTest, AllocatorFreeListFlipDetected) {
  FlipBit([](Nav&) {
    return alloc::PAllocator::MetaOffset() +
           offsetof(alloc::AllocMeta, free_heads);
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("allocator_meta")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, CommitTableFlipDetected) {
  FlipBit([](Nav& nav) {
    return *alloc::GetRoot(nav.region, txn::kTxnStateRootName) +
           offsetof(txn::PTxnStateBlock, commit_watermark);
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("commit_table")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, CatalogDescriptorFlipIsFatal) {
  FlipBit([](Nav& nav) {
    return nav.OffsetOf(&nav.Catalog()->table_meta_offsets) +
           offsetof(alloc::PVectorDesc, size);
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("catalog")) << report.Summary();
  EXPECT_TRUE(report.has_fatal());
}

TEST_F(CorruptionMatrixTest, TableVectorDescriptorFlipDetected) {
  FlipBit([](Nav& nav) {
    auto* group = nav.Group();
    const uint64_t ncols = nav.FirstTable()->num_columns;
    return nav.OffsetOf(&group->delta_col(0, ncols)->attr) +
           offsetof(alloc::PVectorDesc, size);
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("pvector_descriptor"))
      << report.Summary();
}

// A published buffer or group on a block the allocator considers free
// (what allocator recovery leaves when a crash lands between a publish
// and its intent retirement) would be handed out again.
TEST_F(CorruptionMatrixTest, VectorBufferOnFreeBlockDetected) {
  FlipBit(
      [](Nav& nav) {
        const uint64_t ncols = nav.FirstTable()->num_columns;
        return Nav::DescData(nav.Group()->delta_col(0, ncols)->attr) -
               sizeof(alloc::BlockHeader) +
               offsetof(alloc::BlockHeader, state);
      },
      0x01);
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("pvector_descriptor"))
      << report.Summary();
}

TEST_F(CorruptionMatrixTest, TableGroupOnFreeBlockDetected) {
  FlipBit(
      [](Nav& nav) {
        return nav.FirstTable()->group_off - sizeof(alloc::BlockHeader) +
               offsetof(alloc::BlockHeader, state);
      },
      0x01);
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("table_meta")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, SchemaColumnCountBeyondTheBlobIsAFinding) {
  // The schema blob's column count set to 2^32 - 1: the image verifier
  // (what dbinspect --verify=deep runs) reports it as a schema finding
  // instead of sizing anything by the count.
  // The blob starts 02 00 00 00 (two columns); XOR FD FF FF FF.
  for (int byte = 0; byte < 4; ++byte) {
    FlipBit(
        [byte](Nav& nav) { return nav.FirstTable()->schema_off + byte; },
        static_cast<uint8_t>(byte == 0 ? 0xFD : 0xFF));
  }
  core::DatabaseOptions options;
  options.data_dir = nvm::TempPath("corruption_matrix_schema");
  std::filesystem::create_directories(options.data_dir);
  std::filesystem::copy_file(image_, options.NvmImagePath());
  auto report = core::Database::VerifyImage(options);
  std::error_code ec;
  std::filesystem::remove_all(options.data_dir, ec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->HasStructure("schema")) << report->Summary();
  EXPECT_FALSE(report->clean());
}

TEST_F(CorruptionMatrixTest, MainDictionaryContentFlipDetected) {
  FlipBit([](Nav& nav) {
    // Second dictionary entry of the int64 column's main partition.
    return Nav::DescData(nav.Group()->main_col(0)->dict_values) + 8;
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("dictionary")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, MainAttributeVectorFlipDetected) {
  FlipBit([](Nav& nav) {
    return Nav::DescData(nav.Group()->main_col(0)->attr_words);
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("attribute_vector")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, MvccEntryFlipDetected) {
  FlipBit([](Nav& nav) {
    return Nav::DescData(nav.Group()->delta_mvcc);  // first entry's begin
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("mvcc")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, HashIndexBucketFlipDetected) {
  FlipBit([](Nav& nav) {
    auto* group = nav.Group();
    for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
      if (group->indexes[s].state == 1 &&
          group->indexes[s].kind == storage::kIndexHash) {
        return Nav::DescData(group->indexes[s].entries);
      }
    }
    ADD_FAILURE() << "image has no hash index";
    return uint64_t{1};
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("index")) << report.Summary();
}

// The pristine delta holds keys 100..109 in rows 0..9 with ids 0..9, so
// slot i holds head i + 1 and link 0.
TEST_F(CorruptionMatrixTest, HashIndexForwardLinkDetected) {
  EditHashIndex([](storage::PIndexSlot* slots) { slots[2].link = 5; });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("index")) << report.Summary();
  // The walk stops at the forward link instead of following it.
  const Status status = LookupInCopy("corruption_matrix_forward", 102);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(CorruptionMatrixTest, HashIndexHeadBeyondLinksDetected) {
  EditHashIndex([](storage::PIndexSlot* slots) { slots[0].head = 11; });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("index")) << report.Summary();
  const Status status = LookupInCopy("corruption_matrix_head", 100);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(CorruptionMatrixTest, HashIndexHeadOnAnotherIdsRowDetected) {
  EditHashIndex([](storage::PIndexSlot* slots) { slots[0].head = 2; });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("index")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, DeltaDictionaryTableSlotFlipDetected) {
  FlipBit([](Nav& nav) {
    // First occupied slot of the int64 column's value→id table: the flip
    // turns its id into a second copy of another id, an id outside the
    // dictionary, or a hole that is not the last id.
    auto* group = nav.Group();
    const uint64_t ncols = nav.FirstTable()->num_columns;
    const uint64_t table_off = group->delta_col(0, ncols)->dict_table;
    auto* table = nav.At<storage::PDictTable>(table_off);
    const auto* slots = nav.At<uint32_t>(table_off);
    for (uint64_t s = storage::kDictTableHeaderSlots; s < table->slot_count;
         ++s) {
      if (slots[s] != 0) return table_off + s * sizeof(uint32_t);
    }
    ADD_FAILURE() << "delta dictionary table is empty";
    return uint64_t{1};
  });
  VerifyReport report = Verify();
  EXPECT_TRUE(report.HasStructure("dictionary")) << report.Summary();
}

TEST_F(CorruptionMatrixTest, CorruptImageFailsNormalDeepOpen) {
  FlipBit([](Nav& nav) {
    return Nav::DescData(nav.Group()->main_col(0)->dict_values) + 8;
  });
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.data_dir = nvm::TempPath("corruption_matrix_open");
  options.tracking = nvm::TrackingMode::kNone;
  options.open_mode = core::OpenMode::kVerifyDeep;
  std::filesystem::create_directories(options.data_dir);
  std::filesystem::copy_file(image_, options.NvmImagePath());
  auto db_result = core::Database::Open(options);
  EXPECT_FALSE(db_result.ok());
  EXPECT_TRUE(db_result.status().IsCorruption())
      << db_result.status().ToString();
  std::error_code ec;
  std::filesystem::remove_all(options.data_dir, ec);
}

TEST(SalvageOpenTest, QuarantinesCorruptTableServesRestReadOnly) {
  const std::string dir = nvm::TempPath("salvage_open");
  std::filesystem::create_directories(dir);
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.data_dir = dir;
  options.tracking = nvm::TrackingMode::kNone;
  {
    auto db = std::move(core::Database::Create(options)).ValueUnsafe();
    storage::Table* good = *db->CreateTable("good", KvSchema());
    storage::Table* bad = *db->CreateTable("bad", KvSchema());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(
                        good, {Value(int64_t{i}), Value(std::string("g"))})
                      .ok());
      ASSERT_TRUE(db->InsertAutoCommit(
                        bad, {Value(int64_t{i}), Value(std::string("b"))})
                      .ok());
    }
    ASSERT_TRUE(db->Merge("good").ok());
    ASSERT_TRUE(db->Merge("bad").ok());
    ASSERT_TRUE(db->Close().ok());
  }

  // Flip a bit inside the 'bad' table's main dictionary.
  {
    nvm::PmemRegionOptions region_options;
    region_options.file_path = options.NvmImagePath();
    region_options.tracking = nvm::TrackingMode::kNone;
    auto region =
        std::move(nvm::PmemRegion::Open(region_options)).ValueUnsafe();
    Nav nav{*region};
    auto* catalog = nav.Catalog();
    auto* offsets =
        nav.At<uint64_t>(Nav::DescData(catalog->table_meta_offsets));
    storage::PTableGroup* bad_group = nullptr;
    for (uint64_t i = 0; i < catalog->table_meta_offsets.size; ++i) {
      auto* meta = nav.At<storage::PTableMeta>(offsets[i]);
      if (std::string(meta->name) == "bad") {
        bad_group = nav.At<storage::PTableGroup>(meta->group_off);
      }
    }
    ASSERT_NE(bad_group, nullptr);
    const uint64_t off =
        Nav::DescData(bad_group->main_col(0)->dict_values) + 8;
    region->base()[off] ^= 0x04;
    region->Persist(region->base() + off, 1);
    ASSERT_TRUE(region->SyncToFile().ok());
  }

  options.open_mode = core::OpenMode::kSalvageReadOnly;
  auto db_result = core::Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result;
  EXPECT_TRUE(db->read_only());
  EXPECT_TRUE(db->last_recovery_report().read_only);
  ASSERT_EQ(db->last_recovery_report().quarantined_tables.size(), 1u);
  EXPECT_EQ(db->last_recovery_report().quarantined_tables[0], "bad");

  // The damaged table is fenced off...
  auto bad_result = db->GetTable("bad");
  EXPECT_FALSE(bad_result.ok());
  EXPECT_TRUE(bad_result.status().IsCorruption());
  // ...the healthy one is fully readable...
  auto good_result = db->GetTable("good");
  ASSERT_TRUE(good_result.ok()) << good_result.status().ToString();
  auto rows = db->ScanEqual(*good_result, 0, Value(int64_t{7}),
                            db->ReadSnapshot(), storage::kTidNone);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  // ...and every write path fails fast instead of touching the image.
  EXPECT_FALSE(db->Begin().ok());
  EXPECT_FALSE(db->CreateTable("new_table", KvSchema()).ok());
  EXPECT_FALSE(db->Merge("good").ok());
  EXPECT_TRUE(db->Close().ok());

  // Close() must not have marked the image clean-and-healthy: a second
  // salvage open sees the same corruption.
  auto again = core::Database::Open(options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE((*again)->read_only());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace hyrise_nv::recovery
