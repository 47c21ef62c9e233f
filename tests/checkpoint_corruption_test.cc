// Corruption handling on the WAL side: mid-log damage vs. torn tails,
// corrupt checkpoints (with and without a crash), and the NVM→WAL
// recovery fallback when the NVM image itself is damaged.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "alloc/region_header.h"
#include "core/database.h"
#include "core/query.h"
#include "nvm/nvm_env.h"

namespace hyrise_nv::core {
namespace {

using storage::DataType;
using storage::Value;

storage::Schema KvSchema() {
  return *storage::Schema::Make(
      {{"k", DataType::kInt64}, {"v", DataType::kString}});
}

std::string MakeDataDir(const std::string& prefix) {
  const std::string dir = nvm::TempPath(prefix);
  std::filesystem::create_directories(dir);
  return dir;
}

void FlipByteInFile(const std::string& path, uint64_t offset,
                    uint8_t mask = 0x10) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  ASSERT_TRUE(file.good());
  byte = static_cast<char>(byte ^ mask);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

class WalCorruptionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  DatabaseOptions WalOptions(const std::string& prefix) {
    TearDown();  // a test that asks twice keeps only its newest dir
    DatabaseOptions options;
    options.mode = DurabilityMode::kWalValue;
    options.region_size = 64 << 20;
    dir_ = MakeDataDir(prefix);
    options.data_dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(WalCorruptionTest, MidLogCorruptionFailsLoudly) {
  auto options = WalOptions("midlog_test");
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("v"))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  // A bit flip in the middle of the durable log — with many intact
  // records after it — is media damage, not a torn tail. Silently
  // truncating there would drop committed transactions.
  const uint64_t log_size = nvm::FileSize(options.LogPath());
  ASSERT_GT(log_size, 0u);
  FlipByteInFile(options.LogPath(), log_size / 2);

  auto db_result = Database::Open(options);
  ASSERT_FALSE(db_result.ok());
  EXPECT_TRUE(db_result.status().IsCorruption())
      << db_result.status().ToString();
  EXPECT_NE(db_result.status().message().find("mid-log"),
            std::string::npos)
      << db_result.status().message();
}

TEST_F(WalCorruptionTest, DamagedFinalRecordIsATornTail) {
  auto options = WalOptions("torntail_test");
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("v"))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  // Damage inside the very last record (the final commit) looks exactly
  // like a crash between flush and sync: replay stops there. The final
  // transaction's insert stays uncommitted; everything before survives.
  const uint64_t log_size = nvm::FileSize(options.LogPath());
  FlipByteInFile(options.LogPath(), log_size - 4);

  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result;
  storage::Table* table = *db->GetTable("kv");
  EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 19u);
}

TEST_F(WalCorruptionTest, CorruptCheckpointFallsBackToFullReplay) {
  auto options = WalOptions("ckpt_corrupt_test");
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("a"))})
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("b"))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  const uint64_t ckpt_size = nvm::FileSize(options.CheckpointPath());
  ASSERT_GT(ckpt_size, 0u);
  FlipByteInFile(options.CheckpointPath(), ckpt_size / 2);

  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result;
  EXPECT_TRUE(db->last_recovery_report().log.checkpoint_fallback);
  EXPECT_GT(db->last_recovery_report().log.replayed_records, 0u);
  storage::Table* table = *db->GetTable("kv");
  EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 20u);
}

TEST_F(WalCorruptionTest, NoCommittedTxnLostAcrossCrashPlusCorruptCkpt) {
  auto options = WalOptions("ckpt_crash_test");
  auto db = std::move(Database::Create(options)).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                             Value(std::string("a"))})
                    .ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                             Value(std::string("b"))})
                    .ok());
  }
  // Power failure (unsynced tail dropped — empty here: every commit
  // syncs), then the checkpoint file turns out to be damaged.
  ASSERT_TRUE(db->log_manager()->device().SimulateCrash().ok());
  db.reset();
  const uint64_t ckpt_size = nvm::FileSize(options.CheckpointPath());
  FlipByteInFile(options.CheckpointPath(), ckpt_size / 2);

  auto db_result = Database::Open(options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& recovered = *db_result;
  EXPECT_TRUE(recovered->last_recovery_report().log.checkpoint_fallback);
  storage::Table* rtable = *recovered->GetTable("kv");
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(),
                      storage::kTidNone),
            20u)
      << "every committed transaction must survive crash + corrupt "
         "checkpoint";
}

TEST_F(WalCorruptionTest, CorruptNvmImageFallsBackToWal) {
  auto options = WalOptions("nvm_fallback_test");
  {
    // A WAL-mode run leaves wal.log behind...
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("w"))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  DatabaseOptions nvm_options = options;
  nvm_options.mode = DurabilityMode::kNvm;
  nvm_options.tracking = nvm::TrackingMode::kNone;
  {
    // ...then an NVM image appears in the same directory...
    auto db = std::move(Database::Create(nvm_options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("scratch", KvSchema());
    ASSERT_TRUE(db->InsertAutoCommit(
                      table, {Value(int64_t{0}), Value(std::string("x"))})
                    .ok());
    ASSERT_TRUE(db->Close().ok());
  }
  // ...and gets destroyed (bit flip in the header magic).
  FlipByteInFile(nvm_options.NvmImagePath(), 1);

  auto db_result = Database::Open(nvm_options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result;
  EXPECT_TRUE(db->last_recovery_report().fell_back_to_log);
  storage::Table* table = *db->GetTable("kv");
  EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 30u);
  // The applied log was retired so it can never be replayed twice.
  EXPECT_FALSE(nvm::FileExists(nvm_options.LogPath()));
  EXPECT_TRUE(nvm::FileExists(nvm_options.LogPath() + ".applied"));
  ASSERT_TRUE(db->Close().ok());
  db_result = Database::Open(nvm_options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  EXPECT_FALSE((*db_result)->last_recovery_report().fell_back_to_log);
  storage::Table* reopened = *(*db_result)->GetTable("kv");
  EXPECT_EQ(CountRows(reopened, (*db_result)->ReadSnapshot(),
                      storage::kTidNone),
            30u);
}

/// The rebuilt image must carry everything an eager log recovery
/// produces: the logged index (built into the image, so the re-open's
/// instant restart finds it) and a prepared-but-undecided 2PC
/// transaction (sealed into a prepared commit slot, because the log that
/// recorded it is retired).
TEST_F(WalCorruptionTest, CorruptNvmImageRebuildKeepsIndexAndInDoubt) {
  auto options = WalOptions("nvm_fallback_2pc_test");
  const uint64_t gtid = (1ull << 32) | 7;
  {
    auto db = std::move(Database::Create(options)).ValueUnsafe();
    storage::Table* table = *db->CreateTable("kv", KvSchema());
    ASSERT_TRUE(db->CreateIndex("kv", 0).ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                               Value(std::string("w"))})
                      .ok());
    }
    auto tx = db->Begin();
    ASSERT_TRUE(tx.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(db->Insert(*tx, table,
                             {Value(int64_t{100}), Value(std::string("p"))})
                      .ok());
    }
    ASSERT_TRUE(db->Prepare(*tx, gtid).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  DatabaseOptions nvm_options = options;
  nvm_options.mode = DurabilityMode::kNvm;
  nvm_options.tracking = nvm::TrackingMode::kNone;
  {
    auto db = std::move(Database::Create(nvm_options)).ValueUnsafe();
    ASSERT_TRUE(db->Close().ok());
  }
  FlipByteInFile(nvm_options.NvmImagePath(), 1);

  const auto key_count = [](Database* db, int64_t key) {
    storage::Table* table = *db->GetTable("kv");
    auto rows = db->ScanEqual(table, 0, Value(key), db->ReadSnapshot(),
                              storage::kTidNone);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? rows->size() : 0;
  };
  {
    auto db = std::move(Database::Open(nvm_options)).ValueUnsafe();
    EXPECT_TRUE(db->last_recovery_report().fell_back_to_log);
    EXPECT_TRUE(db->indexes(*db->GetTable("kv"))->HasIndex(0));
    EXPECT_EQ(db->InDoubtGtids(), std::vector<uint64_t>{gtid});
    EXPECT_EQ(key_count(db.get(), 5), 1u);
    EXPECT_EQ(key_count(db.get(), 100), 0u);
    ASSERT_TRUE(db->Close().ok());
  }
  auto db = std::move(Database::Open(nvm_options)).ValueUnsafe();
  EXPECT_FALSE(db->last_recovery_report().fell_back_to_log);
  EXPECT_TRUE(db->indexes(*db->GetTable("kv"))->HasIndex(0));
  EXPECT_EQ(db->InDoubtGtids(), std::vector<uint64_t>{gtid});
  ASSERT_TRUE(db->Decide(gtid, /*commit=*/true).ok());
  EXPECT_EQ(key_count(db.get(), 100), 2u);
  EXPECT_EQ(key_count(db.get(), 29), 1u);
  ASSERT_TRUE(db->Close().ok());
}

/// Rewrites the image's region format version in place, leaving a
/// header exactly like one an older build would have written.
void SetFormatVersion(const std::string& path, uint32_t version) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekp(static_cast<std::streamoff>(
      offsetof(alloc::RegionHeader, format_version)));
  file.write(reinterpret_cast<const char*>(&version), sizeof(version));
  ASSERT_TRUE(file.good());
}

TEST_F(WalCorruptionTest, FormatV2ImageIsRefused) {
  // v2 predates the persistent dictionary tables and v3 the value-id
  // chains of the delta hash index: their group layouts differ from the
  // current one, so neither image may be attached.
  for (const uint32_t version : {2u, 3u}) {
    SCOPED_TRACE("format version " + std::to_string(version));
    DatabaseOptions options =
        WalOptions("format_v" + std::to_string(version) + "_refused");
    options.mode = DurabilityMode::kNvm;
    options.tracking = nvm::TrackingMode::kNone;
    {
      auto db = std::move(Database::Create(options)).ValueUnsafe();
      storage::Table* table = *db->CreateTable("kv", KvSchema());
      ASSERT_TRUE(db->InsertAutoCommit(
                        table, {Value(int64_t{1}), Value(std::string("x"))})
                      .ok());
      ASSERT_TRUE(db->Close().ok());
    }
    SetFormatVersion(options.NvmImagePath(), version);
    auto db_result = Database::Open(options);
    ASSERT_FALSE(db_result.ok());
    EXPECT_TRUE(db_result.status().IsCorruption());
    EXPECT_NE(db_result.status().ToString().find(
                  "unsupported region format version " +
                  std::to_string(version)),
              std::string::npos)
        << db_result.status().ToString();
  }
}

TEST_F(WalCorruptionTest, FormatV2ImageWithWalFallsBackToLog) {
  for (const uint32_t version : {2u, 3u}) {
    SCOPED_TRACE("format version " + std::to_string(version));
    auto options =
        WalOptions("format_v" + std::to_string(version) + "_fallback");
    {
      auto db = std::move(Database::Create(options)).ValueUnsafe();
      storage::Table* table = *db->CreateTable("kv", KvSchema());
      for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                                 Value(std::string("w"))})
                        .ok());
      }
      ASSERT_TRUE(db->Close().ok());
    }
    DatabaseOptions nvm_options = options;
    nvm_options.mode = DurabilityMode::kNvm;
    nvm_options.tracking = nvm::TrackingMode::kNone;
    {
      auto db = std::move(Database::Create(nvm_options)).ValueUnsafe();
      ASSERT_TRUE(db->Close().ok());
    }
    SetFormatVersion(nvm_options.NvmImagePath(), version);

    auto db_result = Database::Open(nvm_options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    auto& db = *db_result;
    EXPECT_TRUE(db->last_recovery_report().fell_back_to_log);
    storage::Table* table = *db->GetTable("kv");
    EXPECT_EQ(CountRows(table, db->ReadSnapshot(), storage::kTidNone), 30u);
    ASSERT_TRUE(db->Close().ok());
    // The rebuilt image is current-format and opens without the log.
    db_result = Database::Open(nvm_options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    EXPECT_FALSE((*db_result)->last_recovery_report().fell_back_to_log);
  }
}

}  // namespace
}  // namespace hyrise_nv::core
