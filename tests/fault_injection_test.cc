// Fault-injection framework tests: deterministic firing, retry/degraded
// behaviour of the WAL writer under injected device errors, and the NVM
// persist fault points.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/fault_injection.h"
#include "core/database.h"
#include "core/query.h"
#include "nvm/nvm_env.h"
#include "wal/block_device.h"
#include "wal/log_writer.h"

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

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  DatabaseOptions WalOptions() {
    DatabaseOptions options;
    options.mode = DurabilityMode::kWalValue;
    options.region_size = 64 << 20;
    dir_ = MakeDataDir("fault_injection_test");
    options.data_dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(FaultInjectionTest, SameSeedSameFirePattern) {
  auto& injector = FaultInjector::Instance();
  const FaultPoint point = FaultPoint::kWalAppendEio;
  FaultPlan plan;
  plan.probability = 0.5;

  auto run = [&]() {
    injector.DisarmAll();
    injector.Reseed(42);
    injector.Arm(point, plan);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(injector.ShouldFire(point));
    return pattern;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // Sanity: probability 0.5 over 64 draws fires sometimes, not always.
  const auto fired =
      std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST_F(FaultInjectionTest, TriggerAfterAndMaxFires) {
  auto& injector = FaultInjector::Instance();
  const FaultPoint point = FaultPoint::kWalSyncFail;
  FaultPlan plan;
  plan.trigger_after = 3;
  plan.max_fires = 2;
  injector.Arm(point, plan);

  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(injector.ShouldFire(point));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true,
                                      false, false, false}));
  EXPECT_EQ(injector.fires(point), 2u);
  EXPECT_FALSE(injector.any_armed()) << "max_fires should auto-disarm";
}

TEST_F(FaultInjectionTest, TransientAppendErrorIsRetried) {
  auto db_result = Database::Create(WalOptions());
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());

  FaultPlan one_shot;
  one_shot.max_fires = 1;
  FaultInjector::Instance().Arm(FaultPoint::kWalAppendEio, one_shot);

  ASSERT_TRUE(db->InsertAutoCommit(
                    table, {Value(int64_t{1}), Value(std::string("a"))})
                  .ok());
  EXPECT_GT(db->log_manager()->writer().io_retries(), 0u);
  EXPECT_FALSE(db->log_manager()->writer().degraded());
  EXPECT_FALSE(db->read_only());
}

TEST_F(FaultInjectionTest, PersistentAppendErrorFlipsReadOnly) {
  auto db_result = Database::Create(WalOptions());
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->InsertAutoCommit(
                    table, {Value(int64_t{1}), Value(std::string("a"))})
                  .ok());

  FaultInjector::Instance().Arm(FaultPoint::kWalAppendEio, FaultPlan{});

  Status status = db->InsertAutoCommit(
      table, {Value(int64_t{2}), Value(std::string("b"))});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_TRUE(db->log_manager()->writer().degraded());
  EXPECT_TRUE(db->read_only());

  // Writes fail fast now — no process abort, no silent acceptance.
  EXPECT_FALSE(db->Begin().ok());
  EXPECT_FALSE(db->CreateTable("other", KvSchema()).ok());

  // Reads keep working after the device is "unplugged".
  FaultInjector::Instance().DisarmAll();
  auto rows = db->ScanEqual(table, 0, Value(int64_t{1}),
                            db->ReadSnapshot(), storage::kTidNone);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_TRUE(db->Close().ok());
}

TEST_F(FaultInjectionTest, PersistentSyncFailureDegrades) {
  const DatabaseOptions options = WalOptions();
  auto db_result = Database::Create(options);
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());
  ASSERT_TRUE(db->InsertAutoCommit(
                    table, {Value(int64_t{0}), Value(std::string("z"))})
                  .ok());

  FaultInjector::Instance().Arm(FaultPoint::kWalSyncFail, FaultPlan{});
  Status status = db->InsertAutoCommit(
      table, {Value(int64_t{1}), Value(std::string("a"))});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_TRUE(db->log_manager()->writer().degraded());
  EXPECT_TRUE(db->read_only());

  // The failed commit's bytes reached the device before its fsync
  // failed; a reopen must still not replay a commit reported as failed.
  ASSERT_TRUE(db->Close().ok());
  db.reset();
  FaultInjector::Instance().DisarmAll();
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  storage::Table* rtable = *(*reopened)->GetTable("kv");
  std::vector<int64_t> keys;
  rtable->ForEachVisibleRow(
      (*reopened)->ReadSnapshot(), storage::kTidNone,
      [&](storage::RowLocation loc) {
        keys.push_back(std::get<int64_t>(rtable->GetValue(loc, 0)));
      });
  EXPECT_EQ(keys, (std::vector<int64_t>{0}));
}

// A sync that fails for good also fails the commits still buffered
// behind the last group-commit leader, so their bytes must leave the
// device again.
TEST_F(FaultInjectionTest, FailedSyncNowCutsItsBytesFromTheLog) {
  const std::string path = nvm::TempPath("fault_sync_cut");
  auto device_result = wal::BlockDevice::Create(path, {});
  ASSERT_TRUE(device_result.ok());
  auto device = std::move(device_result).ValueUnsafe();
  wal::LogWriter writer(device.get());
  ASSERT_TRUE(writer.Commit(wal::LogRecord::Commit(1, 1)).ok());
  const uint64_t synced = device->size();
  ASSERT_GT(synced, 0u);
  ASSERT_TRUE(writer
                  .Append(wal::LogRecord::Insert(2, 7, {Value(int64_t{5})}))
                  .ok());
  ASSERT_TRUE(writer.Append(wal::LogRecord::Commit(2, 2)).ok());

  FaultInjector::Instance().Arm(FaultPoint::kWalSyncFail, FaultPlan{});
  EXPECT_FALSE(writer.SyncNow().ok());
  EXPECT_TRUE(writer.degraded());
  EXPECT_EQ(device->size(), synced);
  EXPECT_EQ(nvm::FileSize(path), synced);
  device.reset();
  nvm::RemoveFileIfExists(path);
}

TEST_F(FaultInjectionTest, ShortWriteIsRepairedByRetry) {
  auto db_result = Database::Create(WalOptions());
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());

  FaultPlan one_shot;
  one_shot.max_fires = 1;
  FaultInjector::Instance().Arm(FaultPoint::kWalAppendShortWrite, one_shot);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->InsertAutoCommit(table, {Value(int64_t{i}),
                                             Value(std::string("v"))})
                    .ok());
  }
  EXPECT_GT(db->log_manager()->writer().io_retries(), 0u);

  // The torn half-record was overwritten by the retry: replay after a
  // crash sees a well-formed log with every commit.
  auto recovered_result = Database::CrashAndRecover(std::move(db));
  ASSERT_TRUE(recovered_result.ok())
      << recovered_result.status().ToString();
  auto& recovered = *recovered_result;
  storage::Table* rtable = *recovered->GetTable("kv");
  EXPECT_EQ(CountRows(rtable, recovered->ReadSnapshot(),
                      storage::kTidNone),
            10u);
}

TEST_F(FaultInjectionTest, ReadPastDeviceEndIsCorruption) {
  const std::string path = nvm::TempPath("fault_device");
  auto device_result = wal::BlockDevice::Create(path, {});
  ASSERT_TRUE(device_result.ok());
  auto device = std::move(device_result).ValueUnsafe();
  const char payload[16] = "fifteen bytes..";
  ASSERT_TRUE(device->Append(payload, sizeof(payload)).ok());

  char out[16];
  Status status = device->Read(8, out, sizeof(out));
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  nvm::RemoveFileIfExists(path);
}

TEST_F(FaultInjectionTest, NvmPersistFaultPointsFire) {
  DatabaseOptions options;  // anonymous NVM region with shadow tracking
  options.mode = DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  auto db_result = Database::Create(options);
  ASSERT_TRUE(db_result.ok());
  auto db = std::move(db_result).ValueUnsafe();
  storage::Table* table = *db->CreateTable("kv", KvSchema());

  auto& injector = FaultInjector::Instance();
  FaultPlan one_shot;
  one_shot.max_fires = 1;
  injector.Arm(FaultPoint::kNvmPersistBitFlip, one_shot);
  ASSERT_TRUE(db->InsertAutoCommit(
                    table, {Value(int64_t{1}), Value(std::string("a"))})
                  .ok());
  EXPECT_EQ(injector.fires(FaultPoint::kNvmPersistBitFlip), 1u);

  FaultPlan stall;
  stall.max_fires = 1;
  stall.param = 1000;  // 1us spin
  injector.Arm(FaultPoint::kNvmPersistStall, stall);
  ASSERT_TRUE(db->InsertAutoCommit(
                    table, {Value(int64_t{2}), Value(std::string("b"))})
                  .ok());
  EXPECT_EQ(injector.fires(FaultPoint::kNvmPersistStall), 1u);
}

}  // namespace
}  // namespace hyrise_nv::core
