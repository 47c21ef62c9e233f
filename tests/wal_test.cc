#include <gtest/gtest.h>

#include "nvm/nvm_env.h"
#include "wal/block_device.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace hyrise_nv::wal {
namespace {

using storage::Value;

class BlockDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = nvm::TempPath("block_device_test");
    auto result = BlockDevice::Create(path_, BlockDeviceOptions{});
    ASSERT_TRUE(result.ok());
    device_ = std::move(result).ValueUnsafe();
  }
  void TearDown() override {
    device_.reset();
    nvm::RemoveFileIfExists(path_);
  }
  std::string path_;
  std::unique_ptr<BlockDevice> device_;
};

TEST_F(BlockDeviceTest, AppendReadRoundTrip) {
  auto off1 = device_->Append("hello", 5);
  auto off2 = device_->Append("world", 5);
  ASSERT_TRUE(off1.ok() && off2.ok());
  EXPECT_EQ(*off1, 0u);
  EXPECT_EQ(*off2, 5u);
  char buf[10];
  ASSERT_TRUE(device_->Read(0, buf, 10).ok());
  EXPECT_EQ(std::string(buf, 10), "helloworld");
}

TEST_F(BlockDeviceTest, ReadBeyondEndRejected) {
  ASSERT_TRUE(device_->Append("abc", 3).ok());
  char buf[10];
  EXPECT_FALSE(device_->Read(0, buf, 10).ok());
  EXPECT_FALSE(device_->Read(100, buf, 1).ok());
}

TEST_F(BlockDeviceTest, CrashDropsUnsyncedTail) {
  ASSERT_TRUE(device_->Append("durable", 7).ok());
  ASSERT_TRUE(device_->Sync().ok());
  ASSERT_TRUE(device_->Append("lost", 4).ok());
  EXPECT_EQ(device_->size(), 11u);
  EXPECT_EQ(device_->durable_size(), 7u);
  ASSERT_TRUE(device_->SimulateCrash().ok());
  EXPECT_EQ(device_->size(), 7u);
  char buf[7];
  ASSERT_TRUE(device_->Read(0, buf, 7).ok());
  EXPECT_EQ(std::string(buf, 7), "durable");
}

TEST_F(BlockDeviceTest, ReopenSeesSyncedData) {
  ASSERT_TRUE(device_->Append("persist", 7).ok());
  ASSERT_TRUE(device_->Sync().ok());
  device_.reset();
  auto reopened = BlockDevice::Open(path_, BlockDeviceOptions{});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 7u);
}

TEST(LogRecordTest, AllTypesRoundTrip) {
  std::vector<LogRecord> records;
  records.push_back(LogRecord::Insert(
      7, 3, {Value(int64_t{-42}), Value(2.5), Value(std::string("text"))}));
  records.push_back(LogRecord::InsertEncoded(8, 3, {1, 2, 3}));
  records.push_back(LogRecord::DictAdd(3, 1, Value(std::string("entry"))));
  records.push_back(LogRecord::Delete(9, 3, {true, 123}));
  records.push_back(LogRecord::Delete(9, 3, {false, 7}));
  records.push_back(LogRecord::Commit(9, 55));
  records.push_back(LogRecord::Abort(10));
  records.push_back(LogRecord::CreateTable(
      12, "orders", {0x01, 0x02, 0x03, 0xFF}));
  records.push_back(LogRecord::CreateIndex(12, 3, 1));

  std::vector<uint8_t> log;
  for (const auto& record : records) {
    const auto framed = EncodeRecord(record);
    log.insert(log.end(), framed.begin(), framed.end());
  }

  size_t pos = 0;
  for (const auto& expected : records) {
    size_t consumed = 0;
    auto decoded = DecodeRecord(log.data() + pos, log.size() - pos,
                                &consumed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    pos += consumed;
    EXPECT_EQ(decoded->type, expected.type);
    EXPECT_EQ(decoded->tid, expected.tid);
    EXPECT_EQ(decoded->table_id, expected.table_id);
    EXPECT_EQ(decoded->cid, expected.cid);
    EXPECT_EQ(decoded->values, expected.values);
    EXPECT_EQ(decoded->value_ids, expected.value_ids);
    EXPECT_EQ(decoded->loc, expected.loc);
    EXPECT_EQ(decoded->table_name, expected.table_name);
    EXPECT_EQ(decoded->schema_blob, expected.schema_blob);
    EXPECT_EQ(decoded->index_kind, expected.index_kind);
  }
  EXPECT_EQ(pos, log.size());
}

TEST(LogRecordTest, CorruptionDetected) {
  auto framed = EncodeRecord(LogRecord::Commit(1, 2));
  framed[10] ^= 0xFF;  // flip a body byte
  size_t consumed;
  auto decoded = DecodeRecord(framed.data(), framed.size(), &consumed);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(LogRecordTest, TruncatedFrameDetected) {
  auto framed = EncodeRecord(LogRecord::Commit(1, 2));
  size_t consumed;
  auto decoded = DecodeRecord(framed.data(), framed.size() - 3, &consumed);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(LogRecordTest, EmptyAndZeroFrameAreCleanEnd) {
  size_t consumed;
  EXPECT_TRUE(DecodeRecord(nullptr, 0, &consumed).status().IsNotFound());
  uint8_t zeros[16] = {};
  EXPECT_TRUE(
      DecodeRecord(zeros, sizeof(zeros), &consumed).status().IsNotFound());
}

TEST(LogReaderTest, ScanWithTornTail) {
  const std::string path = nvm::TempPath("log_reader_test");
  auto device_result = BlockDevice::Create(path, BlockDeviceOptions{});
  ASSERT_TRUE(device_result.ok());
  auto& device = **device_result;
  LogWriter writer(&device);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.Append(LogRecord::Commit(i, i + 1)).ok());
  }
  ASSERT_TRUE(writer.SyncNow().ok());
  // Simulate a torn tail: append half a record directly.
  const auto partial = EncodeRecord(LogRecord::Commit(99, 100));
  ASSERT_TRUE(device.Append(partial.data(), partial.size() / 2).ok());

  LogReader reader(&device);
  int seen = 0;
  auto count = reader.ForEach(0, [&](const LogRecord& record) {
    EXPECT_EQ(record.type, RecordType::kCommit);
    EXPECT_LT(record.tid, 5u);
    ++seen;
    return Status::OK();
  });
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 5u);
  EXPECT_EQ(seen, 5);
  nvm::RemoveFileIfExists(path);
}

TEST(LogReaderTest, StartOffsetSkipsPrefix) {
  const std::string path = nvm::TempPath("log_reader_offset_test");
  auto device_result = BlockDevice::Create(path, BlockDeviceOptions{});
  ASSERT_TRUE(device_result.ok());
  auto& device = **device_result;
  const auto first = EncodeRecord(LogRecord::Commit(1, 1));
  ASSERT_TRUE(device.Append(first.data(), first.size()).ok());
  const uint64_t offset = device.size();
  const auto second = EncodeRecord(LogRecord::Commit(2, 2));
  ASSERT_TRUE(device.Append(second.data(), second.size()).ok());

  LogReader reader(&device);
  std::vector<storage::Tid> tids;
  auto count = reader.ForEach(offset, [&](const LogRecord& r) {
    tids.push_back(r.tid);
    return Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(tids, (std::vector<storage::Tid>{2}));
  nvm::RemoveFileIfExists(path);
}

}  // namespace
}  // namespace hyrise_nv::wal
