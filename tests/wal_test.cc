#include <gtest/gtest.h>

#include <cstring>

#include "common/crc32.h"
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
  records.push_back(LogRecord::Prepare(11, 0x1122334455667788ull));

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
    EXPECT_EQ(decoded->gtid, expected.gtid);
    EXPECT_EQ(decoded->values, expected.values);
    EXPECT_EQ(decoded->value_ids, expected.value_ids);
    EXPECT_EQ(decoded->column, expected.column);
    EXPECT_EQ(decoded->dict_value, expected.dict_value);
    EXPECT_EQ(decoded->loc, expected.loc);
    EXPECT_EQ(decoded->table_name, expected.table_name);
    EXPECT_EQ(decoded->schema_blob, expected.schema_blob);
    EXPECT_EQ(decoded->index_kind, expected.index_kind);
  }
  EXPECT_EQ(pos, log.size());
}

/// One record of each type with the bytes existing logs hold for it:
/// [u32 masked crc][u32 body length][body], all little-endian. A change
/// to the record or value encoding fails here.
struct PinnedRecord {
  LogRecord record;
  std::vector<uint8_t> bytes;
};

std::vector<PinnedRecord> PinnedRecords() {
  return {
      {LogRecord::Insert(7, 3, {Value(int64_t{-42}), Value(2.5),
                                Value(std::string("text"))}),
       {0x52, 0x6C, 0x1D, 0x9A, 0x30, 0x00, 0x00, 0x00,  // crc, len 48
        0x01,                                            // kInsert
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tid
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // table id
        0x03, 0x00, 0x00, 0x00,                          // 3 values
        0x01, 0xD6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // int -42
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  // double 2.5
        0x03, 0x04, 0x00, 0x00, 0x00, 0x74, 0x65, 0x78, 0x74}},  // "text"
      {LogRecord::InsertEncoded(8, 3, {1, 2, 3}),
       {0x0A, 0xA7, 0x36, 0xC2, 0x21, 0x00, 0x00, 0x00,  // crc, len 33
        0x02,                                            // kInsertEncoded
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tid
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // table id
        0x03, 0x00, 0x00, 0x00,                          // 3 ids
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  //
        0x03, 0x00, 0x00, 0x00}},
      {LogRecord::DictAdd(3, 1, Value(std::string("entry"))),
       {0xB3, 0xDC, 0xF8, 0x5B, 0x17, 0x00, 0x00, 0x00,  // crc, len 23
        0x03,                                            // kDictAdd
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // table id
        0x01, 0x00, 0x00, 0x00,                          // column
        0x03, 0x05, 0x00, 0x00, 0x00,                    // string, 5 bytes
        0x65, 0x6E, 0x74, 0x72, 0x79}},                  // "entry"
      {LogRecord::Delete(9, 3, {true, 123}),
       {0x69, 0x2F, 0xD9, 0x1E, 0x1A, 0x00, 0x00, 0x00,  // crc, len 26
        0x04,                                            // kDelete
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tid
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // table id
        0x01,                                            // in main
        0x7B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},  // row 123
      {LogRecord::Commit(9, 55),
       {0x38, 0xDA, 0x1A, 0x0A, 0x11, 0x00, 0x00, 0x00,  // crc, len 17
        0x05,                                            // kCommit
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tid
        0x37, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},  // cid 55
      {LogRecord::Abort(10),
       {0xC9, 0x9C, 0x4D, 0xBF, 0x09, 0x00, 0x00, 0x00,  // crc, len 9
        0x06,                                            // kAbort
        0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},  // tid
      {LogRecord::CreateTable(12, "orders", {0x01, 0x02, 0x03, 0xFF}),
       {0xFE, 0xA4, 0x72, 0x29, 0x1B, 0x00, 0x00, 0x00,  // crc, len 27
        0x07,                                            // kCreateTable
        0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // table id
        0x06, 0x00, 0x00, 0x00,                          // name, 6 bytes
        0x6F, 0x72, 0x64, 0x65, 0x72, 0x73,              // "orders"
        0x04, 0x00, 0x00, 0x00,                          // blob, 4 bytes
        0x01, 0x02, 0x03, 0xFF}},
      {LogRecord::CreateIndex(12, 3, 1),
       {0xBE, 0xBA, 0x5F, 0xA8, 0x11, 0x00, 0x00, 0x00,  // crc, len 17
        0x08,                                            // kCreateIndex
        0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // table id
        0x03, 0x00, 0x00, 0x00,                          // column
        0x01, 0x00, 0x00, 0x00}},                        // kind
      {LogRecord::Prepare(11, 0x1122334455667788ull),
       {0x0F, 0x7C, 0x4C, 0x5C, 0x11, 0x00, 0x00, 0x00,  // crc, len 17
        0x09,                                            // kPrepare
        0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tid
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}},  // gtid
  };
}

TEST(LogRecordTest, EveryTypeWritesThePinnedBytes) {
  for (const PinnedRecord& pinned : PinnedRecords()) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(
                               pinned.record.type)));
    EXPECT_EQ(EncodeRecord(pinned.record), pinned.bytes);
    size_t consumed = 0;
    auto decoded =
        DecodeRecord(pinned.bytes.data(), pinned.bytes.size(), &consumed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(consumed, pinned.bytes.size());
    EXPECT_EQ(EncodeRecord(*decoded), pinned.bytes);
  }
}

TEST(LogRecordTest, DecodersSurviveTruncationFuzz) {
  // Every strict prefix of a record body, and of a schema blob, is
  // refused as Corruption: each of their fields is required. No prefix
  // may read past its exactly-sized copy.
  for (const PinnedRecord& pinned : PinnedRecords()) {
    const std::vector<uint8_t> body(pinned.bytes.begin() + 8,
                                    pinned.bytes.end());
    for (size_t len = 0; len <= body.size(); ++len) {
      SCOPED_TRACE("type " +
                   std::to_string(static_cast<int>(pinned.record.type)) +
                   ", " + std::to_string(len) + " bytes");
      const std::vector<uint8_t> prefix(body.begin(), body.begin() + len);
      const LogFrame frame{prefix.data(), prefix.size()};
      auto record = DecodeRecordBody(frame);
      auto header = DecodeRecordHeader(frame);
      if (len == body.size()) {
        EXPECT_TRUE(record.ok()) << record.status().ToString();
        EXPECT_TRUE(header.ok()) << header.status().ToString();
      } else {
        EXPECT_TRUE(record.status().IsCorruption());
        if (!header.ok()) {
          EXPECT_TRUE(header.status().IsCorruption());
        }
      }
    }
  }
  const std::vector<uint8_t> blob =
      storage::Schema::Make({{"id", storage::DataType::kInt64},
                             {"name", storage::DataType::kString}})
          ->Serialize();
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::vector<uint8_t> prefix(blob.begin(), blob.begin() + len);
    auto schema = storage::Schema::Deserialize(prefix.data(), prefix.size());
    EXPECT_TRUE(schema.status().IsCorruption()) << len << " bytes";
  }
}

/// A CRC-valid frame around `body`, as the log writer frames it.
std::vector<uint8_t> Frame(const std::vector<uint8_t>& body) {
  std::vector<uint8_t> framed(8);
  const uint32_t crc = MaskCrc(Crc32c(body.data(), body.size()));
  const auto len = static_cast<uint32_t>(body.size());
  std::memcpy(framed.data(), &crc, 4);
  std::memcpy(framed.data() + 4, &len, 4);
  framed.insert(framed.end(), body.begin(), body.end());
  return framed;
}

TEST(LogRecordTest, CountBeyondTheBodyIsCorruption) {
  // An insert whose frame checks out but whose value count (2^32 - 1)
  // exceeds the bytes left must be refused before anything is sized by
  // it.
  for (const RecordType type :
       {RecordType::kInsert, RecordType::kInsertEncoded}) {
    std::vector<uint8_t> body = {static_cast<uint8_t>(type)};
    body.insert(body.end(), 16, 0x01);   // tid, table id
    body.insert(body.end(), 4, 0xFF);    // count
    body.insert(body.end(), {0x01, 0x02});  // two stray bytes
    const std::vector<uint8_t> framed = Frame(body);
    size_t consumed = 0;
    auto decoded = DecodeRecord(framed.data(), framed.size(), &consumed);
    EXPECT_TRUE(decoded.status().IsCorruption())
        << decoded.status().ToString();
  }
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
  ASSERT_TRUE(reader.Load(0).ok());
  int seen = 0;
  auto count = reader.ForEachFrame([&](const LogFrame& frame) -> Status {
    HYRISE_NV_ASSIGN_OR_RETURN(const LogRecord record,
                               DecodeRecordBody(frame));
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
  ASSERT_TRUE(reader.Load(offset).ok());
  std::vector<storage::Tid> tids;
  auto count = reader.ForEachFrame([&](const LogFrame& frame) -> Status {
    HYRISE_NV_ASSIGN_OR_RETURN(const LogRecord record,
                               DecodeRecordBody(frame));
    tids.push_back(record.tid);
    return Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(tids, (std::vector<storage::Tid>{2}));
  nvm::RemoveFileIfExists(path);
}

}  // namespace
}  // namespace hyrise_nv::wal
