#include "storage/schema.h"

#include <gtest/gtest.h>

namespace hyrise_nv::storage {
namespace {

Schema TestSchema() {
  auto result = Schema::Make({{"id", DataType::kInt64},
                              {"price", DataType::kDouble},
                              {"name", DataType::kString}});
  EXPECT_TRUE(result.ok());
  return *result;
}

TEST(SchemaTest, MakeValid) {
  const Schema schema = TestSchema();
  EXPECT_EQ(schema.num_columns(), 3u);
  EXPECT_EQ(schema.column(0).name, "id");
  EXPECT_EQ(schema.column(2).type, DataType::kString);
}

TEST(SchemaTest, RejectsEmpty) {
  EXPECT_FALSE(Schema::Make({}).ok());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto result = Schema::Make(
      {{"a", DataType::kInt64}, {"a", DataType::kDouble}});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsEmptyName) {
  EXPECT_FALSE(Schema::Make({{"", DataType::kInt64}}).ok());
}

TEST(SchemaTest, RejectsBadType) {
  EXPECT_FALSE(Schema::Make({{"x", static_cast<DataType>(99)}}).ok());
}

TEST(SchemaTest, ColumnIndexLookup) {
  const Schema schema = TestSchema();
  auto idx = schema.ColumnIndex("price");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(schema.ColumnIndex("missing").status().IsNotFound());
}

TEST(SchemaTest, CheckRowValidatesArityAndTypes) {
  const Schema schema = TestSchema();
  EXPECT_TRUE(schema
                  .CheckRow({Value(int64_t{1}), Value(2.5),
                             Value(std::string("x"))})
                  .ok());
  EXPECT_FALSE(schema.CheckRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(schema
                   .CheckRow({Value(2.5), Value(int64_t{1}),
                              Value(std::string("x"))})
                   .ok());
}

TEST(SchemaTest, SerializeRoundTrip) {
  const Schema schema = TestSchema();
  const auto bytes = schema.Serialize();
  auto back = Schema::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, schema);
}

TEST(SchemaTest, SerializeWritesThePinnedBytes) {
  // The blob the catalog stores in the NVM image and the log and the
  // checkpoint carry: [u32 columns], then per column [u32 type]
  // [u32 name length][name]. A change here breaks every existing image.
  const std::vector<uint8_t> pinned = {
      0x03, 0x00, 0x00, 0x00,                                // 3 columns
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,        // int64, 2
      0x69, 0x64,                                            // "id"
      0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,        // double, 5
      0x70, 0x72, 0x69, 0x63, 0x65,                          // "price"
      0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,        // string, 4
      0x6E, 0x61, 0x6D, 0x65};                               // "name"
  EXPECT_EQ(TestSchema().Serialize(), pinned);
  auto back = Schema::Deserialize(pinned.data(), pinned.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, TestSchema());
}

TEST(SchemaTest, ColumnCountBeyondTheBlobIsCorruption) {
  // 2^32 - 1 columns in a 4-byte blob: refused before anything is sized
  // by the count.
  const std::vector<uint8_t> blob = {0xFF, 0xFF, 0xFF, 0xFF};
  auto result = Schema::Deserialize(blob.data(), blob.size());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

TEST(SchemaTest, DeserializeTruncatedFails) {
  const auto bytes = TestSchema().Serialize();
  for (size_t cut : {size_t{0}, size_t{2}, bytes.size() - 1}) {
    auto result = Schema::Deserialize(bytes.data(), cut);
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

TEST(SchemaTest, ValueMatchesType) {
  EXPECT_TRUE(ValueMatchesType(Value(int64_t{5}), DataType::kInt64));
  EXPECT_TRUE(ValueMatchesType(Value(5.0), DataType::kDouble));
  EXPECT_TRUE(
      ValueMatchesType(Value(std::string("s")), DataType::kString));
  EXPECT_FALSE(ValueMatchesType(Value(int64_t{5}), DataType::kDouble));
  EXPECT_FALSE(ValueMatchesType(Value(5.0), DataType::kString));
}

TEST(SchemaTest, DataTypeNames) {
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "int64");
  EXPECT_STREQ(DataTypeName(DataType::kDouble), "double");
  EXPECT_STREQ(DataTypeName(DataType::kString), "string");
}

}  // namespace
}  // namespace hyrise_nv::storage
