#include "storage/schema.h"

#include <unordered_set>

namespace hyrise_nv::storage {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

bool ValueMatchesType(const Value& value, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return std::holds_alternative<int64_t>(value);
    case DataType::kDouble:
      return std::holds_alternative<double>(value);
    case DataType::kString:
      return std::holds_alternative<std::string>(value);
  }
  return false;
}

void EncodeValue(const Value& value, ByteWriter& out) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    out.U8(static_cast<uint8_t>(DataType::kInt64));
    out.U64(static_cast<uint64_t>(*i));
  } else if (const auto* d = std::get_if<double>(&value)) {
    out.U8(static_cast<uint8_t>(DataType::kDouble));
    out.F64(*d);
  } else {
    out.U8(static_cast<uint8_t>(DataType::kString));
    out.Str(std::get<std::string>(value));
  }
}

Value DecodeValue(ByteReader& in) {
  switch (static_cast<DataType>(in.U8())) {
    case DataType::kInt64:
      return Value(static_cast<int64_t>(in.U64()));
    case DataType::kDouble:
      return Value(in.F64());
    case DataType::kString:
      return Value(in.Str());
  }
  in.Fail();
  return Value(int64_t{0});
}

Result<Schema> Schema::Make(std::vector<ColumnDef> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("schema needs at least one column");
  }
  std::unordered_set<std::string> names;
  for (const auto& col : columns) {
    if (col.name.empty()) {
      return Status::InvalidArgument("empty column name");
    }
    if (!names.insert(col.name).second) {
      return Status::InvalidArgument("duplicate column name: " + col.name);
    }
    switch (col.type) {
      case DataType::kInt64:
      case DataType::kDouble:
      case DataType::kString:
        break;
      default:
        return Status::InvalidArgument("invalid data type for column " +
                                       col.name);
    }
  }
  return Schema(std::move(columns));
}

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

Status Schema::CheckRow(const std::vector<Value>& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema has " +
        std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!ValueMatchesType(row[i], columns_[i].type)) {
      return Status::InvalidArgument("type mismatch in column " +
                                     columns_[i].name);
    }
  }
  return Status::OK();
}

std::vector<uint8_t> Schema::Serialize() const {
  std::vector<uint8_t> bytes;
  ByteWriter out(&bytes);
  out.U32(static_cast<uint32_t>(columns_.size()));
  for (const auto& col : columns_) {
    out.U32(static_cast<uint32_t>(col.type));
    out.Str(col.name);
  }
  return bytes;
}

Result<Schema> Schema::Deserialize(const uint8_t* data, size_t len) {
  ByteReader in(data, len);
  const uint64_t ncols = in.Count(in.U32());
  std::vector<ColumnDef> columns;
  columns.reserve(ncols);
  for (uint64_t i = 0; i < ncols && in.ok(); ++i) {
    const auto type = static_cast<DataType>(in.U32());
    columns.push_back(ColumnDef{in.Str(), type});
  }
  if (!in.ok()) return Status::Corruption("schema blob truncated");
  return Schema::Make(std::move(columns));
}

}  // namespace hyrise_nv::storage
