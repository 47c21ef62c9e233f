#ifndef HYRISE_NV_STORAGE_TYPES_H_
#define HYRISE_NV_STORAGE_TYPES_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/byte_codec.h"

namespace hyrise_nv::storage {

/// Column data types supported by the engine.
enum class DataType : uint32_t {
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

const char* DataTypeName(DataType type);

/// A single cell value. Strings are owned copies; the storage layer
/// dictionary-encodes them on insert.
using Value = std::variant<int64_t, double, std::string>;

/// Whether `value`'s alternative matches `type`.
bool ValueMatchesType(const Value& value, DataType type);

/// The one encoding of a value, shared by log records and wire frames:
/// [u8 tag = its DataType] then the 8-byte int64 or double, or the
/// string as [u32 length][bytes].
void EncodeValue(const Value& value, ByteWriter& out);
/// Reads what EncodeValue wrote. A short buffer or an unknown tag
/// latches `in`'s error and yields int64 0.
Value DecodeValue(ByteReader& in);

/// Dictionary value id within a partition. Ids index the partition's
/// dictionary; main and delta dictionaries have independent id spaces.
using ValueId = uint32_t;
constexpr ValueId kInvalidValueId = UINT32_MAX;

/// Commit id (CID): global, monotonically increasing commit timestamp.
using Cid = uint64_t;
/// Transaction id (TID): unique per transaction, never reused across
/// restarts (allocated in persisted blocks).
using Tid = uint64_t;

constexpr Cid kCidInfinity = UINT64_MAX;
constexpr Tid kTidNone = 0;

/// Per-row multi-version metadata (Hyrise scheme). Lives on NVM; the
/// begin/end stamps plus the global commit watermark define visibility, so
/// recovery never needs to undo row payloads.
struct MvccEntry {
  Cid begin = kCidInfinity;  // first CID that sees the row
  Cid end = kCidInfinity;    // first CID that no longer sees it
  Tid tid = kTidNone;        // owning transaction while claimed
};
static_assert(sizeof(MvccEntry) == 24, "MvccEntry layout");

/// Identifies a row within a table: main partition rows and delta
/// partition rows are addressed separately.
struct RowLocation {
  bool in_main = false;
  uint64_t row = 0;

  bool operator==(const RowLocation&) const = default;
};

}  // namespace hyrise_nv::storage

#endif  // HYRISE_NV_STORAGE_TYPES_H_
