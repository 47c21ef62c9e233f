#ifndef HYRISE_NV_STORAGE_DICTIONARY_H_
#define HYRISE_NV_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/pvector.h"
#include "common/status.h"
#include "storage/layout.h"
#include "storage/types.h"

namespace hyrise_nv::storage {

/// Bit-encoding of numeric values into the uint64 dictionary slots.
uint64_t EncodeNumeric(const Value& value, DataType type);
Value DecodeNumeric(uint64_t bits, DataType type);

/// Three-way comparison of two encoded numeric values of `type`.
int CompareNumericEncoded(DataType type, uint64_t a, uint64_t b);

/// Stable 64-bit hash of a value, identical across restarts (persistent
/// structures store it or place entries by it). FNV-1a with a splitmix
/// finaliser; HashString and HashNumeric hash the encoded forms a
/// dictionary stores, with the same result as HashValue.
uint64_t HashValue(const Value& value, DataType type);
uint64_t HashString(std::string_view text);
uint64_t HashNumeric(uint64_t bits);

/// Reads the length-prefixed string at `offset` in a blob vector.
std::string_view BlobRead(const alloc::PVector<char>& blob, uint64_t offset);

/// Appends a length-prefixed string to a blob vector; returns its offset.
Result<uint64_t> BlobAppend(alloc::PVector<char>& blob,
                            std::string_view text);

/// The delta partition's unsorted, append-only dictionary for one column.
///
/// Persistent state: the value vector (numeric bits, or blob offsets for
/// strings), the string blob, and a value→id table (PDictTable: open
/// addressing, linear probing) that maps a value to its id without
/// copying keys. Opening a dictionary therefore does constant work; only
/// a bulk-loaded dictionary (checkpoint load) builds its table, once.
///
/// Crash consistency: an insert appends the value first — the size bump
/// is the commit point — then stores the slot and flushes it without a
/// fence of its own. The next fence orders it: the row fence of
/// DeltaPartition::AppendRow before the row can commit, or the value
/// append of the next insert. Inserts into one dictionary are serialized
/// (table write mutex, or single-threaded replay), so a crash can lose at
/// most the slot of the last id, and no committed row references that id.
/// Attach finds it missing; Repair (or the next insert) re-inserts it.
///
/// Concurrency: one writer at a time; Lookup and GetValue take no lock.
/// Readers load the table word and slots with acquire, and a table
/// replaced by growth is retired (chained from its successor), never
/// freed while a reader may hold it: merge frees the chain with the old
/// generation, and Repair frees it at open.
class DeltaDictionary {
 public:
  DeltaDictionary() = default;
  DeltaDictionary(DataType type, nvm::PmemRegion* region,
                  alloc::PAllocator* alloc, PDeltaColumnMeta* meta);

  /// Formats empty persistent vectors (and no table) for a fresh column.
  static void Format(nvm::PmemRegion& region, PDeltaColumnMeta* meta);

  /// Frees the table at offset `table` and every table it retired (merge
  /// retiring an old generation, open freeing a retired chain).
  /// Best-effort: a broken link stops the walk and leaks the rest.
  static void FreeTables(alloc::PAllocator& alloc, nvm::PmemRegion& region,
                         uint64_t table);

  /// Validates persistent state and finds which ids the table misses: at
  /// most the last one after a crash, or all of them when a bulk load
  /// left no table. Lookup still finds those ids. Never writes, so a
  /// salvage open can use it.
  Status Attach();

  /// Indexes the ids Attach found missing (building the table when there
  /// is none) and frees the tables retired by growth. Writes; call it
  /// only while no reader holds the dictionary, i.e. at open.
  Status Repair();

  /// Returns the id of `value`, inserting it if new. The insert persists
  /// the dictionary entry before returning.
  Result<ValueId> GetOrInsert(const Value& value);

  /// Id of `value` if present, else kInvalidValueId.
  ValueId Lookup(const Value& value) const;

  Value GetValue(ValueId id) const;

  uint64_t size() const { return values_.size(); }
  DataType type() const { return type_; }

  /// Slots of the live table including its header (0 = no table).
  uint64_t table_slots() const;

 private:
  friend class DictionaryStage;

  /// A value in the form the dictionary stores it.
  struct Key {
    uint64_t bits = 0;       // numeric columns
    std::string_view text;   // string columns
  };

  Key KeyOf(const Value& value) const;
  Key KeyOfId(ValueId id) const;
  uint64_t HashOf(const Key& key) const;
  bool Matches(ValueId id, const Key& key) const;

  /// Lookup of a key whose hash the caller already has.
  ValueId Find(const Key& key, uint64_t hash) const;

  PDictTable* TableAt(uint64_t offset) const;
  PDictTable* LiveTable() const;

  /// Probes `table` for `key`. Returns the id, or kInvalidValueId with
  /// `*empty_slot` set to the slot where the key would go.
  ValueId Probe(const PDictTable* table, const Key& key, uint64_t hash,
                uint64_t* empty_slot) const;

  /// Replaces the live table by one sized for `entries` ids that holds
  /// every id below size(), published with one atomic persist.
  Status Grow(uint64_t entries);

  /// Stores id's slot at `pos` of `table` and flushes it (no fence).
  void StoreSlot(PDictTable* table, uint64_t pos, ValueId id);

  /// Indexes ids [indexed_, size()).
  Status IndexMissing();

  void SetIndexed(uint64_t ids);

  DataType type_ = DataType::kInt64;
  nvm::PmemRegion* region_ = nullptr;
  alloc::PAllocator* alloc_ = nullptr;
  PDeltaColumnMeta* meta_ = nullptr;
  alloc::PVector<uint64_t> values_;
  alloc::PVector<char> blob_;
  /// Ids [0, indexed_) are in the live table; Lookup compares the rest
  /// directly. Volatile; written by the writer, read by lock-free readers.
  uint64_t indexed_ = 0;
};

/// Log replay's volatile front for one delta dictionary. A value the
/// dictionary already holds (a checkpointed entry) keeps its id; any
/// other gets the next id in arrival order, after every id the
/// dictionary holds, so replaying the log's values in log order hands
/// out the ids the live engine assigned. New values wait in DRAM, found
/// through a flat open-addressing table keyed by the dictionary's own
/// hash, until Publish appends them with one BulkAppend per dictionary
/// vector and indexes them once (DeltaDictionary::Repair). Nothing may
/// write the dictionary between construction and Publish.
///
/// Publish is not crash-atomic: a crash between its appends and its
/// indexing leaves ids the table misses. Replay only runs on a heap no
/// crash reopens half-built (a log engine's DRAM heap, or the image
/// rebuild's scratch file, installed after a clean close).
class DictionaryStage {
 public:
  explicit DictionaryStage(DeltaDictionary* dict);

  /// The id of `value`, staging it if the dictionary lacks it.
  Result<ValueId> GetOrInsert(const Value& value);

  /// Ids the dictionary holds once the stage is published.
  uint64_t size() const { return base_size_ + values_.size(); }

  /// Appends the staged values to the dictionary and indexes them.
  Status Publish();

 private:
  /// Table slot: the hash's high 32 bits (its low bits pick the slot)
  /// above the staged index + 1; 0 = empty.
  using Slot = uint64_t;

  bool Matches(uint64_t staged, const DeltaDictionary::Key& key) const;
  void Grow();

  DeltaDictionary* dict_;
  uint64_t base_size_;
  uint64_t base_blob_;
  /// Staged values in the dictionary's stored form: numeric bits, or
  /// offsets into the dictionary blob once `blob_` is appended to it.
  std::vector<uint64_t> values_;
  /// Staged strings, length-prefixed as BlobAppend writes them.
  std::vector<char> blob_;
  std::vector<Slot> slots_;
};

/// Read-only view of a main partition's sorted dictionary. Value ids are
/// positions in sorted order, which makes range predicates id-comparable.
class MainDictionary {
 public:
  MainDictionary() = default;
  MainDictionary(DataType type, nvm::PmemRegion* region,
                 alloc::PAllocator* alloc, PMainColumnMeta* meta);

  Status Validate() const;

  Value GetValue(ValueId id) const;

  /// Exact lookup by binary search; kInvalidValueId if absent.
  ValueId Find(const Value& value) const;

  /// First id whose value is >= `value` (== size() if none).
  ValueId LowerBound(const Value& value) const;
  /// First id whose value is > `value` (== size() if none).
  ValueId UpperBound(const Value& value) const;

  uint64_t size() const { return values_.size(); }
  DataType type() const { return type_; }

  /// Mutable accessors used only by the merge builder.
  alloc::PVector<uint64_t>& values() { return values_; }
  alloc::PVector<char>& blob() { return blob_; }
  const alloc::PVector<char>& blob() const { return blob_; }

 private:
  // Compares dictionary entry `id` against `value`; <0, 0, >0.
  int CompareEntry(ValueId id, const Value& value) const;

  DataType type_ = DataType::kInt64;
  alloc::PVector<uint64_t> values_;
  alloc::PVector<char> blob_;
};

}  // namespace hyrise_nv::storage

#endif  // HYRISE_NV_STORAGE_DICTIONARY_H_
