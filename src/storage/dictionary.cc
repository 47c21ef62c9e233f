#include "storage/dictionary.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "common/macros.h"
#include "obs/metrics.h"

namespace hyrise_nv::storage {

uint64_t EncodeNumeric(const Value& value, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return static_cast<uint64_t>(std::get<int64_t>(value));
    case DataType::kDouble:
      return std::bit_cast<uint64_t>(std::get<double>(value));
    case DataType::kString:
      break;
  }
  HYRISE_NV_CHECK(false, "EncodeNumeric on string column");
  return 0;
}

Value DecodeNumeric(uint64_t bits, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return Value(static_cast<int64_t>(bits));
    case DataType::kDouble:
      return Value(std::bit_cast<double>(bits));
    case DataType::kString:
      break;
  }
  HYRISE_NV_CHECK(false, "DecodeNumeric on string column");
  return Value(int64_t{0});
}

int CompareNumericEncoded(DataType type, uint64_t a, uint64_t b) {
  if (type == DataType::kInt64) {
    const auto ia = static_cast<int64_t>(a);
    const auto ib = static_cast<int64_t>(b);
    return ia < ib ? -1 : (ia > ib ? 1 : 0);
  }
  const double da = std::bit_cast<double>(a);
  const double db = std::bit_cast<double>(b);
  return da < db ? -1 : (da > db ? 1 : 0);
}

namespace {

uint64_t Fnv1a(const void* data, size_t len) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV offset basis
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

/// splitmix64 finaliser for avalanche.
uint64_t Finalize(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t HashString(std::string_view text) {
  return Finalize(Fnv1a(text.data(), text.size()));
}

uint64_t HashNumeric(uint64_t bits) {
  return Finalize(Fnv1a(&bits, sizeof(bits)));
}

uint64_t HashValue(const Value& value, DataType type) {
  return type == DataType::kString
             ? HashString(std::get<std::string>(value))
             : HashNumeric(EncodeNumeric(value, type));
}

std::string_view BlobRead(const alloc::PVector<char>& blob,
                          uint64_t offset) {
  HYRISE_NV_DCHECK(offset + 4 <= blob.size(), "blob offset out of range");
  uint32_t len = 0;
  std::memcpy(&len, blob.data() + offset, 4);
  HYRISE_NV_DCHECK(offset + 4 + len <= blob.size(),
                   "blob entry out of range");
  return std::string_view(blob.data() + offset + 4, len);
}

Result<uint64_t> BlobAppend(alloc::PVector<char>& blob,
                            std::string_view text) {
  if (text.size() > UINT32_MAX) {
    return Status::InvalidArgument("string too long");
  }
  const uint64_t offset = blob.size();
  const uint32_t len = static_cast<uint32_t>(text.size());
  std::vector<char> entry(4 + text.size());
  std::memcpy(entry.data(), &len, 4);
  std::memcpy(entry.data() + 4, text.data(), text.size());
  HYRISE_NV_RETURN_NOT_OK(blob.BulkAppend(entry.data(), entry.size()));
  return offset;
}

// ---------------------------------------------------------------------------
// DeltaDictionary

namespace {

/// Smallest table, in slots. Also the table of a dictionary's first id.
constexpr uint64_t kMinTableSlots = 16;
/// Longest retired chain a table can have (each growth doubles it).
constexpr uint64_t kMaxRetiredChain = 64;

/// Slots of the smallest table that holds `entries` ids plus the header
/// at a load of at most 3/4.
uint64_t SlotCountFor(uint64_t entries) {
  uint64_t slots = kMinTableSlots;
  while ((entries + kDictTableHeaderSlots) * 4 > slots * 3) slots *= 2;
  return slots;
}

uint32_t* SlotsOf(PDictTable* table) {
  return reinterpret_cast<uint32_t*>(table);
}

/// Whether a table of `slot_count` slots at `offset` lies inside the heap.
bool TableInBounds(const nvm::PmemRegion& region, uint64_t offset,
                   uint64_t slot_count) {
  return offset >= alloc::PAllocator::HeapBegin() && offset % 8 == 0 &&
         slot_count >= kMinTableSlots &&
         (slot_count & (slot_count - 1)) == 0 &&
         offset < region.size() &&
         slot_count <= (region.size() - offset) / sizeof(uint32_t);
}

void NoteRehashed(uint64_t entries) {
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& rehashed = obs::MetricsRegistry::Instance().GetCounter(
      "storage.dict.index.rehashed_entries");
  rehashed.Add(entries);
#else
  (void)entries;
#endif
}

}  // namespace

DeltaDictionary::DeltaDictionary(DataType type, nvm::PmemRegion* region,
                                 alloc::PAllocator* alloc,
                                 PDeltaColumnMeta* meta)
    : type_(type),
      region_(region),
      alloc_(alloc),
      meta_(meta),
      values_(region, alloc, &meta->dict_values),
      blob_(region, alloc, &meta->dict_blob) {}

void DeltaDictionary::Format(nvm::PmemRegion& region,
                             PDeltaColumnMeta* meta) {
  alloc::PVector<uint64_t>::Format(region, &meta->dict_values);
  alloc::PVector<char>::Format(region, &meta->dict_blob);
  alloc::PVector<uint32_t>::Format(region, &meta->attr);
  meta->dict_table = 0;
  region.Persist(&meta->dict_table, sizeof(meta->dict_table));
}

void DeltaDictionary::FreeTables(alloc::PAllocator& alloc,
                                 nvm::PmemRegion& region, uint64_t table) {
  for (uint64_t steps = 0; table != 0 && steps < kMaxRetiredChain;
       ++steps) {
    if (table < alloc::PAllocator::HeapBegin() ||
        table > region.size() - sizeof(PDictTable)) {
      return;
    }
    const uint64_t next =
        reinterpret_cast<const PDictTable*>(region.base() + table)->retired;
    if (!alloc.Free(table).ok()) return;
    table = next;
  }
}

PDictTable* DeltaDictionary::TableAt(uint64_t offset) const {
  return reinterpret_cast<PDictTable*>(region_->base() + offset);
}

PDictTable* DeltaDictionary::LiveTable() const {
  const uint64_t offset = std::atomic_ref<uint64_t>(meta_->dict_table)
                              .load(std::memory_order_acquire);
  return offset == 0 ? nullptr : TableAt(offset);
}

uint64_t DeltaDictionary::table_slots() const {
  const PDictTable* table = LiveTable();
  return table == nullptr ? 0 : table->slot_count;
}

DeltaDictionary::Key DeltaDictionary::KeyOf(const Value& value) const {
  Key key;
  if (type_ == DataType::kString) {
    key.text = std::get<std::string>(value);
  } else {
    key.bits = EncodeNumeric(value, type_);
  }
  return key;
}

DeltaDictionary::Key DeltaDictionary::KeyOfId(ValueId id) const {
  Key key;
  key.bits = values_.Get(id);
  if (type_ == DataType::kString) {
    // Offsets are unchecked at attach (constant work), so read guarded:
    // a corrupt entry keys as empty, and DeepVerify reports it.
    const uint64_t blob_size = blob_.size();
    uint32_t len = 0;
    if (key.bits <= blob_size && blob_size - key.bits >= 4) {
      std::memcpy(&len, blob_.data() + key.bits, 4);
      if (len <= blob_size - key.bits - 4) {
        key.text = std::string_view(blob_.data() + key.bits + 4, len);
      }
    }
  }
  return key;
}

uint64_t DeltaDictionary::HashOf(const Key& key) const {
  return type_ == DataType::kString ? HashString(key.text)
                                    : HashNumeric(key.bits);
}

bool DeltaDictionary::Matches(ValueId id, const Key& key) const {
  if (type_ != DataType::kString) return values_.Get(id) == key.bits;
  return KeyOfId(id).text == key.text;
}

ValueId DeltaDictionary::Probe(const PDictTable* table, const Key& key,
                               uint64_t hash, uint64_t* empty_slot) const {
  const uint64_t slot_count = table->slot_count;
  const uint64_t mask = slot_count - 1;
  const uint64_t size = values_.size();
  uint32_t* slots = SlotsOf(const_cast<PDictTable*>(table));
  uint64_t pos = hash & mask;
  for (uint64_t step = 0; step < slot_count; ++step, pos = (pos + 1) & mask) {
    if (pos < kDictTableHeaderSlots) continue;
    const uint32_t slot = std::atomic_ref<uint32_t>(slots[pos]).load(
        std::memory_order_acquire);
    if (slot == 0) {
      if (empty_slot != nullptr) *empty_slot = pos;
      return kInvalidValueId;
    }
    const ValueId id = slot - 1;
    if (id < size && Matches(id, key)) return id;
  }
  if (empty_slot != nullptr) *empty_slot = 0;  // full: a corrupt table
  return kInvalidValueId;
}

Status DeltaDictionary::Attach() {
  HYRISE_NV_RETURN_NOT_OK(values_.Validate());
  HYRISE_NV_RETURN_NOT_OK(blob_.Validate());
  SetIndexed(0);
  const uint64_t size = values_.size();
  const PDictTable* table = LiveTable();
  if (table == nullptr) return Status::OK();
  if (!TableInBounds(*region_, meta_->dict_table, table->slot_count) ||
      table->slot_count <= size + kDictTableHeaderSlots) {
    return Status::Corruption("delta dictionary table corrupt");
  }
  if (size == 0) return Status::OK();
  // Only the last id can be missing (see the class comment).
  const auto last = static_cast<ValueId>(size - 1);
  if (type_ == DataType::kString && values_.Get(last) + 4 > blob_.size()) {
    return Status::Corruption("delta dictionary blob offset corrupt");
  }
  const Key key = KeyOfId(last);
  SetIndexed(Probe(table, key, HashOf(key), nullptr) == last ? size : last);
  return Status::OK();
}

Status DeltaDictionary::Grow(uint64_t entries) {
  const uint64_t slot_count = SlotCountFor(entries);
  const uint64_t bytes = slot_count * sizeof(uint32_t);
  alloc::IntentHandle intent;
  HYRISE_NV_ASSIGN_OR_RETURN(const uint64_t offset,
                             alloc_->AllocWithIntent(bytes, &intent));
  PDictTable* table = TableAt(offset);
  std::memset(table, 0, bytes);
  table->slot_count = slot_count;
  table->retired = meta_->dict_table;
  uint32_t* slots = SlotsOf(table);
  const uint64_t mask = slot_count - 1;
  const uint64_t count = values_.size();
  for (uint64_t id = 0; id < count; ++id) {
    uint64_t pos = HashOf(KeyOfId(static_cast<ValueId>(id))) & mask;
    while (pos < kDictTableHeaderSlots || slots[pos] != 0) {
      pos = (pos + 1) & mask;
    }
    slots[pos] = static_cast<uint32_t>(id + 1);
  }
  region_->Persist(table, bytes);
  // Retire the intent before the publish: a crash in between leaks the
  // new table, whereas the other order would let allocator recovery free
  // a published one. The publish is the single atomic commit point; the
  // replaced table stays allocated behind `retired` for readers still
  // probing it.
  alloc_->CommitIntent(intent);
  region_->AtomicPersist64(&meta_->dict_table, offset);
  SetIndexed(count);
  NoteRehashed(count);
  return Status::OK();
}

void DeltaDictionary::SetIndexed(uint64_t ids) {
  std::atomic_ref<uint64_t>(indexed_).store(ids, std::memory_order_relaxed);
}

void DeltaDictionary::StoreSlot(PDictTable* table, uint64_t pos,
                                ValueId id) {
  uint32_t* slot = SlotsOf(table) + pos;
  std::atomic_ref<uint32_t>(*slot).store(id + 1, std::memory_order_release);
  region_->Flush(slot, sizeof(uint32_t));
}

Status DeltaDictionary::IndexMissing() {
  const uint64_t size = values_.size();
  const PDictTable* table = LiveTable();
  if (table == nullptr ||
      (size + kDictTableHeaderSlots) * 4 > table->slot_count * 3) {
    return Grow(size);
  }
  for (uint64_t id = indexed_; id < size; ++id) {
    const auto value_id = static_cast<ValueId>(id);
    const Key key = KeyOfId(value_id);
    uint64_t pos = 0;
    // A hit is a duplicate value, a full table is corrupt: DeepVerify
    // reports both, so leave them be.
    if (Probe(table, key, HashOf(key), &pos) == kInvalidValueId && pos != 0) {
      StoreSlot(const_cast<PDictTable*>(table), pos, value_id);
    }
  }
  NoteRehashed(size - indexed_);
  SetIndexed(size);
  return Status::OK();
}

Status DeltaDictionary::Repair() {
  if (indexed_ < values_.size()) {
    HYRISE_NV_RETURN_NOT_OK(IndexMissing());
  }
  PDictTable* table = LiveTable();
  if (table != nullptr && table->retired != 0) {
    // Unlink first: a crash before the frees only leaks the chain.
    const uint64_t chain = table->retired;
    region_->AtomicPersist64(&table->retired, 0);
    FreeTables(*alloc_, *region_, chain);
  }
  return Status::OK();
}

Result<ValueId> DeltaDictionary::GetOrInsert(const Value& value) {
  if (indexed_ < values_.size()) {
    HYRISE_NV_RETURN_NOT_OK(IndexMissing());
  }
  const Key key = KeyOf(value);
  const uint64_t hash = HashOf(key);
  PDictTable* table = LiveTable();
  uint64_t pos = 0;
  if (table != nullptr) {
    const ValueId found = Probe(table, key, hash, &pos);
    if (found != kInvalidValueId) return found;
  }
  const uint64_t size = values_.size();
  if (size >= kInvalidValueId) {
    return Status::OutOfMemory("dictionary full");
  }
  if (table == nullptr ||
      (size + 1 + kDictTableHeaderSlots) * 4 > table->slot_count * 3) {
    HYRISE_NV_RETURN_NOT_OK(Grow(size + 1));
    table = LiveTable();
    Probe(table, key, hash, &pos);
  }
  if (pos == 0) return Status::Corruption("delta dictionary table full");
  // The value first: its size bump is the dictionary's commit point.
  uint64_t stored = key.bits;
  if (type_ == DataType::kString) {
    HYRISE_NV_ASSIGN_OR_RETURN(stored, BlobAppend(blob_, key.text));
  }
  HYRISE_NV_RETURN_NOT_OK(values_.Append(stored));
  const auto id = static_cast<ValueId>(size);
  StoreSlot(table, pos, id);
  SetIndexed(size + 1);
  return id;
}

ValueId DeltaDictionary::Lookup(const Value& value) const {
  const Key key = KeyOf(value);
  return Find(key, HashOf(key));
}

ValueId DeltaDictionary::Find(const Key& key, uint64_t hash) const {
  const PDictTable* table = LiveTable();
  if (table != nullptr) {
    const ValueId found = Probe(table, key, hash, nullptr);
    if (found != kInvalidValueId) return found;
  }
  // Ids Attach found missing (none once Repair ran) are compared directly.
  const uint64_t size = values_.size();
  // (The writer alone stores indexed_; the load only needs atomicity.)
  const uint64_t indexed =
      std::atomic_ref<uint64_t>(const_cast<uint64_t&>(indexed_))
          .load(std::memory_order_relaxed);
  for (uint64_t id = indexed; id < size; ++id) {
    if (Matches(static_cast<ValueId>(id), key)) return static_cast<ValueId>(id);
  }
  return kInvalidValueId;
}

Value DeltaDictionary::GetValue(ValueId id) const {
  HYRISE_NV_DCHECK(id < values_.size(), "value id out of range");
  if (type_ == DataType::kString) {
    return Value(std::string(BlobRead(blob_, values_.Get(id))));
  }
  return DecodeNumeric(values_.Get(id), type_);
}

// ---------------------------------------------------------------------------
// DictionaryStage

namespace {

/// Smallest staging table, in slots.
constexpr uint64_t kMinStageSlots = 64;

}  // namespace

DictionaryStage::DictionaryStage(DeltaDictionary* dict)
    : dict_(dict), base_size_(dict->size()), base_blob_(dict->blob_.size()) {}

bool DictionaryStage::Matches(uint64_t staged,
                              const DeltaDictionary::Key& key) const {
  if (dict_->type() != DataType::kString) return values_[staged] == key.bits;
  const char* entry = blob_.data() + (values_[staged] - base_blob_);
  uint32_t len = 0;
  std::memcpy(&len, entry, 4);
  return std::string_view(entry + 4, len) == key.text;
}

void DictionaryStage::Grow() {
  std::vector<Slot> slots(std::max(kMinStageSlots, slots_.size() * 2));
  const uint64_t mask = slots.size() - 1;
  for (const Slot slot : slots_) {
    if (slot == 0) continue;
    uint64_t pos = (slot >> 32) & mask;
    while (slots[pos] != 0) pos = (pos + 1) & mask;
    slots[pos] = slot;
  }
  slots_.swap(slots);
}

Result<ValueId> DictionaryStage::GetOrInsert(const Value& value) {
  if (!ValueMatchesType(value, dict_->type())) {
    return Status::Corruption("value does not match its column type");
  }
  const DeltaDictionary::Key key = dict_->KeyOf(value);
  const uint64_t hash = dict_->HashOf(key);
  if (base_size_ > 0) {
    const ValueId found = dict_->Find(key, hash);
    if (found != kInvalidValueId) return found;
  }
  if ((values_.size() + 1) * 4 > slots_.size() * 3) Grow();
  const uint64_t tag = hash >> 32;
  const uint64_t mask = slots_.size() - 1;
  uint64_t pos = tag & mask;
  for (; slots_[pos] != 0; pos = (pos + 1) & mask) {
    const Slot slot = slots_[pos];
    const uint64_t staged = (slot & UINT32_MAX) - 1;
    if (slot >> 32 == tag && Matches(staged, key)) {
      return static_cast<ValueId>(base_size_ + staged);
    }
  }
  const uint64_t staged = values_.size();
  if (base_size_ + staged >= kInvalidValueId) {
    return Status::OutOfMemory("dictionary full");
  }
  uint64_t stored = key.bits;
  if (dict_->type() == DataType::kString) {
    if (key.text.size() > UINT32_MAX) {
      return Status::InvalidArgument("string too long");
    }
    stored = base_blob_ + blob_.size();
    const auto len = static_cast<uint32_t>(key.text.size());
    const auto* len_bytes = reinterpret_cast<const char*>(&len);
    blob_.insert(blob_.end(), len_bytes, len_bytes + 4);
    blob_.insert(blob_.end(), key.text.begin(), key.text.end());
  }
  values_.push_back(stored);
  slots_[pos] = tag << 32 | (staged + 1);
  return static_cast<ValueId>(base_size_ + staged);
}

Status DictionaryStage::Publish() {
  if (values_.empty()) return Status::OK();
  if (dict_->size() != base_size_ || dict_->blob_.size() != base_blob_) {
    return Status::Internal("delta dictionary changed under its stage");
  }
  // The blob first: the value vector's size bump publishes the ids.
  HYRISE_NV_RETURN_NOT_OK(dict_->blob_.BulkAppend(blob_.data(), blob_.size()));
  HYRISE_NV_RETURN_NOT_OK(
      dict_->values_.BulkAppend(values_.data(), values_.size()));
  base_size_ = dict_->size();
  base_blob_ = dict_->blob_.size();
  std::vector<uint64_t>().swap(values_);
  std::vector<char>().swap(blob_);
  std::vector<Slot>().swap(slots_);
  return dict_->Repair();
}

// ---------------------------------------------------------------------------
// MainDictionary

MainDictionary::MainDictionary(DataType type, nvm::PmemRegion* region,
                               alloc::PAllocator* alloc,
                               PMainColumnMeta* meta)
    : type_(type),
      values_(region, alloc, &meta->dict_values),
      blob_(region, alloc, &meta->dict_blob) {}

Status MainDictionary::Validate() const {
  HYRISE_NV_RETURN_NOT_OK(values_.Validate());
  return blob_.Validate();
}

Value MainDictionary::GetValue(ValueId id) const {
  HYRISE_NV_DCHECK(id < values_.size(), "value id out of range");
  if (type_ == DataType::kString) {
    return Value(std::string(BlobRead(blob_, values_.Get(id))));
  }
  return DecodeNumeric(values_.Get(id), type_);
}

int MainDictionary::CompareEntry(ValueId id, const Value& value) const {
  if (type_ == DataType::kString) {
    const std::string_view entry = BlobRead(blob_, values_.Get(id));
    return entry.compare(std::get<std::string>(value));
  }
  return CompareNumericEncoded(type_, values_.Get(id),
                               EncodeNumeric(value, type_));
}

ValueId MainDictionary::LowerBound(const Value& value) const {
  uint64_t lo = 0, hi = values_.size();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (CompareEntry(static_cast<ValueId>(mid), value) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<ValueId>(lo);
}

ValueId MainDictionary::UpperBound(const Value& value) const {
  uint64_t lo = 0, hi = values_.size();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (CompareEntry(static_cast<ValueId>(mid), value) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<ValueId>(lo);
}

ValueId MainDictionary::Find(const Value& value) const {
  const ValueId id = LowerBound(value);
  if (id < values_.size() && CompareEntry(id, value) == 0) return id;
  return kInvalidValueId;
}

}  // namespace hyrise_nv::storage
