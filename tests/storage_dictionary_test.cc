#include "storage/dictionary.h"

#include <gtest/gtest.h>

#include <vector>

#include "alloc/pheap.h"
#include "obs/metrics.h"

namespace hyrise_nv::storage {
namespace {

class DictionaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::PmemRegionOptions opts;
    opts.tracking = nvm::TrackingMode::kShadow;
    auto result = alloc::PHeap::Create(8 << 20, opts);
    ASSERT_TRUE(result.ok());
    heap_ = std::move(result).ValueUnsafe();
    auto delta_off = heap_->allocator().Alloc(sizeof(PDeltaColumnMeta));
    ASSERT_TRUE(delta_off.ok());
    delta_meta_ = heap_->Resolve<PDeltaColumnMeta>(*delta_off);
    DeltaDictionary::Format(heap_->region(), delta_meta_);
    auto main_off = heap_->allocator().Alloc(sizeof(PMainColumnMeta));
    ASSERT_TRUE(main_off.ok());
    main_meta_ = heap_->Resolve<PMainColumnMeta>(*main_off);
    MainColumnFormat();
  }

  void MainColumnFormat() {
    alloc::PVector<uint64_t>::Format(heap_->region(),
                                     &main_meta_->dict_values);
    alloc::PVector<char>::Format(heap_->region(), &main_meta_->dict_blob);
  }

  DeltaDictionary MakeDelta(DataType type) {
    return DeltaDictionary(type, &heap_->region(), &heap_->allocator(),
                           delta_meta_);
  }

  MainDictionary MakeMain(DataType type) {
    return MainDictionary(type, &heap_->region(), &heap_->allocator(),
                          main_meta_);
  }

  /// Entries hashed into dictionary tables by builds, growths, and
  /// repairs so far (0 when metrics are compiled out).
  static uint64_t RehashedEntries() {
    return obs::MetricsRegistry::Instance()
        .GetCounter("storage.dict.index.rehashed_entries")
        .Value();
  }

  std::unique_ptr<alloc::PHeap> heap_;
  PDeltaColumnMeta* delta_meta_ = nullptr;
  PMainColumnMeta* main_meta_ = nullptr;
};

TEST_F(DictionaryTest, NumericEncodingRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{42},
                    int64_t{INT64_MIN}, int64_t{INT64_MAX}}) {
    const uint64_t bits = EncodeNumeric(Value(v), DataType::kInt64);
    EXPECT_EQ(std::get<int64_t>(DecodeNumeric(bits, DataType::kInt64)), v);
  }
  for (double v : {0.0, -1.5, 3.14159, 1e300, -1e-300}) {
    const uint64_t bits = EncodeNumeric(Value(v), DataType::kDouble);
    EXPECT_EQ(std::get<double>(DecodeNumeric(bits, DataType::kDouble)), v);
  }
}

TEST_F(DictionaryTest, NumericCompareSignedness) {
  const auto enc = [](int64_t v) {
    return EncodeNumeric(Value(v), DataType::kInt64);
  };
  EXPECT_LT(CompareNumericEncoded(DataType::kInt64, enc(-5), enc(3)), 0);
  EXPECT_GT(CompareNumericEncoded(DataType::kInt64, enc(7), enc(-7)), 0);
  EXPECT_EQ(CompareNumericEncoded(DataType::kInt64, enc(9), enc(9)), 0);
  const auto encd = [](double v) {
    return EncodeNumeric(Value(v), DataType::kDouble);
  };
  EXPECT_LT(CompareNumericEncoded(DataType::kDouble, encd(-0.5), encd(0.5)),
            0);
}

TEST_F(DictionaryTest, DeltaDedupsValues) {
  auto dict = MakeDelta(DataType::kInt64);
  auto a = dict.GetOrInsert(Value(int64_t{10}));
  auto b = dict.GetOrInsert(Value(int64_t{20}));
  auto c = dict.GetOrInsert(Value(int64_t{10}));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *c);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(dict.size(), 2u);
}

TEST_F(DictionaryTest, DeltaLookupAndGetValue) {
  auto dict = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(dict.GetOrInsert(Value(int64_t{7})).ok());
  EXPECT_NE(dict.Lookup(Value(int64_t{7})), kInvalidValueId);
  EXPECT_EQ(dict.Lookup(Value(int64_t{8})), kInvalidValueId);
  EXPECT_EQ(std::get<int64_t>(dict.GetValue(0)), 7);
}

TEST_F(DictionaryTest, DeltaStringsDedupAndRoundTrip) {
  auto dict = MakeDelta(DataType::kString);
  auto a = dict.GetOrInsert(Value(std::string("alpha")));
  auto b = dict.GetOrInsert(Value(std::string("beta")));
  auto c = dict.GetOrInsert(Value(std::string("alpha")));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *c);
  EXPECT_EQ(std::get<std::string>(dict.GetValue(*b)), "beta");
  EXPECT_EQ(dict.Lookup(Value(std::string("beta"))), *b);
  EXPECT_EQ(dict.Lookup(Value(std::string("gamma"))), kInvalidValueId);
}

TEST_F(DictionaryTest, DeltaEmptyStringSupported) {
  auto dict = MakeDelta(DataType::kString);
  auto id = dict.GetOrInsert(Value(std::string("")));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(std::get<std::string>(dict.GetValue(*id)), "");
}

TEST_F(DictionaryTest, DeltaAttachKeepsPersistentTable) {
  {
    auto dict = MakeDelta(DataType::kString);
    ASSERT_TRUE(dict.GetOrInsert(Value(std::string("x"))).ok());
    ASSERT_TRUE(dict.GetOrInsert(Value(std::string("y"))).ok());
  }
  // Simulate restart: a fresh handle finds the value→id table on NVM, so
  // neither attach nor repair hashes a single entry.
  const uint64_t rehashed_before = RehashedEntries();
  auto dict = MakeDelta(DataType::kString);
  ASSERT_TRUE(dict.Attach().ok());
  ASSERT_TRUE(dict.Repair().ok());
  EXPECT_EQ(RehashedEntries(), rehashed_before);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.table_slots(), 16u);
  EXPECT_EQ(dict.Lookup(Value(std::string("y"))), 1u);
  auto again = dict.GetOrInsert(Value(std::string("x")));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u) << "attach must rediscover existing entries";
}

TEST_F(DictionaryTest, DeltaTableGrowsAndRetiresOldTables) {
  auto dict = MakeDelta(DataType::kInt64);
  for (int64_t v = 0; v < 1000; ++v) {
    auto id = dict.GetOrInsert(Value(v * 7));
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, static_cast<ValueId>(v));
  }
  // 1000 ids + 4 header slots exceed 3/4 of 1024 slots.
  EXPECT_EQ(dict.table_slots(), 2048u);
  const auto* table =
      heap_->Resolve<PDictTable>(delta_meta_->dict_table);
  EXPECT_NE(table->retired, 0u) << "growth retires, never frees";
  for (int64_t v = 0; v < 1000; ++v) {
    ASSERT_EQ(dict.Lookup(Value(v * 7)), static_cast<ValueId>(v));
  }
  EXPECT_EQ(dict.Lookup(Value(int64_t{3})), kInvalidValueId);
  // Open-time repair frees the retired chain.
  auto reopened = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(reopened.Attach().ok());
  ASSERT_TRUE(reopened.Repair().ok());
  EXPECT_EQ(table->retired, 0u);
  EXPECT_EQ(reopened.Lookup(Value(int64_t{6993})), 999u);
}

/// Cuts durability at every fence of four inserts that cross a table
/// growth (the ninth id doubles the table from 16 to 32 slots), crashes,
/// and re-attaches. A cut can land before or after the growth publish
/// and between a value append and its slot store; whichever, every
/// committed value keeps exactly one id.
TEST(DictionaryCrashTest, FenceCutSweepAcrossInsertAndGrowth) {
  for (const DataType type : {DataType::kString, DataType::kInt64}) {
    const auto value_of = [type](int i) {
      return type == DataType::kString ? Value("value-" + std::to_string(i))
                                       : Value(int64_t{i} * 1000003);
    };
    bool saw_missing_last = false;
    bool saw_before_publish = false;
    bool saw_after_publish = false;
    uint64_t complete_runs = 0;
    for (uint64_t cut = 0; complete_runs < 3; ++cut) {
      ASSERT_LT(cut, 500u) << "sweep never reached an uncut run";
      nvm::PmemRegionOptions opts;
      opts.tracking = nvm::TrackingMode::kShadow;
      auto heap = std::move(alloc::PHeap::Create(2 << 20, opts)).ValueUnsafe();
      auto* meta = heap->Resolve<PDeltaColumnMeta>(
          *heap->allocator().Alloc(sizeof(PDeltaColumnMeta)));
      DeltaDictionary::Format(heap->region(), meta);
      {
        DeltaDictionary dict(type, &heap->region(), &heap->allocator(), meta);
        for (int i = 0; i < 8; ++i) {
          ASSERT_TRUE(dict.GetOrInsert(value_of(i)).ok());
        }
        heap->region().Fence();  // the first eight are durable
        heap->region().FreezeShadowAfterFences(cut);
        for (int i = 8; i < 12; ++i) {
          ASSERT_TRUE(dict.GetOrInsert(value_of(i)).ok());
        }
        if (!heap->region().shadow_frozen()) ++complete_runs;
      }
      ASSERT_TRUE(heap->region().SimulateCrash().ok());

      DeltaDictionary dict(type, &heap->region(), &heap->allocator(), meta);
      ASSERT_TRUE(dict.Attach().ok()) << "cut " << cut;
      const uint64_t n = dict.size();
      ASSERT_GE(n, 8u);
      ASSERT_LE(n, 12u);
      // What the cut left on NVM: which table, and which ids it holds.
      const auto* table = heap->Resolve<PDictTable>(meta->dict_table);
      const auto* slots = reinterpret_cast<const uint32_t*>(table);
      std::vector<int> held(n, 0);
      for (uint64_t s = kDictTableHeaderSlots; s < table->slot_count; ++s) {
        if (slots[s] == 0) continue;
        ASSERT_LE(slots[s], n) << "cut " << cut;
        ++held[slots[s] - 1];
      }
      for (uint64_t id = 0; id + 1 < n; ++id) {
        ASSERT_EQ(held[id], 1) << "cut " << cut << " id " << id;
      }
      ASSERT_LE(held[n - 1], 1);
      saw_missing_last |= held[n - 1] == 0;
      saw_before_publish |= n == 8 && table->slot_count == 16 && cut > 0;
      saw_after_publish |= n == 8 && table->slot_count == 32;

      // Every committed value maps to exactly one id, read-only first...
      for (uint64_t id = 0; id < n; ++id) {
        ASSERT_EQ(dict.Lookup(value_of(static_cast<int>(id))), id)
            << "cut " << cut;
      }
      // ...and re-inserting returns the old id without growing the dict.
      for (uint64_t id = 0; id < n; ++id) {
        auto again = dict.GetOrInsert(value_of(static_cast<int>(id)));
        ASSERT_TRUE(again.ok());
        ASSERT_EQ(*again, id) << "cut " << cut;
      }
      ASSERT_EQ(dict.size(), n);
      auto next = dict.GetOrInsert(value_of(100));
      ASSERT_TRUE(next.ok());
      EXPECT_EQ(*next, n);
    }
    EXPECT_TRUE(saw_missing_last) << "no cut between value and slot";
    EXPECT_TRUE(saw_before_publish) << "no cut before the growth publish";
    EXPECT_TRUE(saw_after_publish) << "no cut after the growth publish";
  }
}

TEST_F(DictionaryTest, DeltaSurvivesCrash) {
  auto dict = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(dict.GetOrInsert(Value(int64_t{1})).ok());
  ASSERT_TRUE(dict.GetOrInsert(Value(int64_t{2})).ok());
  ASSERT_TRUE(heap_->region().SimulateCrash().ok());
  auto fresh = MakeDelta(DataType::kInt64);
  ASSERT_TRUE(fresh.Attach().ok());
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(fresh.GetValue(1)), 2);
}

TEST_F(DictionaryTest, MainBinarySearchNumeric) {
  auto main = MakeMain(DataType::kInt64);
  std::vector<uint64_t> sorted;
  for (int64_t v : {-100, -5, 0, 3, 42, 999}) {
    sorted.push_back(EncodeNumeric(Value(v), DataType::kInt64));
  }
  ASSERT_TRUE(main.values().BulkAppend(sorted.data(), sorted.size()).ok());

  EXPECT_EQ(main.Find(Value(int64_t{42})), 4u);
  EXPECT_EQ(main.Find(Value(int64_t{43})), kInvalidValueId);
  EXPECT_EQ(main.LowerBound(Value(int64_t{-100})), 0u);
  EXPECT_EQ(main.LowerBound(Value(int64_t{1})), 3u);
  EXPECT_EQ(main.UpperBound(Value(int64_t{3})), 4u);
  EXPECT_EQ(main.LowerBound(Value(int64_t{10000})), main.size());
  EXPECT_EQ(std::get<int64_t>(main.GetValue(0)), -100);
}

TEST_F(DictionaryTest, MainBinarySearchStrings) {
  auto main = MakeMain(DataType::kString);
  std::vector<uint64_t> offsets;
  for (const char* s : {"apple", "banana", "cherry"}) {
    auto off = BlobAppend(main.blob(), s);
    ASSERT_TRUE(off.ok());
    offsets.push_back(*off);
  }
  ASSERT_TRUE(
      main.values().BulkAppend(offsets.data(), offsets.size()).ok());

  EXPECT_EQ(main.Find(Value(std::string("banana"))), 1u);
  EXPECT_EQ(main.Find(Value(std::string("blueberry"))), kInvalidValueId);
  EXPECT_EQ(main.LowerBound(Value(std::string("b"))), 1u);
  EXPECT_EQ(main.UpperBound(Value(std::string("cherry"))), 3u);
  EXPECT_EQ(std::get<std::string>(main.GetValue(2)), "cherry");
}

TEST_F(DictionaryTest, EmptyMainDictionaryBehaves) {
  auto main = MakeMain(DataType::kInt64);
  EXPECT_EQ(main.size(), 0u);
  EXPECT_EQ(main.Find(Value(int64_t{1})), kInvalidValueId);
  EXPECT_EQ(main.LowerBound(Value(int64_t{1})), 0u);
}

TEST_F(DictionaryTest, BlobReadWriteRoundTrip) {
  auto desc_off = heap_->allocator().Alloc(sizeof(alloc::PVectorDesc));
  ASSERT_TRUE(desc_off.ok());
  auto* desc = heap_->Resolve<alloc::PVectorDesc>(*desc_off);
  alloc::PVector<char>::Format(heap_->region(), desc);
  alloc::PVector<char> blob(&heap_->region(), &heap_->allocator(), desc);
  auto a = BlobAppend(blob, "hello");
  auto b = BlobAppend(blob, "");
  auto c = BlobAppend(blob, std::string(1000, 'z'));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(BlobRead(blob, *a), "hello");
  EXPECT_EQ(BlobRead(blob, *b), "");
  EXPECT_EQ(BlobRead(blob, *c).size(), 1000u);
}

}  // namespace
}  // namespace hyrise_nv::storage
