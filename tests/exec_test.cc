#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>

#include "common/bitmap.h"
#include "division/hash_division.h"
#include "common/rng.h"
#include "exec/database.h"
#include "exec/exchange.h"
#include "exec/filter.h"
#include "exec/hash_table.h"
#include "exec/kernels/kernels.h"
#include "exec/materialize.h"
#include "exec/mem_source.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

// ---- Heap accounting: every byte requested from the global heap, so a test
// can set what a hash table build really allocates beside what it reserved
// from its MemoryPool. ----

std::atomic<uint64_t> g_heap_bytes{0};

uint64_t HeapBytes() { return g_heap_bytes.load(std::memory_order_relaxed); }

}  // namespace
}  // namespace reldiv

void* operator new(std::size_t size) {
  reldiv::g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  reldiv::g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// GCC pairs these frees against the library operator new it can still see;
// with the replacement news above (malloc-backed) they do match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace reldiv {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  Schema TwoCol() {
    return Schema{Field{"a", ValueType::kInt64},
                  Field{"b", ValueType::kInt64}};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExecTest, DatabaseCreateInsertScan) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTable("t", TwoCol()));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db_->Insert("t", T(i, i * 2)));
  }
  ScanOperator scan(db_->ctx(), rel);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&scan));
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[7], T(7, 14));
}

TEST_F(ExecTest, DatabaseRejectsDuplicateTableNames) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTable("t", TwoCol()));
  (void)rel;
  EXPECT_TRUE(db_->CreateTable("t", TwoCol()).status().IsInvalidArgument());
  EXPECT_TRUE(db_->GetTable("missing").status().IsNotFound());
}

TEST_F(ExecTest, TempTableLivesInMemory) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTempTable("tmp", TwoCol()));
  db_->ResetStats();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(db_->Insert("tmp", T(i, i)));
  }
  ScanOperator scan(db_->ctx(), rel);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&scan));
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(db_->disk()->stats().transfers, 0u);
}

TEST_F(ExecTest, FilterOperator) {
  std::vector<Tuple> input = {T(1, 1), T(2, 2), T(3, 3), T(4, 4)};
  FilterOperator filter(
      std::make_unique<MemSourceOperator>(TwoCol(), input),
      [](const Tuple& t) { return t.value(0).int64() % 2 == 0; });
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&filter));
  EXPECT_EQ(out, (std::vector<Tuple>{T(2, 2), T(4, 4)}));
}

TEST_F(ExecTest, ProjectOperatorReordersColumns) {
  std::vector<Tuple> input = {T(1, 10)};
  ProjectOperator project(
      std::make_unique<MemSourceOperator>(TwoCol(), input), {1, 0});
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&project));
  EXPECT_EQ(out, std::vector<Tuple>{T(10, 1)});
  EXPECT_EQ(project.output_schema().field(0).name, "b");
}

TEST_F(ExecTest, MaterializeAndReadAllRoundTrip) {
  std::vector<Tuple> input = {T(5, 50), T(6, 60)};
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTable("m", TwoCol()));
  MemSourceOperator src(TwoCol(), input);
  ASSERT_OK_AND_ASSIGN(uint64_t n, Materialize(&src, rel.store));
  EXPECT_EQ(n, 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, ReadAll(db_->ctx(), rel));
  EXPECT_EQ(out, input);
}

TEST_F(ExecTest, SpoolOperatorReplaysChildFromDisk) {
  std::vector<Tuple> input = {T(1, 1), T(2, 2), T(3, 3)};
  SpoolOperator spool(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&spool));
  EXPECT_EQ(out, input);
}

TEST_F(ExecTest, HashTableInsertFindAndForEach) {
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0}, 16);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e,
                         table.Insert(T(i, i * 10)));
    e->num = static_cast<uint64_t>(i);
  }
  EXPECT_EQ(table.size(), 100u);
  // Probe with a different schema: probe column 1 against stored column 0.
  Tuple probe = T(-1, 42);
  TupleHashTable::Entry* found = table.Find(probe, {1});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->num, 42u);
  EXPECT_EQ(table.Decode(found).value(1).int64(), 420);
  EXPECT_EQ(table.Find(T(0, 1000), {1}), nullptr);

  size_t visited = 0;
  table.ForEach([&](TupleHashTable::Entry*) {
    visited++;
    return true;
  });
  EXPECT_EQ(visited, 100u);
}

TEST_F(ExecTest, HashTableFindOrInsertDeduplicates) {
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0}, 16);
  bool inserted = false;
  ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * a,
                       table.FindOrInsert(T(7, 1), &inserted));
  EXPECT_TRUE(inserted);
  ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * b,
                       table.FindOrInsert(T(7, 2), &inserted));
  EXPECT_FALSE(inserted);  // same key column 0
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(ExecTest, HashTableRespectsMemoryBudget) {
  MemoryPool pool(8 * 1024);
  Arena arena(&pool, 4 * 1024);
  TupleHashTable table(db_->ctx(), &arena, {0}, 64);
  Status last;
  int inserted = 0;
  for (int i = 0; i < 100000; ++i) {
    auto result = table.Insert(T(i, i));
    if (!result.ok()) {
      last = result.status();
      break;
    }
    inserted++;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
  EXPECT_GT(inserted, 0);
}

TEST_F(ExecTest, CountersAccumulateAcrossOperators) {
  db_->ResetStats();
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0}, 4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e, table.Insert(T(i, i)));
    (void)e;
  }
  table.Find(T(3, 0), {0});
  EXPECT_EQ(db_->counters()->hashes, 11u);
  EXPECT_GT(db_->counters()->comparisons, 0u);
}

TEST_F(ExecTest, HashTableRehashRelinksWithoutCounting) {
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0}, 16);
  std::vector<TupleHashTable::Entry*> entries;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e, table.Insert(T(i, i)));
    entries.push_back(e);
  }
  const CpuCounters before = *db_->counters();
  table.Rehash(64);
  // Relinking reuses the memoized hashes: no key is hashed or compared.
  EXPECT_EQ(db_->counters()->hashes, before.hashes);
  EXPECT_EQ(db_->counters()->comparisons, before.comparisons);
  EXPECT_EQ(table.num_buckets(), 64u);
  EXPECT_EQ(table.size(), 100u);
  // Entries do not move, so pointers taken before the rehash stay valid.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Find(T(i, 0), {0}), entries[i]) << i;
  }
  size_t visited = 0;
  table.ForEach([&](TupleHashTable::Entry*) {
    visited++;
    return true;
  });
  EXPECT_EQ(visited, 100u);
}

TEST_F(ExecTest, GrowableHashTableKeepsTwoEntriesPerBucket) {
  Arena arena(nullptr);
  TupleHashTable fixed(db_->ctx(), &arena, {0}, 16);
  TupleHashTable growable(db_->ctx(), &arena, {0}, 16);
  growable.set_growable(true);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e, fixed.Insert(T(i, i)));
    ASSERT_OK_AND_ASSIGN(e, growable.Insert(T(i, i)));
    (void)e;
    EXPECT_LE(growable.size(), 2 * growable.num_buckets()) << i;
  }
  EXPECT_EQ(fixed.num_buckets(), 16u);
  EXPECT_EQ(growable.num_buckets(), 64u);  // doubled at 33 and 65 entries
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(growable.Find(T(i, 0), {0}), nullptr) << i;
  }
}

// ---- Key equality: the two rules of TupleHashTable ----

Tuple Str(const char* s, int64_t v) {
  return Tuple{Value::String(s), Value::Int64(v)};
}

TEST_F(ExecTest, HashTableCodesDecideInt64KeysAcrossTheSignFlip) {
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0}, 16);
  const int64_t keys[] = {0, -1, std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e,
                         table.Insert(T(keys[i], static_cast<int64_t>(i))));
    e->num = i;
  }
  EXPECT_TRUE(table.codes_decide());
  for (size_t i = 0; i < 4; ++i) {
    // The tuple probe, and the extracted-key probe of the batched path.
    TupleHashTable::Entry* found = table.Find(T(keys[i]), {0});
    ASSERT_NE(found, nullptr) << keys[i];
    EXPECT_EQ(found->num, i);
    EXPECT_EQ(table.FindInt64Counted(db_->ctx(), keys[i],
                                     kernels::HashInt64Key(keys[i])),
              found);
    EXPECT_EQ(table.Decode(found), T(keys[i], static_cast<int64_t>(i)));
  }
  EXPECT_EQ(table.Find(T(1), {0}), nullptr);
  EXPECT_EQ(table.FindInt64Counted(db_->ctx(), 1, kernels::HashInt64Key(1)),
            nullptr);
}

TEST_F(ExecTest, HashTableCodesDecideTwoKeysInAnyProbeOrder) {
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0, 1}, 16);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e,
                         table.Insert(T(i, -i, 100 + i)));
    (void)e;
  }
  EXPECT_TRUE(table.codes_decide());
  // The probe holds the key columns in another order, between other columns.
  TupleHashTable::Entry* found = table.Find(T(-7, 999, 7), {2, 0});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(table.Decode(found), T(7, -7, 107));
  // Swapped key values are another key.
  EXPECT_EQ(table.Find(T(-7, 999, 7), {0, 2}), nullptr);
  EXPECT_EQ(table.Find(T(7, 0, 7), {0, 2}), nullptr);
}

TEST_F(ExecTest, HashTableKeyBehindOtherColumnsDecodesInOriginalOrder) {
  // The hash join's build shape: the key is the stored tuple's second column.
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {1}, 16);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e,
                         table.Insert(T(i, 10 * i, -i)));
    (void)e;
  }
  EXPECT_TRUE(table.codes_decide());
  TupleHashTable::Entry* found = table.Find(T(50), {0});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(table.Decode(found), T(5, 50, -5));
  EXPECT_EQ(table.Find(T(5), {0}), nullptr);  // column 0 is not the key
  size_t visited = 0;
  table.ForEach([&](TupleHashTable::Entry* e) {
    const Tuple stored = table.Decode(e);
    EXPECT_EQ(stored.value(1).int64(), 10 * stored.value(0).int64());
    EXPECT_EQ(stored.value(2).int64(), -stored.value(0).int64());
    visited++;
    return true;
  });
  EXPECT_EQ(visited, 20u);
}

TEST_F(ExecTest, HashTableComparesStringKeysInPlace) {
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0}, 16);
  // Keys that tie on their first eight bytes, where a string's code ends.
  const char* keys[] = {"", "database1", "database2", "databases", "optics"};
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e,
                         table.Insert(Str(keys[i], i)));
    e->num = static_cast<uint64_t>(i);
  }
  EXPECT_FALSE(table.codes_decide());
  for (int64_t i = 0; i < 5; ++i) {
    TupleHashTable::Entry* found =
        table.Find(Tuple{Value::Int64(-1), Value::String(keys[i])}, {1});
    ASSERT_NE(found, nullptr) << keys[i];
    EXPECT_EQ(found->num, static_cast<uint64_t>(i));
    EXPECT_EQ(table.Decode(found), Str(keys[i], i));
  }
  EXPECT_EQ(table.Find(Str("database", 0), {0}), nullptr);
  EXPECT_EQ(table.Find(Str("database10", 0), {0}), nullptr);
}

TEST_F(ExecTest, HashTableComparesThreeInt64KeysInPlace) {
  Arena arena(nullptr);
  TupleHashTable table(db_->ctx(), &arena, {0, 1, 2}, 16);
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e, table.Insert(T(1, 2, i)));
    (void)e;
  }
  // A third column is past the two code words.
  EXPECT_FALSE(table.codes_decide());
  TupleHashTable::Entry* found = table.Find(T(1, 2, 17), {0, 1, 2});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(table.Decode(found), T(1, 2, 17));
  EXPECT_EQ(table.Find(T(1, 2, 30), {0, 1, 2}), nullptr);
  EXPECT_EQ(table.Find(T(2, 1, 17), {0, 1, 2}), nullptr);
}

TEST_F(ExecTest, HashTableProbeOfAnotherTypeNeverMatches) {
  // "abcd" and an int64 share their bytes under either rule: the string's
  // code word is the int64's sign-flipped bits, and its RowCodec bytes (a
  // 4-byte length, then "abcd") are the int64's little-endian bytes. The
  // probes reuse the stored entry's hash, so only the key rule can refuse.
  const uint64_t string_word = (uint64_t{'a'} << 56) | (uint64_t{'b'} << 48) |
                               (uint64_t{'c'} << 40) | (uint64_t{'d'} << 32);
  const int64_t coded_int = static_cast<int64_t>(string_word ^ (uint64_t{1} << 63));
  const int64_t row_int = static_cast<int64_t>(
      4 | (uint64_t{'a'} << 32) | (uint64_t{'b'} << 40) |
      (uint64_t{'c'} << 48) | (uint64_t{'d'} << 56));
  const Tuple string_probe{Value::String("abcd")};
  ASSERT_EQ(kernels::EncodeSortKey(string_probe, {0}),
            kernels::Int64KeyCode(coded_int));

  Arena arena(nullptr);
  TupleHashTable coded(db_->ctx(), &arena, {0}, 16);
  ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * int_entry,
                       coded.Insert(T(coded_int)));
  EXPECT_TRUE(coded.codes_decide());
  EXPECT_EQ(coded.FindPrehashedCounted(db_->ctx(), string_probe, {0},
                                       int_entry->hash),
            nullptr);
  EXPECT_EQ(coded.FindPrehashedCounted(db_->ctx(), T(coded_int), {0},
                                       int_entry->hash),
            int_entry);

  TupleHashTable in_place(db_->ctx(), &arena, {0}, 16);
  ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * string_entry,
                       in_place.Insert(string_probe));
  EXPECT_FALSE(in_place.codes_decide());
  ASSERT_EQ(std::memcmp(string_entry->row(), &row_int, 8), 0);
  EXPECT_EQ(in_place.FindPrehashedCounted(db_->ctx(), T(row_int), {0},
                                          string_entry->hash),
            nullptr);
  EXPECT_EQ(in_place.FindInt64Counted(db_->ctx(), row_int,
                                      string_entry->hash),
            nullptr);
  EXPECT_EQ(in_place.FindPrehashedCounted(db_->ctx(), string_probe, {0},
                                          string_entry->hash),
            string_entry);
  // A tuple of another layout is refused, not stored.
  EXPECT_TRUE(in_place.Insert(T(row_int)).status().IsInvalidArgument());
  EXPECT_EQ(in_place.size(), 1u);
}

// ---- Accounting: the pool is charged what the table allocates ----

TEST_F(ExecTest, HashTableEntryIsHeaderPlusFlatRow) {
  EXPECT_EQ(sizeof(TupleHashTable::Entry), 48u);
  Arena arena(nullptr);
  TupleHashTable one(db_->ctx(), &arena, {0}, 16);
  ASSERT_OK_AND_ASSIGN(TupleHashTable::Entry * e, one.Insert(T(7)));
  EXPECT_EQ(arena.bytes_allocated(), 56u);  // the charge before the flat row
  TupleHashTable two(db_->ctx(), &arena, {0}, 16);
  ASSERT_OK_AND_ASSIGN(e, two.Insert(T(7, 8)));
  EXPECT_EQ(arena.bytes_allocated(), 56u + 64u);
  TupleHashTable str(db_->ctx(), &arena, {0}, 16);
  ASSERT_OK_AND_ASSIGN(e, str.Insert(Str("abc", 1)));
  // 48 + a 4-byte length + "abc" + 8, rounded to the arena's 8 bytes.
  EXPECT_EQ(arena.bytes_allocated(), 56u + 64u + 64u);
  EXPECT_EQ(str.Decode(e), Str("abc", 1));
}

TEST_F(ExecTest, QuotientTableChargesWhatItAllocates) {
  // A quotient table of kCandidates candidates over kDivisors divisor
  // tuples, built by hash-division's own step 2, one dividend tuple per
  // candidate, batch by batch.
  constexpr int64_t kDivisors = 100;
  constexpr int64_t kCandidates = 8192;
  constexpr size_t kCapacity = 1024;
  DatabaseOptions options;
  options.pool_bytes = 64 * 1024 * 1024;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  MemoryPool* pool = db->ctx()->pool();
  ASSERT_NE(pool, nullptr);

  std::vector<Tuple> divisor;
  for (int64_t d = 0; d < kDivisors; ++d) divisor.push_back(T(d));
  std::vector<TupleBatch> batches;
  for (int64_t q = 0; q < kCandidates; ++q) {
    if (q % kCapacity == 0) batches.emplace_back(kCapacity);
    batches.back().PushBack(T(q, q % kDivisors));
  }
  HashDivisionCore core(db->ctx(), {1}, {0}, DivisionOptions{});
  MemSourceOperator divisor_source(Schema{Field{"d", ValueType::kInt64}},
                                   divisor);
  ASSERT_OK(core.BuildDivisorTable(&divisor_source));
  ASSERT_OK(core.ResetQuotientTable(kCandidates));  // no growth: fixed buckets
  // The first batch sizes ConsumeBatch's reusable scratch; from then on the
  // only heap allocations are the arena's.
  ASSERT_OK(core.ConsumeBatch(batches[0], nullptr));
  const uint64_t heap_before = HeapBytes();
  const size_t reserved_before = pool->used();
  for (size_t b = 1; b < batches.size(); ++b) {
    ASSERT_OK(core.ConsumeBatch(batches[b], nullptr));
  }
  const uint64_t heap = HeapBytes() - heap_before;
  const size_t reserved = pool->used() - reserved_before;

  // Arena bytes: exactly header + one int64 row + the bit map per entry.
  const size_t bitmap_bytes =
      Bitmap::WordsForBits(kDivisors) * sizeof(uint64_t);
  ASSERT_EQ(core.quotient_candidates(), static_cast<size_t>(kCandidates));
  EXPECT_EQ(core.memory_bytes(),
            kDivisors * (sizeof(TupleHashTable::Entry) + 8) +
                kCandidates * (sizeof(TupleHashTable::Entry) + 8 +
                               bitmap_bytes));
  // Heap bytes against the pool reservation. The arena's chunks are both;
  // the only heap bytes the pool does not see are the arena's chunk list
  // (a 24-byte record per 8 KB chunk, in a vector that may double inside
  // the window: at most ~1.2% here). Hence heap >= reserved and within 2%.
  ASSERT_GT(reserved, 0u);
  EXPECT_GE(heap, reserved);
  EXPECT_LE(static_cast<double>(heap), 1.02 * static_cast<double>(reserved))
      << "heap " << heap << " bytes vs " << reserved << " reserved";
}

TEST_F(ExecTest, BucketsForTargetsAverageChainOfTwo) {
  EXPECT_EQ(TupleHashTable::BucketsFor(16), 16u);    // min
  EXPECT_EQ(TupleHashTable::BucketsFor(100), 64u);   // ~2 per bucket
  EXPECT_EQ(TupleHashTable::BucketsFor(4096), 2048u);
}

TEST_F(ExecTest, RouterPlacesRowsByThePartitionFunctionInInputOrder) {
  // One int64 key takes the router's batched kernel hash; two int64 keys and
  // a string key take the per-tuple form. Every form must put every row
  // where HashPartitionOf puts it, at salt 0 and at a recursion salt.
  const Schema schema{Field{"a", ValueType::kInt64},
                      Field{"b", ValueType::kInt64},
                      Field{"s", ValueType::kString}};
  std::vector<Tuple> input;
  Rng rng(3);
  for (int64_t i = 0; i < 1000; ++i) {
    input.push_back(Tuple{Value::Int64(rng.UniformInt(-500, 500)),
                          Value::Int64(i),
                          Value::String("k" + std::to_string(i % 37))});
  }
  constexpr size_t kParts = 7;
  constexpr size_t kBatch = 64;  // 16 batches, the last one partial
  db_->ctx()->set_batch_capacity(kBatch);
  const std::vector<std::vector<size_t>> key_lists = {{0}, {0, 1}, {2}};
  for (const std::vector<size_t>& keys : key_lists) {
    std::vector<std::vector<std::vector<Tuple>>> by_salt;
    for (uint64_t salt : {uint64_t{0}, uint64_t{3}}) {
      SCOPED_TRACE("keys " + std::to_string(keys.size()) + "@" +
                   std::to_string(keys[0]) + " salt " + std::to_string(salt));
      MemSourceOperator source(schema, input);
      const uint64_t hashes_before = db_->ctx()->counters()->hashes;
      std::vector<std::vector<Tuple>> routed(kParts);
      size_t calls = 0;
      ASSERT_OK(DrainAndRoute(
          db_->ctx(), &source, keys, kParts, salt,
          [&](const TupleBatch& batch,
              const std::vector<size_t>& to) -> Status {
            ++calls;
            EXPECT_EQ(to.size(), batch.size());
            for (size_t i = 0; i < batch.size(); ++i) {
              routed[to[i]].push_back(batch.tuple(i));
            }
            return Status::OK();
          }));
      std::vector<std::vector<Tuple>> expected(kParts);
      for (const Tuple& tuple : input) {
        expected[HashPartitionOf(tuple, keys, kParts, salt)].push_back(tuple);
      }
      EXPECT_EQ(routed, expected);
      EXPECT_EQ(db_->ctx()->counters()->hashes - hashes_before, input.size());
      EXPECT_EQ(calls, (input.size() + kBatch - 1) / kBatch);
      by_salt.push_back(std::move(routed));
    }
    // The salt re-splits: a recursive split must not reproduce its parent.
    EXPECT_NE(by_salt[0], by_salt[1]);
  }
}

TEST_F(ExecTest, ScanOfRelationWithoutStoreFails) {
  Relation bogus{TwoCol(), nullptr};
  ScanOperator scan(db_->ctx(), bogus);
  EXPECT_TRUE(scan.Open().IsInvalidArgument());
}

}  // namespace
}  // namespace reldiv
