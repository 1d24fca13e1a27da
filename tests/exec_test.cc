#include <memory>

#include "exec/database.h"
#include "exec/filter.h"
#include "exec/hash_table.h"
#include "exec/materialize.h"
#include "exec/mem_source.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

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
  EXPECT_EQ(found->tuple->value(1).int64(), 420);
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

TEST_F(ExecTest, BucketsForTargetsAverageChainOfTwo) {
  EXPECT_EQ(TupleHashTable::BucketsFor(16), 16u);    // min
  EXPECT_EQ(TupleHashTable::BucketsFor(100), 64u);   // ~2 per bucket
  EXPECT_EQ(TupleHashTable::BucketsFor(4096), 2048u);
}

TEST_F(ExecTest, ScanOfRelationWithoutStoreFails) {
  Relation bogus{TwoCol(), nullptr};
  ScanOperator scan(db_->ctx(), bogus);
  EXPECT_TRUE(scan.Open().IsInvalidArgument());
}

}  // namespace
}  // namespace reldiv
