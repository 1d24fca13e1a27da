#include <map>
#include <memory>

#include "common/rng.h"
#include "exec/database.h"
#include "exec/hash_aggregate.h"
#include "exec/mem_source.h"
#include "exec/sort.h"
#include "exec/sort_aggregate.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  Schema TwoCol() {
    return Schema{Field{"g", ValueType::kInt64},
                  Field{"v", ValueType::kInt64}};
  }

  std::unique_ptr<Operator> Src(std::vector<Tuple> tuples) {
    return std::make_unique<MemSourceOperator>(TwoCol(), std::move(tuples));
  }

  std::unique_ptr<Database> db_;
};

TEST_F(AggregateTest, HashAggregateCounts) {
  std::vector<Tuple> input = {T(1, 0), T(2, 0), T(1, 0), T(1, 0), T(3, 0)};
  HashAggregateOperator agg(db_->ctx(), Src(input), {0},
                            {AggSpec{AggFn::kCount, 0, "n"}}, 3);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&agg));
  EXPECT_EQ(Sorted(std::move(out)),
            (std::vector<Tuple>{T(1, 3), T(2, 1), T(3, 1)}));
  EXPECT_EQ(agg.output_schema().field(1).name, "n");
}

TEST_F(AggregateTest, HashAggregateEmptyInput) {
  HashAggregateOperator agg(db_->ctx(), Src({}), {0},
                            {AggSpec{AggFn::kCount, 0, "n"}});
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&agg));
  EXPECT_TRUE(out.empty());
}

TEST_F(AggregateTest, HashAggregateTableHoldsOnlyOutputGroups) {
  // 10,000 input tuples over 50 groups: the table stays at 50 entries —
  // the §2.2.2 property that the input need not fit in memory.
  Rng rng(1);
  std::vector<Tuple> input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back(T(rng.UniformInt(0, 49), 1));
  }
  HashAggregateOperator agg(db_->ctx(), Src(input), {0},
                            {AggSpec{AggFn::kCount, 0, "n"}}, 50);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&agg));
  EXPECT_EQ(out.size(), 50u);
  int64_t total = 0;
  for (const Tuple& t : out) total += t.value(1).int64();
  EXPECT_EQ(total, 10000);
}

TEST_F(AggregateTest, SortAggregateOnSortedStream) {
  std::vector<Tuple> input = {T(1, 4), T(1, 6), T(2, 1), T(3, 3), T(3, 3)};
  SortAggregateOperator agg(db_->ctx(), Src(input), {0},
                            {AggSpec{AggFn::kCount, 0, "n"},
                             AggSpec{AggFn::kCountDistinct, 1, "nd"}});
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&agg));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], T(1, 2, 2));
  EXPECT_EQ(out[1], T(2, 1, 1));
  EXPECT_EQ(out[2], T(3, 2, 1));  // duplicate (3, 3) counted once
}

TEST_F(AggregateTest, SortAggregateMatchesHashAggregateOnRandomInput) {
  Rng rng(2);
  std::vector<Tuple> input;
  for (int i = 0; i < 2000; ++i) {
    input.push_back(T(rng.UniformInt(0, 20), rng.UniformInt(-5, 5)));
  }
  SortSpec spec;
  spec.keys = {0};
  auto sorted = std::make_unique<SortOperator>(db_->ctx(), Src(input), spec);
  SortAggregateOperator sort_agg(db_->ctx(), std::move(sorted), {0},
                                 {AggSpec{AggFn::kCount, 0, "n"},
                                  AggSpec{AggFn::kCountDistinct, 1, "nd"}});
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> a, CollectAll(&sort_agg));

  HashAggregateOperator hash_agg(db_->ctx(), Src(input), {0},
                                 {AggSpec{AggFn::kCount, 0, "n"},
                                  AggSpec{AggFn::kCountDistinct, 1, "nd"}});
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> b, CollectAll(&hash_agg));
  EXPECT_EQ(Sorted(std::move(a)), Sorted(std::move(b)));
}

TEST_F(AggregateTest, CountDistinct) {
  std::vector<Tuple> input = {T(1, 5), T(1, 5), T(1, 6), T(2, 7), T(2, 7)};
  HashAggregateOperator agg(db_->ctx(), Src(input), {0},
                            {AggSpec{AggFn::kCountDistinct, 1, "nd"},
                             AggSpec{AggFn::kCount, 0, "n"}});
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&agg));
  std::vector<Tuple> sorted = Sorted(std::move(out));
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0], T(1, 2, 3));  // 2 distinct of 3 rows
  EXPECT_EQ(sorted[1], T(2, 1, 2));  // 1 distinct of 2 rows
}

TEST_F(AggregateTest, AggregateArgumentOutOfRangeFails) {
  HashAggregateOperator agg(db_->ctx(), Src({T(1, 1)}), {0},
                            {AggSpec{AggFn::kCountDistinct, 9, "nd"}});
  EXPECT_TRUE(agg.Open().IsInvalidArgument());
}

}  // namespace
}  // namespace reldiv
