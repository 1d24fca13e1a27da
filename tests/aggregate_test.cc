#include <memory>

#include "common/rng.h"
#include "exec/database.h"
#include "exec/hash_aggregate.h"
#include "exec/mem_source.h"
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
                            {AggSpec{"n"}}, 3);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&agg));
  EXPECT_EQ(Sorted(std::move(out)),
            (std::vector<Tuple>{T(1, 3), T(2, 1), T(3, 1)}));
  EXPECT_EQ(agg.output_schema().field(1).name, "n");
}

TEST_F(AggregateTest, HashAggregateEmptyInput) {
  HashAggregateOperator agg(db_->ctx(), Src({}), {0},
                            {AggSpec{"n"}});
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
                            {AggSpec{"n"}}, 50);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&agg));
  EXPECT_EQ(out.size(), 50u);
  int64_t total = 0;
  for (const Tuple& t : out) total += t.value(1).int64();
  EXPECT_EQ(total, 10000);
}

}  // namespace
}  // namespace reldiv
