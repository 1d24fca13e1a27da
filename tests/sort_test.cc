#include "exec/sort.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "exec/database.h"
#include "exec/mem_source.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

class SortTest : public ::testing::Test {
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

  std::vector<Tuple> RandomTuples(size_t n, uint64_t seed,
                                  int64_t key_range = 1000000) {
    Rng rng(seed);
    std::vector<Tuple> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(T(rng.UniformInt(0, key_range),
                      static_cast<int64_t>(i)));
    }
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SortTest, InMemorySortNoIo) {
  std::vector<Tuple> input = RandomTuples(100, 1);
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), 100u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
  EXPECT_EQ(sorter.initial_runs(), 0u);
  EXPECT_EQ(db_->disk()->stats().transfers, 0u);  // fits in sort space
}

TEST_F(SortTest, ExternalSortSpillsRunsAndMerges) {
  // Shrink the sort space so a modest input goes external.
  db_->ctx()->set_sort_space_bytes(4 * 1024);
  std::vector<Tuple> input = RandomTuples(5000, 2);
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), 5000u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
  EXPECT_GT(sorter.initial_runs(), 1u);
  EXPECT_GT(db_->disk()->stats().transfers, 0u);
  // 1 KB transfers for sort runs (§5.1).
  EXPECT_EQ(db_->disk()->stats().sectors_transferred,
            db_->disk()->stats().transfers);
}

TEST_F(SortTest, ExternalSortWithIntermediateMergePasses) {
  // Sort space so small that the fan-in (space / 1 KB blocks) forces
  // intermediate merges before the final on-demand merge.
  db_->ctx()->set_sort_space_bytes(3 * 1024);  // fan-in 3
  std::vector<Tuple> input = RandomTuples(4000, 3);
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), 4000u);
  EXPECT_GT(sorter.intermediate_merges(), 0u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
}

TEST_F(SortTest, StableEnoughDuplicateKeysAllSurvivePlainSort) {
  std::vector<Tuple> input = {T(5, 0), T(5, 1), T(1, 2), T(5, 3), T(1, 4)};
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output.size(), 5u);
}

TEST_F(SortTest, DuplicateEliminationInMemory) {
  std::vector<Tuple> input = {T(3, 3), T(1, 1), T(3, 3), T(2, 2), T(1, 1)};
  SortSpec spec;
  spec.keys = {0, 1};
  spec.collapse_equal_keys = true;
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output, (std::vector<Tuple>{T(1, 1), T(2, 2), T(3, 3)}));
}

TEST_F(SortTest, DuplicateEliminationExternalNoRunContainsDuplicates) {
  db_->ctx()->set_sort_space_bytes(4 * 1024);
  // Many duplicates over a small key domain.
  Rng rng(4);
  std::vector<Tuple> input;
  for (int i = 0; i < 6000; ++i) {
    const int64_t k = rng.UniformInt(0, 99);
    input.push_back(T(k, k));
  }
  SortSpec spec;
  spec.keys = {0, 1};
  spec.collapse_equal_keys = true;
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output.size(), 100u);
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LT(output[i - 1].value(0).int64(), output[i].value(0).int64());
  }
}

TEST_F(SortTest, AggregationDuringSortingCountsGroups) {
  // Lift (a, b) → (a, 1), sum counts on equal a: aggregation during sorting.
  Rng rng(5);
  std::vector<Tuple> input;
  std::map<int64_t, int64_t> expected;
  for (int i = 0; i < 3000; ++i) {
    const int64_t k = rng.UniformInt(0, 49);
    input.push_back(T(k, static_cast<int64_t>(i)));
    expected[k]++;
  }
  db_->ctx()->set_sort_space_bytes(4 * 1024);  // force external path
  SortSpec spec;
  spec.keys = {0};
  spec.collapse_equal_keys = true;
  spec.lift = [](const Tuple& t) {
    return Tuple{t.value(0), Value::Int64(1)};
  };
  spec.lifted_schema = Schema{Field{"a", ValueType::kInt64},
                              Field{"count", ValueType::kInt64}};
  spec.merge = [](Tuple* acc, const Tuple& next) {
    acc->value(1) =
        Value::Int64(acc->value(1).int64() + next.value(1).int64());
  };
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), expected.size());
  for (const Tuple& t : output) {
    EXPECT_EQ(t.value(1).int64(), expected[t.value(0).int64()]);
  }
}

TEST_F(SortTest, EmptyInput) {
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(
      db_->ctx(), std::make_unique<MemSourceOperator>(TwoCol(),
                                                      std::vector<Tuple>{}),
      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_TRUE(output.empty());
}

TEST_F(SortTest, SingleTuple) {
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(
                          TwoCol(), std::vector<Tuple>{T(9, 9)}),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output, std::vector<Tuple>{T(9, 9)});
}

TEST_F(SortTest, MultiKeyMajorMinorOrder) {
  std::vector<Tuple> input = {T(2, 1), T(1, 2), T(2, 0), T(1, 1)};
  SortSpec spec;
  spec.keys = {0, 1};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  EXPECT_EQ(output,
            (std::vector<Tuple>{T(1, 1), T(1, 2), T(2, 0), T(2, 1)}));
}

TEST_F(SortTest, ComparisonsAreCounted) {
  std::vector<Tuple> input = RandomTuples(256, 6);
  db_->ResetStats();
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  (void)output;
  // Quicksort of 256 tuples: at least n log2 n / 2 comparisons.
  EXPECT_GT(db_->counters()->comparisons, 256u * 8 / 2);
}

TEST_F(SortTest, ExternalSortOfStringsRoundTrips) {
  db_->ctx()->set_sort_space_bytes(2 * 1024);
  Schema schema{Field{"s", ValueType::kString}};
  Rng rng(7);
  std::vector<Tuple> input;
  for (int i = 0; i < 800; ++i) {
    std::string s(1 + rng.Uniform(20), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.Uniform(26));
    input.push_back(Tuple{Value::String(s)});
  }
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(schema, input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
  ASSERT_EQ(output.size(), input.size());
  for (size_t i = 1; i < output.size(); ++i) {
    EXPECT_LE(output[i - 1].value(0).string_value(),
              output[i].value(0).string_value());
  }
}

// --- Whole-key code: differential check against a stable sort --------------

/// Key values the sort's key code must order exactly: both int64 extremes,
/// the signs around zero, and pairs that differ only in their low two bits.
Value DrawKeyValue(ValueType type, Rng* rng) {
  static const int64_t kInts[] = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
      -5, -4, -1, 0, 1, 2, 3, 4, 5, 4096, 4099,
      std::numeric_limits<int64_t>::max() - 3,
      std::numeric_limits<int64_t>::max()};
  // Strings that tie on their first eight bytes, an embedded NUL, and a
  // byte above 0x7f (strings order as unsigned bytes).
  static const std::string kStrings[] = {
      "", "a", std::string("a\0", 2), "ab", "abcdefgh", "abcdefghA",
      "abcdefghB", "abcdefgi", "b", "\xff"};
  switch (type) {
    case ValueType::kInt64:
      return Value::Int64(kInts[rng->Uniform(std::size(kInts))]);
    case ValueType::kString:
      return Value::String(kStrings[rng->Uniform(std::size(kStrings))]);
  }
  return Value();
}

/// One sort-key shape: the key columns' types (an int64 count column follows
/// them), the sort keys, and the comparison totals recorded for it with the
/// sort's first-key code, indexed [spilled][collapse]. The code may change
/// how a comparison is decided, never how many are made.
struct KeyShape {
  const char* name;
  std::vector<ValueType> types;
  std::vector<size_t> keys;
  uint64_t comparisons[2][2];
};

TEST(SortKeyCodeTest, MatchesStableSortAndKeepsComparisonTotals) {
  constexpr ValueType kI = ValueType::kInt64;
  constexpr ValueType kS = ValueType::kString;
  const KeyShape shapes[] = {
      {"int64", {kI}, {0}, {{4862, 5461}, {6272, 4872}}},
      {"int64x2", {kI, kI}, {0, 1}, {{6302, 6901}, {6601, 7812}}},
      {"keys {1, 0}", {kI, kI}, {1, 0}, {{6617, 7216}, {6713, 7927}}},
      {"int64+string", {kI, kS}, {0, 1}, {{5999, 6598}, {6869, 7516}}},
      {"string", {kS}, {0}, {{4587, 5186}, {6107, 4593}}},
      {"int64x3", {kI, kI, kI}, {0, 1, 2}, {{6310, 6909}, {6568, 8848}}},
  };
  for (const KeyShape& shape : shapes) {
    std::vector<Field> fields;
    for (size_t c = 0; c < shape.types.size(); ++c) {
      fields.push_back(Field{"k" + std::to_string(c), shape.types[c]});
    }
    const size_t count_col = fields.size();
    fields.push_back(Field{"count", ValueType::kInt64});
    const Schema schema(fields);
    // Equal keys make equal tuples (count is always 1), so the unstable
    // run sort and a stable reference must agree tuple for tuple.
    Rng rng(11);
    std::vector<Tuple> input;
    for (int i = 0; i < 600; ++i) {
      Tuple t;
      for (ValueType type : shape.types) t.Append(DrawKeyValue(type, &rng));
      t.Append(Value::Int64(1));
      input.push_back(std::move(t));
    }
    for (int spilled = 0; spilled < 2; ++spilled) {
      for (int collapse = 0; collapse < 2; ++collapse) {
        SCOPED_TRACE(std::string(shape.name) +
                     (spilled ? " spilled" : " in memory") +
                     (collapse ? " collapsed" : ""));
        std::vector<Tuple> expected = input;
        std::stable_sort(expected.begin(), expected.end(),
                         [&](const Tuple& a, const Tuple& b) {
                           return a.CompareAt(shape.keys, b) < 0;
                         });
        const auto add_counts = [count_col](Tuple* acc, const Tuple& next) {
          acc->value(count_col) = Value::Int64(
              acc->value(count_col).int64() + next.value(count_col).int64());
        };
        if (collapse) {
          std::vector<Tuple> collapsed;
          for (const Tuple& t : expected) {
            if (!collapsed.empty() &&
                collapsed.back().CompareAt(shape.keys, t) == 0) {
              add_counts(&collapsed.back(), t);
            } else {
              collapsed.push_back(t);
            }
          }
          expected = std::move(collapsed);
        }

        DatabaseOptions options;
        options.pool_bytes = 0;
        // 3 KB gives a fan-in of 3 over a dozen runs: intermediate merges.
        options.sort_space_bytes = spilled ? 3 * 1024 : 1 << 20;
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                             Database::Open(options));
        SortSpec spec;
        spec.keys = shape.keys;
        spec.collapse_equal_keys = collapse != 0;
        spec.merge = add_counts;
        SortOperator sorter(
            db->ctx(), std::make_unique<MemSourceOperator>(schema, input),
            spec);
        ASSERT_OK_AND_ASSIGN(std::vector<Tuple> output, CollectAll(&sorter));
        EXPECT_EQ(output, expected);
        if (spilled) {
          EXPECT_GT(sorter.intermediate_merges(), 0u);
        } else {
          EXPECT_EQ(sorter.initial_runs(), 0u);
        }
        EXPECT_EQ(db->counters()->comparisons,
                  shape.comparisons[spilled][collapse]);
      }
    }
  }
}

}  // namespace
}  // namespace reldiv
