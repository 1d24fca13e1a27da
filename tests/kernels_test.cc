#include "exec/kernels/kernels.h"

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/schema.h"
#include "common/tuple.h"
#include "common/value.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace kernels {
namespace {

std::vector<int64_t> ProbeKeys() {
  std::vector<int64_t> keys = {0,
                               -1,
                               1,
                               42,
                               -42,
                               std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(),
                               int64_t{1} << 32,
                               -(int64_t{1} << 32)};
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Next()));
  }
  return keys;
}

// --- Hashing ---------------------------------------------------------------

TEST(KernelHashTest, ClosedFormEqualsTupleHashAt) {
  // The load-bearing equality of the whole batched-probe design: the kernel
  // hash must be the exact value a TupleHashTable computes for a
  // single-int64-key probe, or kernelized probes would land in different
  // buckets than scalar ones.
  const std::vector<size_t> key0 = {0};
  for (int64_t k : ProbeKeys()) {
    const Tuple tuple{Value::Int64(k)};
    EXPECT_EQ(HashInt64Key(k), tuple.HashAt(key0)) << "key " << k;
  }
}

TEST(KernelHashTest, BatchedMatchesSingle) {
  const std::vector<int64_t> keys = ProbeKeys();
  std::vector<uint64_t> out(keys.size());
  HashInt64Keys(keys.data(), keys.size(), out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], HashInt64Key(keys[i])) << "index " << i;
  }
}

// --- Column extraction -----------------------------------------------------

TEST(KernelExtractTest, GathersAndRejects) {
  TupleBatch batch(8);
  *batch.AddSlotForOverwrite() = T(1, 10);
  *batch.AddSlotForOverwrite() = T(2, 20);
  *batch.AddSlotForOverwrite() = T(3, 30);
  std::vector<int64_t> out;
  ASSERT_TRUE(ExtractInt64Column(batch, 1, &out));
  EXPECT_EQ(out, (std::vector<int64_t>{10, 20, 30}));

  // A single non-int64 value anywhere in the column rejects the batch.
  *batch.AddSlotForOverwrite() =
      Tuple{Value::Int64(4), Value::String("forty")};
  EXPECT_FALSE(ExtractInt64Column(batch, 1, &out));
  // Column 0 is still all-int64.
  ASSERT_TRUE(ExtractInt64Column(batch, 0, &out));
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2, 3, 4}));

  TupleBatch empty(4);
  ASSERT_TRUE(ExtractInt64Column(empty, 0, &out));
  EXPECT_TRUE(out.empty());
}

// --- Whole-key sort codes ---------------------------------------------------

/// Tuples of one (int64, int64, int64, string) schema that tie and differ at
/// every key position: both int64 extremes, the signs around zero, pairs
/// that differ only in their low two bits, and strings that tie on their
/// first eight bytes.
std::vector<Tuple> SortCodeTuples() {
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(), -1, 0, 1, 2,
                          4, std::numeric_limits<int64_t>::max()};
  const char* strings[] = {"", "a", "ab", "abcdefghij", "abcdefghiz", "b"};
  std::vector<Tuple> tuples;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    tuples.push_back(Tuple{Value::Int64(ints[rng.Uniform(std::size(ints))]),
                           Value::Int64(ints[rng.Uniform(std::size(ints))]),
                           Value::Int64(ints[rng.Uniform(std::size(ints))]),
                           Value::String(strings[rng.Uniform(6)])});
  }
  return tuples;
}

const Schema& SortCodeSchema() {
  static const Schema schema{
      Field{"a", ValueType::kInt64}, Field{"b", ValueType::kInt64},
      Field{"c", ValueType::kInt64}, Field{"s", ValueType::kString}};
  return schema;
}

/// Key lists covering every way a code ends: two int64s, one, a reversed
/// pair, three (the third uncoded), a string after an int64, a string first,
/// and no keys at all.
const std::vector<std::vector<size_t>>& SortCodeKeyLists() {
  static const std::vector<std::vector<size_t>> lists = {
      {0, 1}, {0}, {1, 0}, {0, 1, 2}, {0, 3}, {3}, {}};
  return lists;
}

TEST(KernelSortKeyCodeTest, OrderConsistentWithKeyCompare) {
  const std::vector<Tuple> tuples = SortCodeTuples();
  for (const std::vector<size_t>& keys : SortCodeKeyLists()) {
    for (const Tuple& a : tuples) {
      for (const Tuple& b : tuples) {
        // The one-way invariant: code order implies key order.
        const SortKeyCode ka = EncodeSortKey(a, keys);
        const SortKeyCode kb = EncodeSortKey(b, keys);
        if (ka < kb) {
          ASSERT_LT(a.CompareAt(keys, b), 0)
              << a.ToString() << " vs " << b.ToString();
        } else if (ka > kb) {
          ASSERT_GT(a.CompareAt(keys, b), 0)
              << a.ToString() << " vs " << b.ToString();
        }
      }
    }
  }
}

TEST(KernelSortKeyCodeTest, CompleteCodeTieIsKeyTie) {
  const std::vector<Tuple> tuples = SortCodeTuples();
  size_t complete_lists = 0;
  for (const std::vector<size_t>& keys : SortCodeKeyLists()) {
    if (!SortKeyCodeIsComplete(SortCodeSchema(), keys)) continue;
    complete_lists++;
    for (const Tuple& a : tuples) {
      for (const Tuple& b : tuples) {
        if (EncodeSortKey(a, keys) == EncodeSortKey(b, keys)) {
          ASSERT_EQ(a.CompareAt(keys, b), 0)
              << a.ToString() << " vs " << b.ToString();
        }
      }
    }
  }
  // {0, 1}, {0}, {1, 0} and {}: at most two key columns, all int64.
  EXPECT_EQ(complete_lists, 4u);
  EXPECT_FALSE(SortKeyCodeIsComplete(SortCodeSchema(), {0, 1, 2}));
  EXPECT_FALSE(SortKeyCodeIsComplete(SortCodeSchema(), {0, 3}));
  EXPECT_FALSE(SortKeyCodeIsComplete(SortCodeSchema(), {3}));
}

TEST(KernelSortKeyCodeTest, DistinguishesWhereSafe) {
  // Not required for correctness, but the point of the code: int64 keys
  // differing anywhere, the low two bits included, and strings differing in
  // their first eight bytes get distinct codes, so those comparisons never
  // reach the tuples.
  const auto code = [](const Tuple& t, std::vector<size_t> keys) {
    return EncodeSortKey(t, keys);
  };
  EXPECT_NE(code(T(1, 0), {0}), code(T(2, 0), {0}));
  EXPECT_NE(code(T(-1000, 0), {0}), code(T(1000, 0), {0}));
  EXPECT_NE(code(T(7, 1), {0, 1}), code(T(7, 2), {0, 1}));
  EXPECT_NE(code(T(1, 7), {1, 0}), code(T(2, 7), {1, 0}));
  EXPECT_LT(code(T(std::numeric_limits<int64_t>::min(), 0), {0}),
            code(T(std::numeric_limits<int64_t>::max(), 0), {0}));
  EXPECT_NE(code(Tuple{Value::String("a")}, {0}),
            code(Tuple{Value::String("b")}, {0}));
  EXPECT_NE(code(Tuple{Value::Int64(3), Value::String("a")}, {0, 1}),
            code(Tuple{Value::Int64(3), Value::String("b")}, {0, 1}));
  // What the code cannot see ties, and the caller compares tuples: a third
  // int64 and string bytes past the eighth.
  EXPECT_EQ(code(T(1, 2, 3), {0, 1, 2}), code(T(1, 2, 4), {0, 1, 2}));
  EXPECT_EQ(code(Tuple{Value::String("abcdefghij")}, {0}),
            code(Tuple{Value::String("abcdefghiz")}, {0}));
}

}  // namespace
}  // namespace kernels
}  // namespace reldiv
