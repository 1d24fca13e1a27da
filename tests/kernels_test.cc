#include "exec/kernels/kernels.h"

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/bitmap.h"
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

// Every width in this list crosses at least one interesting word boundary:
// sub-word, exact word, word+1, multi-word with and without a partial tail.
const size_t kWidths[] = {1, 5, 63, 64, 65, 127, 128, 130, 191, 192, 1000};

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

TEST(KernelHashTest, ScalarAndSimdAgree) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD on this CPU";
  const std::vector<int64_t> keys = ProbeKeys();
  // Every size from 0 up exercises the vector main loop and scalar tail in
  // all phase combinations.
  for (size_t n = 0; n <= keys.size(); ++n) {
    std::vector<uint64_t> scalar(n + 1, 0xdead), simd(n + 1, 0xbeef);
    HashInt64KeysScalar(keys.data(), n, scalar.data());
    HashInt64KeysSimd(keys.data(), n, simd.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar[i], simd[i]) << "n=" << n << " i=" << i;
    }
  }
}

// --- Bitmap word kernels ---------------------------------------------------

TEST(KernelBitmapTest, AllWordsSetMatchesBitmapAllSet) {
  for (size_t bits : kWidths) {
    Bitmap bitmap(bits);
    // All clear.
    EXPECT_EQ(AllWordsSet(bitmap.words(), bits), bitmap.AllSet());
    // All set.
    for (size_t i = 0; i < bits; ++i) bitmap.Set(i);
    EXPECT_TRUE(bitmap.AllSet());
    EXPECT_TRUE(AllWordsSet(bitmap.words(), bits)) << "bits=" << bits;
    // Each single cleared bit must flip the answer — including the last bit
    // of the partial tail word, the classic masking bug.
    for (size_t hole : {size_t{0}, bits / 2, bits - 1}) {
      Bitmap holed(bits);
      for (size_t i = 0; i < bits; ++i) {
        if (i != hole) holed.Set(i);
      }
      EXPECT_FALSE(AllWordsSet(holed.words(), bits))
          << "bits=" << bits << " hole=" << hole;
      EXPECT_EQ(AllWordsSet(holed.words(), bits), holed.AllSet());
    }
  }
}

TEST(KernelBitmapTest, AllWordsSetIgnoresGarbageBeyondWidth) {
  // The arena hands out whole words; bits past num_bits are unspecified.
  // Set a garbage bit just past the width and make sure it neither helps
  // nor hurts.
  for (size_t bits : {size_t{1}, size_t{63}, size_t{65}, size_t{130}}) {
    const size_t words = Bitmap::WordsForBits(bits);
    std::vector<uint64_t> storage(words, 0);
    Bitmap bitmap = Bitmap::MapOnto(storage.data(), bits);
    for (size_t i = 0; i < bits; ++i) bitmap.Set(i);
    if (bits % 64 != 0) {
      storage[words - 1] &= ~(uint64_t{1} << (bits % 64));  // clear garbage
      EXPECT_TRUE(AllWordsSet(storage.data(), bits)) << "bits=" << bits;
      storage[words - 1] ^= uint64_t{1} << (bits % 64);  // set garbage
      EXPECT_TRUE(AllWordsSet(storage.data(), bits)) << "bits=" << bits;
    }
  }
}

TEST(KernelBitmapTest, ScalarAndSimdAllSetAgree) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD on this CPU";
  Rng rng(11);
  for (size_t bits : kWidths) {
    for (int round = 0; round < 32; ++round) {
      const size_t words = Bitmap::WordsForBits(bits);
      std::vector<uint64_t> storage(words);
      for (uint64_t& w : storage) {
        // Bias toward all-ones so the "true" branch is actually reached.
        w = (round % 2 == 0) ? ~uint64_t{0} : rng.Next() | rng.Next();
      }
      if (round == 0) {
        // Guaranteed all-set case.
      } else if (round == 1) {
        storage[rng.Next() % words] &= ~(uint64_t{1} << (rng.Next() % 64));
      }
      ASSERT_EQ(AllWordsSetScalar(storage.data(), bits),
                AllWordsSetSimd(storage.data(), bits))
          << "bits=" << bits << " round=" << round;
    }
  }
}

TEST(KernelBitmapTest, ClearWordsZeroes) {
  std::vector<uint64_t> storage(7, ~uint64_t{0});
  ClearWords(storage.data(), storage.size());
  for (uint64_t w : storage) EXPECT_EQ(w, 0u);
  ClearWords(storage.data(), 0);  // no-op, must not touch anything
}

TEST(KernelBitmapTest, SetBatchMatchesScalarSetLoop) {
  for (size_t bits : kWidths) {
    Bitmap batched(bits), looped(bits);
    std::vector<uint32_t> indices;
    for (size_t i = 0; i < bits; i += 3) {
      indices.push_back(static_cast<uint32_t>(i));
    }
    indices.push_back(static_cast<uint32_t>(bits - 1));  // tail bit
    indices.push_back(static_cast<uint32_t>(bits - 1));  // duplicate
    size_t newly = 0;
    for (uint32_t i : indices) newly += looped.Set(i) ? 1 : 0;
    EXPECT_EQ(batched.SetBatch(indices.data(), indices.size()), newly)
        << "bits=" << bits;
    EXPECT_EQ(batched.CountSet(), looped.CountSet());
    EXPECT_TRUE(batched.TestAllSet(indices.data(), indices.size()));
    if (bits > 2) {
      const uint32_t unset = 1;  // i+=3 stride never sets bit 1
      EXPECT_FALSE(batched.Test(unset));
      std::vector<uint32_t> with_hole = indices;
      with_hole.push_back(unset);
      EXPECT_FALSE(batched.TestAllSet(with_hole.data(), with_hole.size()));
    }
  }
}

// --- Compare kernel --------------------------------------------------------

TEST(KernelCompareTest, AllOpsMatchScalarSemantics) {
  Rng rng(17);
  std::vector<int64_t> values;
  for (int i = 0; i < 300; ++i) {
    // Small domain so every predicate sees both outcomes often.
    values.push_back(static_cast<int64_t>(rng.Next() % 16) - 8);
  }
  values.push_back(std::numeric_limits<int64_t>::min());
  values.push_back(std::numeric_limits<int64_t>::max());
  const int64_t rhs = 3;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    std::vector<uint8_t> mask(values.size(), 0xcc);
    const size_t matches =
        CompareInt64(values.data(), values.size(), op, rhs, mask.data());
    size_t expected_matches = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      const int64_t v = values[i];
      bool expect = false;
      switch (op) {
        case CmpOp::kEq: expect = v == rhs; break;
        case CmpOp::kNe: expect = v != rhs; break;
        case CmpOp::kLt: expect = v < rhs; break;
        case CmpOp::kLe: expect = v <= rhs; break;
        case CmpOp::kGt: expect = v > rhs; break;
        case CmpOp::kGe: expect = v >= rhs; break;
      }
      EXPECT_EQ(mask[i] != 0, expect) << "op " << static_cast<int>(op)
                                      << " value " << v;
      EXPECT_TRUE(mask[i] == 0 || mask[i] == 1) << "mask must be 0/1 bytes";
      expected_matches += expect ? 1 : 0;
    }
    EXPECT_EQ(matches, expected_matches);
    if (SimdAvailable()) {
      std::vector<uint8_t> simd_mask(values.size(), 0xcc);
      const size_t simd_matches = CompareInt64Simd(
          values.data(), values.size(), op, rhs, simd_mask.data());
      EXPECT_EQ(simd_matches, matches);
      EXPECT_EQ(simd_mask, mask);
    }
  }
}

TEST(KernelCompareTest, TailLengthsAgree) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD on this CPU";
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 19; ++i) values.push_back(i % 5);
  for (size_t n = 0; n <= values.size(); ++n) {
    std::vector<uint8_t> scalar(n + 1, 9), simd(n + 1, 9);
    const size_t a =
        CompareInt64Scalar(values.data(), n, CmpOp::kEq, 2, scalar.data());
    const size_t b =
        CompareInt64Simd(values.data(), n, CmpOp::kEq, 2, simd.data());
    ASSERT_EQ(a, b) << "n=" << n;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(scalar[i], simd[i]);
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

/// Tuples of one (int64, int64, int64, string, double) schema that tie and
/// differ at every key position: both int64 extremes, the signs around
/// zero, pairs that differ only in their low two bits, strings that tie on
/// their first eight bytes, and doubles.
std::vector<Tuple> SortCodeTuples() {
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(), -1, 0, 1, 2,
                          4, std::numeric_limits<int64_t>::max()};
  const char* strings[] = {"", "a", "ab", "abcdefghij", "abcdefghiz", "b"};
  const double doubles[] = {-2.5, 0.0, 3.75};
  std::vector<Tuple> tuples;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    tuples.push_back(Tuple{Value::Int64(ints[rng.Uniform(std::size(ints))]),
                           Value::Int64(ints[rng.Uniform(std::size(ints))]),
                           Value::Int64(ints[rng.Uniform(std::size(ints))]),
                           Value::String(strings[rng.Uniform(6)]),
                           Value::Double(doubles[rng.Uniform(3)])});
  }
  return tuples;
}

const Schema& SortCodeSchema() {
  static const Schema schema{
      Field{"a", ValueType::kInt64}, Field{"b", ValueType::kInt64},
      Field{"c", ValueType::kInt64}, Field{"s", ValueType::kString},
      Field{"d", ValueType::kDouble}};
  return schema;
}

/// Key lists covering every way a code ends: two int64s, one, a reversed
/// pair, three (the third uncoded), a string after an int64, a string or a
/// double first, and no keys at all.
const std::vector<std::vector<size_t>>& SortCodeKeyLists() {
  static const std::vector<std::vector<size_t>> lists = {
      {0, 1}, {0}, {1, 0}, {0, 1, 2}, {0, 3}, {3}, {4}, {4, 0}, {}};
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
  EXPECT_FALSE(SortKeyCodeIsComplete(SortCodeSchema(), {4}));
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
  // int64, string bytes past the eighth, any double.
  EXPECT_EQ(code(T(1, 2, 3), {0, 1, 2}), code(T(1, 2, 4), {0, 1, 2}));
  EXPECT_EQ(code(Tuple{Value::String("abcdefghij")}, {0}),
            code(Tuple{Value::String("abcdefghiz")}, {0}));
  EXPECT_EQ(code(Tuple{Value::Double(1.0)}, {0}),
            code(Tuple{Value::Double(2.0)}, {0}));
}

TEST(KernelLevelTest, DispatchIsResolved) {
  // The level follows the CPU alone.
  EXPECT_EQ(ActiveLevel() == Level::kSimd, SimdAvailable());
}

}  // namespace
}  // namespace kernels
}  // namespace reldiv
