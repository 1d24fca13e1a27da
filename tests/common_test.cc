#include <set>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/row_codec.h"
#include "common/schema.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::string> r = std::string("payload");
  std::string s = r.MoveValue();
  EXPECT_EQ(s, "payload");
}

TEST(SliceTest, CompareAndEquality) {
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("") == Slice(""));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_EQ(Value::Int64(-5).Compare(Value::Int64(-5)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
}

TEST(ValueTest, CrossTypeOrderIsStable) {
  // int64 < string by tag.
  EXPECT_LT(Value::Int64(99).Compare(Value::String("")), 0);
  EXPECT_GT(Value::String("").Compare(Value::Int64(99)), 0);
}

TEST(ValueTest, HashDistinguishesValuesAndTypes) {
  EXPECT_NE(Value::Int64(1).Hash(), Value::Int64(2).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(SchemaTest, FieldLookup) {
  Schema schema{Field{"a", ValueType::kInt64}, Field{"b", ValueType::kString}};
  ASSERT_OK_AND_ASSIGN(size_t idx, schema.FieldIndex("b"));
  EXPECT_EQ(idx, 1u);
  EXPECT_TRUE(schema.FieldIndex("z").status().IsNotFound());
}

TEST(SchemaTest, ProjectAndComplement) {
  Schema schema{Field{"a", ValueType::kInt64}, Field{"b", ValueType::kInt64},
                Field{"c", ValueType::kInt64}};
  Schema projected = schema.Project({2, 0});
  EXPECT_EQ(projected.field(0).name, "c");
  EXPECT_EQ(projected.field(1).name, "a");
  EXPECT_EQ(schema.ComplementIndices({1}), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(schema.ComplementIndices({}), (std::vector<size_t>{0, 1, 2}));
}

TEST(SchemaTest, ToStringRendersTypes) {
  Schema schema{Field{"a", ValueType::kInt64}, Field{"t", ValueType::kString}};
  EXPECT_EQ(schema.ToString(), "(a:int64, t:string)");
}

TEST(TupleTest, LexicographicCompare) {
  EXPECT_LT(T(1, 2).Compare(T(1, 3)), 0);
  EXPECT_EQ(T(1, 2).Compare(T(1, 2)), 0);
  EXPECT_GT(T(2, 0).Compare(T(1, 9)), 0);
  EXPECT_LT(T(1).Compare(T(1, 0)), 0);  // prefix sorts first
}

TEST(TupleTest, CompareAtSubsets) {
  Tuple a = T(1, 7, 3);
  Tuple b = T(9, 7, 3);
  EXPECT_EQ(a.CompareAt({1, 2}, b), 0);
  EXPECT_NE(a.CompareAt({0}, b), 0);
}

TEST(TupleTest, CompareProjectedAcrossSchemas) {
  Tuple dividend = T(100, 7);  // (quotient, divisor-attr)
  Tuple divisor = T(7);
  EXPECT_EQ(dividend.CompareProjected({1}, divisor, {0}), 0);
  EXPECT_GT(dividend.CompareProjected({0}, divisor, {0}), 0);
}

TEST(TupleTest, CompareAtAgainstWhole) {
  Tuple dividend = T(100, 7);
  EXPECT_EQ(dividend.CompareAtAgainstWhole({1}, T(7)), 0);
  EXPECT_LT(dividend.CompareAtAgainstWhole({1}, T(9)), 0);
}

TEST(TupleTest, HashAtMatchesAcrossEqualProjections) {
  Tuple a = T(1, 7);
  Tuple b = T(2, 7);
  EXPECT_EQ(a.HashAt({1}), b.HashAt({1}));
  EXPECT_NE(a.HashAt({0}), b.HashAt({0}));
}

TEST(RowCodecTest, RoundTripAllTypes) {
  Schema schema{Field{"i", ValueType::kInt64}, Field{"s", ValueType::kString}};
  RowCodec codec(schema);
  Tuple in{Value::Int64(-123456789), Value::String("hello world")};
  std::string encoded;
  ASSERT_OK(codec.Encode(in, &encoded));
  Tuple out;
  ASSERT_OK(codec.Decode(Slice(encoded), &out));
  EXPECT_EQ(in, out);
}

TEST(RowCodecTest, RoundTripEmptyString) {
  Schema schema{Field{"s", ValueType::kString}};
  RowCodec codec(schema);
  std::string encoded;
  ASSERT_OK(codec.Encode(Tuple{Value::String("")}, &encoded));
  Tuple out;
  ASSERT_OK(codec.Decode(Slice(encoded), &out));
  EXPECT_EQ(out.value(0).string_value(), "");
}

TEST(RowCodecTest, RejectsArityMismatch) {
  RowCodec codec(Schema{Field{"i", ValueType::kInt64}});
  std::string buf;
  EXPECT_TRUE(codec.Encode(T(1, 2), &buf).IsInvalidArgument());
}

TEST(RowCodecTest, RejectsTypeMismatch) {
  RowCodec codec(Schema{Field{"i", ValueType::kInt64}});
  std::string buf;
  EXPECT_TRUE(
      codec.Encode(Tuple{Value::String("x")}, &buf).IsInvalidArgument());
}

TEST(RowCodecTest, FixedWidthEncodeAppendsLittleEndianRows) {
  RowCodec codec(Schema{Field{"i", ValueType::kInt64},
                        Field{"j", ValueType::kInt64}});
  std::string buf = "ab";
  ASSERT_OK(codec.Encode(T(0x0102, -2), &buf));
  ASSERT_EQ(buf.size(), 2u + 16u);
  EXPECT_EQ(buf.substr(0, 4), std::string("ab\x02\x01", 4));
  Tuple out;
  ASSERT_OK(codec.Decode(Slice(buf.data() + 2, 16), &out));
  EXPECT_EQ(out, T(0x0102, -2));
  // A rejected row leaves the buffer as it was.
  EXPECT_TRUE(codec.Encode(Tuple{Value::Int64(1), Value::String("x")}, &buf)
                  .IsInvalidArgument());
  EXPECT_EQ(buf.size(), 18u);
}

TEST(RowCodecTest, DetectsTruncation) {
  Schema schema{Field{"i", ValueType::kInt64}};
  RowCodec codec(schema);
  std::string encoded;
  ASSERT_OK(codec.Encode(T(7), &encoded));
  Tuple out;
  EXPECT_TRUE(
      codec.Decode(Slice(encoded.data(), 4), &out).IsCorruption());
}

TEST(RowCodecTest, DetectsTrailingBytes) {
  Schema schema{Field{"i", ValueType::kInt64}};
  RowCodec codec(schema);
  std::string encoded;
  ASSERT_OK(codec.Encode(T(7), &encoded));
  encoded += "x";
  Tuple out;
  EXPECT_TRUE(codec.Decode(Slice(encoded), &out).IsCorruption());
}

TEST(BitmapTest, SetTestAndAllSet) {
  Bitmap bm(130);  // crosses word boundaries with a partial tail
  EXPECT_FALSE(bm.AllSet());
  for (size_t i = 0; i < 130; ++i) {
    EXPECT_TRUE(bm.Set(i));
    EXPECT_TRUE(bm.Test(i));
  }
  EXPECT_TRUE(bm.AllSet());
  EXPECT_EQ(bm.CountSet(), 130u);
}

TEST(BitmapTest, SetReportsWasClear) {
  Bitmap bm(8);
  EXPECT_TRUE(bm.Set(3));
  EXPECT_FALSE(bm.Set(3));  // already set
}

TEST(BitmapTest, AllSetFalseWithSingleZero) {
  for (size_t size : {1u, 63u, 64u, 65u, 128u, 129u}) {
    for (size_t hole : {size_t{0}, size / 2, size - 1}) {
      Bitmap bm(size);
      for (size_t i = 0; i < size; ++i) {
        if (i != hole) bm.Set(i);
      }
      EXPECT_FALSE(bm.AllSet()) << "size=" << size << " hole=" << hole;
      bm.Set(hole);
      EXPECT_TRUE(bm.AllSet()) << "size=" << size;
    }
  }
}

TEST(BitmapTest, EmptyBitmapIsVacuouslyAllSet) {
  Bitmap bm(0);
  EXPECT_TRUE(bm.AllSet());
  EXPECT_EQ(bm.CountSet(), 0u);
}

TEST(BitmapTest, MapOntoExternalStorage) {
  uint64_t words[2] = {~uint64_t{0}, ~uint64_t{0}};  // dirty storage
  Bitmap bm = Bitmap::MapOnto(words, 100);
  bm.ClearAll();
  EXPECT_EQ(bm.CountSet(), 0u);
  bm.Set(99);
  EXPECT_TRUE(bm.Test(99));
  EXPECT_EQ(bm.CountSet(), 1u);
}

TEST(BitmapTest, AllSetIgnoresGarbageBeyondWidth) {
  // Arena storage comes in whole words, so the bits of the last word past
  // num_bits are unspecified. A set bit there must neither help nor hurt
  // the all-set scan.
  for (size_t bits : {size_t{1}, size_t{63}, size_t{65}, size_t{130}}) {
    const size_t words = Bitmap::WordsForBits(bits);
    std::vector<uint64_t> storage(words, 0);
    Bitmap bm = Bitmap::MapOnto(storage.data(), bits);
    const uint64_t garbage = uint64_t{1} << (bits % 64);
    storage[words - 1] |= garbage;
    for (size_t i = 0; i + 1 < bits; ++i) bm.Set(i);
    EXPECT_FALSE(bm.AllSet()) << "bits=" << bits;  // does not help
    bm.Set(bits - 1);
    EXPECT_TRUE(bm.AllSet()) << "bits=" << bits;  // does not hurt
    storage[words - 1] &= ~garbage;
    EXPECT_TRUE(bm.AllSet()) << "bits=" << bits;
  }
}

TEST(HashTest, Avalanche) {
  // Neighboring inputs must land in different buckets essentially always.
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1000; ++i) buckets.insert(Hash64(i) % 4096);
  EXPECT_GT(buckets.size(), 800u);
}

TEST(HashTest, BytesHashIsOrderSensitive) {
  EXPECT_NE(HashBytes("ab", 2), HashBytes("ba", 2));
}

TEST(CheckDeathTest, CheckFailureAbortsWithMessage) {
  EXPECT_DEATH(RELDIV_CHECK(1 == 2) << ": streamed context",
               "RELDIV_CHECK\\(1 == 2\\) failed: streamed context");
}

TEST(CheckDeathTest, BinaryCheckPrintsBothOperands) {
  const int lhs = 3;
  const int rhs = 4;
  EXPECT_DEATH(RELDIV_CHECK_EQ(lhs, rhs),
               "RELDIV_CHECK\\(lhs == rhs\\) failed \\(3 vs\\. 4\\)");
}

TEST(CheckDeathTest, DcheckHonorsDebugChecksSetting) {
#if RELDIV_DEBUG_CHECKS
  // Debug build (or RELDIV_FORCE_DCHECKS): a DCHECK is a full CHECK.
  EXPECT_DEATH(RELDIV_DCHECK_LT(5, 4),
               "RELDIV_CHECK\\(5 < 4\\) failed \\(5 vs\\. 4\\)");
#else
  // Optimized build: compiled out — reaching this line proves no abort.
  RELDIV_DCHECK_LT(5, 4) << "never evaluated";
  RELDIV_DCHECK(false) << "never evaluated";
#endif
}

namespace check_handler_test {
std::string* captured_message = nullptr;
void CapturingHandler(const char* /*file*/, int /*line*/,
                      const std::string& message) {
  *captured_message = message;
}
}  // namespace check_handler_test

TEST(CheckTest, HandlerCapturesMessageAndRestores) {
  std::string captured;
  check_handler_test::captured_message = &captured;
  CheckFailureHandler previous =
      SetCheckFailureHandler(&check_handler_test::CapturingHandler);
  // The capturing handler returns normally, so execution resumes here.
  RELDIV_CHECK(false) << ": not fatal under a test handler";
  EXPECT_NE(captured.find("RELDIV_CHECK(false) failed"), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("not fatal under a test handler"),
            std::string::npos);

  captured.clear();
  SetCheckFailureHandler(previous);
  check_handler_test::captured_message = nullptr;
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

}  // namespace
}  // namespace reldiv
