// The in-process exchange's paged partition (exec/exchange.h): rows in
// fixed-size pages, never straddling one, located by index alone when every
// column is int64. Fragments read partitions concurrently, so
// tools/check_all.sh also runs this suite under TSan.

#include <string>
#include <vector>

#include "common/row_codec.h"
#include "exec/database.h"
#include "exec/exchange.h"
#include "exec/mem_source.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

Schema Int64Schema(size_t columns) {
  std::vector<Field> fields;
  for (size_t c = 0; c < columns; ++c) {
    fields.push_back(Field{"c" + std::to_string(c), ValueType::kInt64});
  }
  return Schema(std::move(fields));
}

/// Row i of an int64 table: column c holds i * 10 + c, negated for odd i so
/// the sign bit is stored too.
Tuple Int64Row(size_t i, size_t columns) {
  Tuple tuple;
  for (size_t c = 0; c < columns; ++c) {
    const int64_t v = static_cast<int64_t>(i * 10 + c);
    tuple.Append(Value::Int64(i % 2 == 0 ? v : -v));
  }
  return tuple;
}

/// The bytes of row `i` of `partition`.
std::string RowBytes(const EncodedPartition& partition, size_t i) {
  std::string bytes;
  partition.ForEachRow(i, i + 1, [&](Slice row) { bytes = row.ToString(); });
  return bytes;
}

/// Every row of `partition`, decoded one at a time.
std::vector<Tuple> RowsOf(const RowCodec& codec,
                          const EncodedPartition& partition) {
  std::vector<Tuple> rows(partition.rows());
  for (size_t i = 0; i < partition.rows(); ++i) {
    EXPECT_OK(codec.Decode(RowBytes(partition, i), &rows[i]));
  }
  return rows;
}

/// Every row of `partition`, read through a PartitionSourceOperator.
std::vector<Tuple> Drained(const RowCodec& codec,
                           const EncodedPartition& partition,
                           size_t batch_capacity) {
  PartitionSourceOperator source(&codec, &partition);
  Result<std::vector<Tuple>> rows = CollectAll(&source, batch_capacity);
  EXPECT_OK(rows.status());
  return rows.ok() ? rows.MoveValue() : std::vector<Tuple>{};
}

TEST(ExchangeTest, FixedWidthRowsFillAPageExactlyThenOpenTheNext) {
  // 2 int64 columns: 16-byte rows, exactly kPartitionPageBytes / 16 a page.
  const RowCodec codec(Int64Schema(2));
  ASSERT_EQ(codec.fixed_row_bytes(), 16u);
  const size_t per_page = kPartitionPageBytes / 16;
  EncodedPartition appended(codec);
  EncodedPartition stored(codec);
  std::vector<Tuple> input;
  std::vector<std::vector<int64_t>> columns(2);
  for (size_t i = 0; i < per_page + 1; ++i) {
    input.push_back(Int64Row(i, 2));
    ASSERT_OK(appended.Append(codec, input.back()));
    for (size_t c = 0; c < 2; ++c) {
      columns[c].push_back(input.back().value(c).int64());
    }
    stored.AppendInt64Row(columns, i);
    if (i + 1 == per_page) {
      // The page is exactly full; the next row opens a second one.
      EXPECT_EQ(appended.byte_size(), kPartitionPageBytes);
    }
  }
  EXPECT_EQ(appended.rows(), per_page + 1);
  EXPECT_EQ(appended.byte_size(), (per_page + 1) * 16);
  EXPECT_EQ(stored.byte_size(), appended.byte_size());
  EXPECT_EQ(RowsOf(codec, appended), input);
  // The first row of the second page starts a page, not the first page's
  // unused tail: its bytes are its own encoding.
  std::string encoded;
  ASSERT_OK(codec.Encode(input[per_page], &encoded));
  EXPECT_EQ(RowBytes(appended, per_page), encoded);
  // Both stores write the same bytes.
  for (size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(RowBytes(stored, i), RowBytes(appended, i)) << i;
  }
  // A gather across the page boundary.
  std::vector<int64_t> gathered(8);
  stored.GatherInt64Column(1, per_page - 4, 5, gathered.data());
  for (size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(gathered[k], input[per_page - 4 + k].value(1).int64()) << k;
  }
}

TEST(ExchangeTest, RowWidthThatDoesNotDivideThePageLeavesATail) {
  // 3 int64 columns: 24-byte rows, 2730 a page and a 16-byte tail, so the
  // page boundary falls on no multiple of the width.
  const RowCodec codec(Int64Schema(3));
  ASSERT_EQ(codec.fixed_row_bytes(), 24u);
  const size_t per_page = kPartitionPageBytes / 24;
  ASSERT_NE(kPartitionPageBytes % 24, 0u);
  EncodedPartition partition(codec);
  std::vector<Tuple> input;
  for (size_t i = 0; i < 3 * per_page + 17; ++i) {
    input.push_back(Int64Row(i, 3));
    ASSERT_OK(partition.Append(codec, input.back()));
  }
  EXPECT_EQ(partition.byte_size(), input.size() * 24);
  EXPECT_EQ(RowsOf(codec, partition), input);
  for (size_t column = 0; column < 3; ++column) {
    std::vector<int64_t> gathered(input.size());
    partition.GatherInt64Column(column, 0, input.size(), gathered.data());
    for (size_t i = 0; i < input.size(); ++i) {
      ASSERT_EQ(gathered[i], input[i].value(column).int64())
          << "column " << column << " row " << i;
    }
  }
  // ForEachRow hands out whole rows on both sides of every boundary.
  size_t seen = 0;
  partition.ForEachRow(per_page - 2, 2 * per_page + 2, [&](Slice row) {
    EXPECT_EQ(row.size(), 24u);
    Tuple decoded;
    EXPECT_OK(codec.Decode(row, &decoded));
    EXPECT_EQ(decoded, input[per_page - 2 + seen]);
    ++seen;
  });
  EXPECT_EQ(seen, per_page + 4);
}

TEST(ExchangeTest, VariableWidthRowLongerThanAPageGetsAPageOfItsOwn) {
  const RowCodec codec(Schema{Field{"s", ValueType::kString},
                              Field{"b", ValueType::kInt64}});
  EXPECT_EQ(codec.fixed_row_bytes(), 0u);
  EncodedPartition partition(codec);
  std::vector<Tuple> input = {
      Tuple{Value::String("short"), Value::Int64(1)},
      Tuple{Value::String(std::string(kPartitionPageBytes + 100, 'x')),
            Value::Int64(2)},
      Tuple{Value::String("after"), Value::Int64(3)},
      Tuple{Value::String(std::string(2 * kPartitionPageBytes, 'y')),
            Value::Int64(4)},
  };
  size_t bytes = 0;
  for (const Tuple& tuple : input) {
    ASSERT_OK(partition.Append(codec, tuple));
    std::string encoded;
    ASSERT_OK(codec.Encode(tuple, &encoded));
    bytes += encoded.size();
    EXPECT_EQ(RowBytes(partition, partition.rows() - 1), encoded);
  }
  EXPECT_EQ(partition.byte_size(), bytes);
  EXPECT_EQ(RowsOf(codec, partition), input);
  EXPECT_EQ(Drained(codec, partition, 1), input);
  EXPECT_EQ(Drained(codec, partition, 3), input);
}

TEST(ExchangeTest, EmptyPartitionsHoldNoRowsAndReadAsEmpty) {
  for (const Schema& schema :
       {Int64Schema(2), Schema{Field{"s", ValueType::kString}}}) {
    const RowCodec codec(schema);
    const EncodedPartition partition(codec);
    EXPECT_EQ(partition.rows(), 0u);
    EXPECT_EQ(partition.byte_size(), 0u);
    size_t calls = 0;
    partition.ForEachRow(0, 0, [&](Slice) { ++calls; });
    EXPECT_EQ(calls, 0u);
    TupleBatch batch(4);
    ASSERT_OK(DecodeRows(codec, partition, 0, &batch));
    EXPECT_TRUE(batch.empty());
    EXPECT_TRUE(Drained(codec, partition, 7).empty());
  }
  // Routing two keys into eight partitions leaves most of them empty.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  const RowCodec codec(Int64Schema(2));
  std::vector<Tuple> input;
  for (int64_t i = 0; i < 50; ++i) input.push_back(T(i % 2, i));
  MemSourceOperator source(codec.schema(), input);
  ASSERT_OK_AND_ASSIGN(
      std::vector<EncodedPartition> partitions,
      DrainAndEncodeRepartition(db->ctx(), &source, codec, {0}, 8));
  size_t empty = 0;
  size_t rows = 0;
  for (const EncodedPartition& partition : partitions) {
    if (partition.rows() == 0) {
      ++empty;
      EXPECT_EQ(partition.byte_size(), 0u);
      EXPECT_TRUE(Drained(codec, partition, 7).empty());
    }
    rows += partition.rows();
  }
  EXPECT_GE(empty, 6u);
  EXPECT_EQ(rows, input.size());
}

TEST(ExchangeTest, DecodeRowsStartsInALaterPage) {
  // Variable-width rows of a few hundred bytes: about 200 to a page.
  const RowCodec codec(Schema{Field{"a", ValueType::kInt64},
                              Field{"s", ValueType::kString}});
  EncodedPartition partition(codec);
  std::vector<Tuple> input;
  for (size_t i = 0; i < 1000; ++i) {
    input.push_back(
        Tuple{Value::Int64(static_cast<int64_t>(i)),
              Value::String(std::string(200 + i % 300, 'a' + i % 26))});
    ASSERT_OK(partition.Append(codec, input.back()));
  }
  ASSERT_GT(partition.byte_size(), 3 * kPartitionPageBytes);
  for (size_t begin : {size_t{0}, size_t{400}, size_t{733}, size_t{990}}) {
    TupleBatch batch(64);
    ASSERT_OK(DecodeRows(codec, partition, begin, &batch));
    const size_t expected = std::min<size_t>(64, input.size() - begin);
    ASSERT_EQ(batch.size(), expected) << begin;
    for (size_t k = 0; k < expected; ++k) {
      EXPECT_EQ(batch.tuple(k), input[begin + k]) << begin << "+" << k;
    }
  }
  // The same for fixed-width rows, from the third page on.
  const RowCodec fixed(Int64Schema(2));
  EncodedPartition fixed_partition(fixed);
  std::vector<Tuple> fixed_input;
  const size_t per_page = kPartitionPageBytes / 16;
  for (size_t i = 0; i < 3 * per_page; ++i) {
    fixed_input.push_back(Int64Row(i, 2));
    ASSERT_OK(fixed_partition.Append(fixed, fixed_input.back()));
  }
  TupleBatch batch(10);
  ASSERT_OK(DecodeRows(fixed, fixed_partition, 2 * per_page + 5, &batch));
  ASSERT_EQ(batch.size(), 10u);
  for (size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(batch.tuple(k), fixed_input[2 * per_page + 5 + k]);
  }
}

TEST(ExchangeTest, PartitionSourceReadsAMultiPagePartitionAtAnyBatchSize) {
  const RowCodec fixed(Int64Schema(3));
  const RowCodec variable(Schema{Field{"s", ValueType::kString},
                                 Field{"b", ValueType::kInt64}});
  EncodedPartition fixed_partition(fixed);
  EncodedPartition variable_partition(variable);
  std::vector<Tuple> fixed_input;
  std::vector<Tuple> variable_input;
  for (size_t i = 0; i < 7000; ++i) {  // 3 fixed pages, 2 variable ones
    fixed_input.push_back(Int64Row(i, 3));
    ASSERT_OK(fixed_partition.Append(fixed, fixed_input.back()));
    variable_input.push_back(
        Tuple{Value::String(std::string(i % 23, 'v')),
              Value::Int64(static_cast<int64_t>(i))});
    ASSERT_OK(variable_partition.Append(variable, variable_input.back()));
  }
  ASSERT_GT(fixed_partition.byte_size(), 2 * kPartitionPageBytes);
  ASSERT_GT(variable_partition.byte_size(), kPartitionPageBytes);
  for (size_t batch : {1u, 7u, 1024u}) {
    EXPECT_EQ(Drained(fixed, fixed_partition, batch), fixed_input) << batch;
    EXPECT_EQ(Drained(variable, variable_partition, batch), variable_input)
        << batch;
  }
}

TEST(ExchangeTest, RepartitionStoresFixedWidthBatchesAsThePerRowEncoderWould) {
  // The fixed-width store (extracted columns, no per-row encoder call) and
  // the per-row encoder must leave the same rows, in the same order, in
  // the same partitions: what HashPartitionOf decides, in input order.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  db->ctx()->set_batch_capacity(100);
  const RowCodec codec(Int64Schema(3));
  std::vector<Tuple> input;
  for (size_t i = 0; i < 9000; ++i) input.push_back(Int64Row(i % 4111, 3));
  constexpr size_t kParts = 5;
  MemSourceOperator source(codec.schema(), input);
  const uint64_t hashes_before = db->ctx()->counters()->hashes;
  ASSERT_OK_AND_ASSIGN(
      std::vector<EncodedPartition> partitions,
      DrainAndEncodeRepartition(db->ctx(), &source, codec, {1}, kParts));
  EXPECT_EQ(db->ctx()->counters()->hashes - hashes_before, input.size());
  std::vector<EncodedPartition> expected = MakeEncodedPartitions(codec, kParts);
  for (const Tuple& tuple : input) {
    ASSERT_OK(expected[HashPartitionOf(tuple, {1}, kParts)].Append(codec,
                                                                   tuple));
  }
  for (size_t p = 0; p < kParts; ++p) {
    ASSERT_EQ(partitions[p].rows(), expected[p].rows()) << p;
    EXPECT_EQ(partitions[p].byte_size(), expected[p].byte_size()) << p;
    for (size_t i = 0; i < expected[p].rows(); ++i) {
      ASSERT_EQ(RowBytes(partitions[p], i), RowBytes(expected[p], i))
          << "partition " << p << " row " << i;
    }
  }
  // A row of the wrong type still fails, through the per-row encoder.
  std::vector<Tuple> bad = input;
  bad[150] = Tuple{Value::Int64(1), Value::String("x"), Value::Int64(2)};
  MemSourceOperator bad_source(codec.schema(), bad);
  EXPECT_TRUE(DrainAndEncodeRepartition(db->ctx(), &bad_source, codec, {0},
                                        kParts)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExchangeTest, FragmentsReadOnePartitionConcurrently) {
  // Fragments of one region read their partitions on several lanes at
  // once; a partition is read-only then, so concurrent readers of the same
  // pages must each see every row.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  const RowCodec fixed(Int64Schema(2));
  const RowCodec variable(Schema{Field{"s", ValueType::kString},
                                 Field{"b", ValueType::kInt64}});
  EncodedPartition fixed_partition(fixed);
  EncodedPartition variable_partition(variable);
  std::vector<Tuple> variable_input;
  for (size_t i = 0; i < 10000; ++i) {
    ASSERT_OK(fixed_partition.Append(fixed, Int64Row(i, 2)));
    variable_input.push_back(Tuple{Value::String(std::string(i % 11, 'c')),
                                   Value::Int64(static_cast<int64_t>(i))});
    ASSERT_OK(variable_partition.Append(variable, variable_input.back()));
  }
  db->ctx()->set_dop(4);
  std::vector<int64_t> sums(8, 0);
  std::vector<size_t> decoded(8, 0);
  ASSERT_OK(RunFragments(db->ctx(), 8, [&](size_t f, ExecContext*) -> Status {
    std::vector<int64_t> column(fixed_partition.rows());
    fixed_partition.GatherInt64Column(f % 2, 0, column.size(), column.data());
    for (int64_t v : column) sums[f] += v;
    TupleBatch batch(97);
    for (size_t begin = 0; begin < variable_partition.rows();
         begin += batch.size()) {
      RELDIV_RETURN_NOT_OK(
          DecodeRows(variable, variable_partition, begin, &batch));
      for (size_t k = 0; k < batch.size(); ++k) {
        if (batch.tuple(k) != variable_input[begin + k]) {
          return Status::Internal("row read back wrong");
        }
      }
      decoded[f] += batch.size();
    }
    return Status::OK();
  }));
  db->ctx()->set_dop(1);
  int64_t expected[2] = {0, 0};
  for (size_t i = 0; i < 10000; ++i) {
    const Tuple row = Int64Row(i, 2);
    expected[0] += row.value(0).int64();
    expected[1] += row.value(1).int64();
  }
  for (size_t f = 0; f < 8; ++f) {
    EXPECT_EQ(sums[f], expected[f % 2]) << f;
    EXPECT_EQ(decoded[f], variable_input.size()) << f;
  }
}

}  // namespace
}  // namespace reldiv
