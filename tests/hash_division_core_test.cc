#include "division/hash_division.h"

#include <memory>

#include "exec/database.h"
#include "exec/filter.h"
#include "exec/mem_source.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

class HashDivisionCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  Schema DividendSchema() {
    return Schema{Field{"student", ValueType::kString},
                  Field{"course", ValueType::kString}};
  }
  Schema DivisorSchema() {
    return Schema{Field{"course", ValueType::kString}};
  }

  static Tuple Row(const char* a, const char* b) {
    return Tuple{Value::String(a), Value::String(b)};
  }
  static Tuple S(const char* a) { return Tuple{Value::String(a)}; }

  std::unique_ptr<Database> db_;
};

TEST_F(HashDivisionCoreTest, Figure2TraceStepByStep) {
  // §3.2: Courses = {Database1, Database2}; Transcript processed in the
  // paper's order: (Ann, Database1), (Barb, Database2), (Ann, Database2),
  // (Barb, Optics). After step 2 the quotient table holds TWO candidates
  // (Ann and Barb); step 3 emits only Ann.
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(),
                            {S("Database1"), S("Database2")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  EXPECT_EQ(core.divisor_count(), 2u);
  ASSERT_OK(core.ResetQuotientTable());

  ASSERT_OK(core.Consume(Row("Ann", "Database1"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 1u);  // (Ann) created
  ASSERT_OK(core.Consume(Row("Barb", "Database2"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 2u);  // (Barb) created
  ASSERT_OK(core.Consume(Row("Ann", "Database2"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 2u);  // bit set in (Ann)'s map
  ASSERT_OK(core.Consume(Row("Barb", "Optics"), nullptr));
  EXPECT_EQ(core.quotient_candidates(), 2u);  // discarded immediately

  std::vector<Tuple> quotient;
  ASSERT_OK(core.EmitComplete(&quotient));
  ASSERT_EQ(quotient.size(), 1u);
  EXPECT_EQ(quotient[0], Tuple{Value::String("Ann")});
}

TEST_F(HashDivisionCoreTest, DivisorDuplicatesGetNoNewNumber) {
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(
      DivisorSchema(),
      {S("Database1"), S("Database2"), S("Database1"), S("Database2")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  // "Duplicates in the divisor can be eliminated while building the
  // divisor table" — the count reflects DISTINCT tuples, keeping the bit
  // maps dense.
  EXPECT_EQ(core.divisor_count(), 2u);
}

TEST_F(HashDivisionCoreTest, BitOpsAreCounted) {
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(), {S("A"), S("B")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  ASSERT_OK(core.ResetQuotientTable());
  db_->counters()->Reset();
  ASSERT_OK(core.Consume(Row("x", "A"), nullptr));
  // Creating the candidate clears one word and sets one bit.
  EXPECT_GE(db_->counters()->bit_ops, 2u);
  const uint64_t after_create = db_->counters()->bit_ops;
  ASSERT_OK(core.Consume(Row("x", "B"), nullptr));
  EXPECT_EQ(db_->counters()->bit_ops, after_create + 1);  // one Set only
}

TEST_F(HashDivisionCoreTest, MemoryBytesGrowWithTables) {
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(), {S("A"), S("B"), S("C")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  const size_t after_divisor = core.memory_bytes();
  EXPECT_GT(after_divisor, 0u);
  ASSERT_OK(core.ResetQuotientTable());
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(core.Consume(
        Tuple{Value::String("s" + std::to_string(i)), Value::String("A")},
        nullptr));
  }
  EXPECT_GT(core.memory_bytes(), after_divisor);
}

TEST_F(HashDivisionCoreTest, QuotientTableResetStartsAPhaseFresh) {
  // The §3.4 phase pattern: same divisor table, fresh quotient table.
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  MemSourceOperator divisor(DivisorSchema(), {S("A"), S("B")});
  ASSERT_OK(core.BuildDivisorTable(&divisor));

  ASSERT_OK(core.ResetQuotientTable());
  ASSERT_OK(core.Consume(Row("u", "A"), nullptr));
  ASSERT_OK(core.Consume(Row("u", "B"), nullptr));
  std::vector<Tuple> phase1;
  ASSERT_OK(core.EmitComplete(&phase1));
  EXPECT_EQ(phase1, std::vector<Tuple>{Tuple{Value::String("u")}});

  ASSERT_OK(core.ResetQuotientTable());
  EXPECT_EQ(core.quotient_candidates(), 0u);
  ASSERT_OK(core.Consume(Row("v", "A"), nullptr));
  std::vector<Tuple> phase2;
  ASSERT_OK(core.EmitComplete(&phase2));
  EXPECT_TRUE(phase2.empty());  // v misses B; u is gone with the old table
}

TEST_F(HashDivisionCoreTest, SeededDivisorTableSkipsStepOne) {
  // The collection-phase path: divisor numbers provided externally.
  DivisionOptions options;
  HashDivisionCore core(db_->ctx(), {1}, {0}, options);
  std::vector<std::pair<Tuple, uint64_t>> numbered;
  numbered.emplace_back(Tuple{Value::Int64(10)}, 0);
  numbered.emplace_back(Tuple{Value::Int64(30)}, 1);
  ASSERT_OK(core.BuildDivisorTableFromNumbered(numbered, 2));
  EXPECT_EQ(core.divisor_count(), 2u);
  ASSERT_OK(core.ResetQuotientTable());
  // Dividend (q, tag): q=1 appears with both tags; q=2 with one.
  Schema schema{Field{"q", ValueType::kInt64},
                Field{"tag", ValueType::kInt64}};
  (void)schema;
  ASSERT_OK(core.Consume(T(1, 10), nullptr));
  ASSERT_OK(core.Consume(T(1, 30), nullptr));
  ASSERT_OK(core.Consume(T(2, 30), nullptr));
  std::vector<Tuple> out;
  ASSERT_OK(core.EmitComplete(&out));
  EXPECT_EQ(out, std::vector<Tuple>{T(1)});
}

TEST_F(HashDivisionCoreTest, OperatorComposesInDataflow) {
  // §3.3 point 1: hash-division "can smoothly receive its inputs from a
  // dataflow query processing system" — here both inputs come from filter
  // operators, not stored relations, and the early-output form feeds a
  // downstream consumer incrementally.
  std::vector<Tuple> dividend_rows = {T(1, 1), T(1, 2), T(2, 1), T(1, 99),
                                      T(2, 2), T(3, 1)};
  std::vector<Tuple> divisor_rows = {T(1), T(2), T(77)};
  Schema dividend_schema{Field{"q", ValueType::kInt64},
                         Field{"d", ValueType::kInt64}};
  Schema divisor_schema{Field{"d", ValueType::kInt64}};

  auto filtered_dividend = std::make_unique<FilterOperator>(
      std::make_unique<MemSourceOperator>(dividend_schema, dividend_rows),
      [](const Tuple& t) { return t.value(1).int64() < 50; });
  auto filtered_divisor = std::make_unique<FilterOperator>(
      std::make_unique<MemSourceOperator>(divisor_schema, divisor_rows),
      [](const Tuple& t) { return t.value(0).int64() < 50; });

  DivisionOptions options;
  options.early_output = true;
  HashDivisionOperator op(db_->ctx(), std::move(filtered_dividend),
                          std::move(filtered_divisor), {1}, {0}, options);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&op));
  EXPECT_EQ(Sorted(std::move(out)), (std::vector<Tuple>{T(1), T(2)}));
}

TEST_F(HashDivisionCoreTest, EarlyOutputConsumerMayStopEarly) {
  // A consumer that abandons the stream mid-way must leave the operator
  // closeable without errors, at either protocol granularity. It is also
  // the Close() audit: every Comp/Hash/Bit delta must be charged by the
  // time Next/NextBatch returns. An operator that buffered counts and
  // flushed them in Close would show a difference between the drained and
  // closed snapshots below.
  std::vector<Tuple> dividend_rows;
  for (int q = 0; q < 50; ++q) {
    dividend_rows.push_back(T(q, 0));
    dividend_rows.push_back(T(q, 1));
  }
  Schema dividend_schema{Field{"q", ValueType::kInt64},
                         Field{"d", ValueType::kInt64}};
  Schema divisor_schema{Field{"d", ValueType::kInt64}};
  DivisionOptions options;
  options.early_output = true;
  // Small input batches, so the 8-slot output fills with dividend input
  // still pending.
  db_->ctx()->set_batch_capacity(16);
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "NextBatch" : "Next");
    HashDivisionOperator op(
        db_->ctx(),
        std::make_unique<MemSourceOperator>(dividend_schema, dividend_rows),
        std::make_unique<MemSourceOperator>(divisor_schema,
                                            std::vector<Tuple>{T(0), T(1)}),
        {1}, {0}, options);
    const CpuCounters before = *db_->ctx()->counters();
    ASSERT_OK(op.Open());
    if (batched) {
      TupleBatch batch(8);
      bool has_more = false;
      ASSERT_OK(op.NextBatch(&batch, &has_more));
      ASSERT_EQ(batch.size(), 8u);
      ASSERT_TRUE(has_more) << "partial drain expected input left over";
    } else {
      Tuple tuple;
      bool has = false;
      ASSERT_OK(op.Next(&tuple, &has));
      ASSERT_TRUE(has);
    }
    const CpuCounters drained = *db_->ctx()->counters() - before;
    ASSERT_OK(op.Close());  // stream abandoned mid-way
    const CpuCounters closed = *db_->ctx()->counters() - before;
    EXPECT_GT(drained.comparisons, 0u);
    EXPECT_EQ(closed.comparisons, drained.comparisons)
        << "Close flushed buffered Comp counts";
    EXPECT_EQ(closed.hashes, drained.hashes);
    EXPECT_EQ(closed.bit_ops, drained.bit_ops);
  }
}

// Quotient-table growth: 5,000 candidates over a 4-tuple divisor, every
// seventh candidate missing one divisor value. Rows arrive divisor-major, so
// every candidate is created before any is revisited.
constexpr int64_t kGrowthCandidates = 5000;

std::vector<Tuple> GrowthDividend() {
  std::vector<Tuple> rows;
  for (int64_t d = 0; d < 4; ++d) {
    for (int64_t q = 0; q < kGrowthCandidates; ++q) {
      if (d == 3 && q % 7 == 0) continue;
      rows.push_back(T(q, d));
    }
  }
  return rows;
}

struct GrowthRun {
  std::vector<Tuple> quotient;  ///< in emission (bucket) order
  CpuCounters cpu;              ///< step 2 and step 3
  size_t candidates = 0;
  size_t buckets = 0;
};

/// Divides GrowthDividend() by {0..3} through the tuple lane (Consume) when
/// `batch_capacity` is 0, else through ConsumeBatch at that capacity.
GrowthRun DivideForGrowth(ExecContext* ctx, size_t batch_capacity,
                          uint64_t quotient_hint) {
  GrowthRun run;
  HashDivisionCore core(ctx, {1}, {0}, DivisionOptions{});
  MemSourceOperator divisor(Schema{Field{"d", ValueType::kInt64}},
                            {T(0), T(1), T(2), T(3)});
  EXPECT_OK(core.BuildDivisorTable(&divisor));
  EXPECT_OK(core.ResetQuotientTable(quotient_hint));
  const CpuCounters before = *ctx->counters();
  const std::vector<Tuple> rows = GrowthDividend();
  if (batch_capacity == 0) {
    for (const Tuple& row : rows) EXPECT_OK(core.Consume(row, nullptr));
  } else {
    TupleBatch batch(batch_capacity);
    for (const Tuple& row : rows) {
      if (batch.full()) {
        EXPECT_OK(core.ConsumeBatch(batch, nullptr));
        batch.Clear();
      }
      batch.PushBack(row);
    }
    EXPECT_OK(core.ConsumeBatch(batch, nullptr));
  }
  EXPECT_OK(core.EmitComplete(&run.quotient));
  run.cpu = *ctx->counters() - before;
  run.candidates = core.quotient_candidates();
  run.buckets = core.quotient_buckets();
  return run;
}

TEST_F(HashDivisionCoreTest, UnhintedQuotientTableGrowsToAverageBucketSizeTwo) {
  const GrowthRun grown = DivideForGrowth(db_->ctx(), 1024, 0);
  EXPECT_EQ(grown.candidates, static_cast<size_t>(kGrowthCandidates));
  EXPECT_EQ(grown.quotient.size(),
            static_cast<size_t>(kGrowthCandidates - kGrowthCandidates / 7 - 1));
  EXPECT_GT(grown.buckets, 512u);
  EXPECT_LE(grown.candidates, 2 * grown.buckets);
  // Table 1 prices a probe at hbs = 2. Per dividend tuple: about one Comp in
  // the divisor table plus a walk along a quotient chain of average length
  // <= 2 (2.8 in all). The fixed 512 buckets that the hint 1,024 gives run
  // chains of about 10 and need 6.9.
  const double rows = static_cast<double>(GrowthDividend().size());
  constexpr double kMaxCompsPerTuple = 3.5;
  EXPECT_LE(static_cast<double>(grown.cpu.comparisons) / rows,
            kMaxCompsPerTuple);
  const GrowthRun fixed = DivideForGrowth(db_->ctx(), 1024, 1024);
  EXPECT_EQ(fixed.buckets, 512u);
  EXPECT_GT(static_cast<double>(fixed.cpu.comparisons) / rows,
            kMaxCompsPerTuple);
  // Growth relinks memoized hashes: it adds no Hash and no bit operation.
  EXPECT_EQ(grown.cpu.hashes, fixed.cpu.hashes);
  EXPECT_EQ(grown.cpu.bit_ops, fixed.cpu.bit_ops);
  EXPECT_EQ(Sorted(grown.quotient), Sorted(fixed.quotient));
}

TEST_F(HashDivisionCoreTest, GrowthIsIdenticalAcrossLanesAndBatchSizes) {
  // Growth depends only on how many candidates were inserted, so the
  // quotient (in emission order) and every Table 1 counter are the same
  // through the tuple lane and the batch lane at any capacity.
  const GrowthRun tuple_lane = DivideForGrowth(db_->ctx(), 0, 0);
  EXPECT_GT(tuple_lane.buckets, 512u);
  for (const size_t capacity : {1u, 7u, 1024u}) {
    SCOPED_TRACE(capacity);
    const GrowthRun batch_lane = DivideForGrowth(db_->ctx(), capacity, 0);
    EXPECT_EQ(batch_lane.quotient, tuple_lane.quotient);
    EXPECT_EQ(batch_lane.cpu.comparisons, tuple_lane.cpu.comparisons);
    EXPECT_EQ(batch_lane.cpu.hashes, tuple_lane.cpu.hashes);
    EXPECT_EQ(batch_lane.cpu.moves, tuple_lane.cpu.moves);
    EXPECT_EQ(batch_lane.cpu.bit_ops, tuple_lane.cpu.bit_ops);
    EXPECT_EQ(batch_lane.buckets, tuple_lane.buckets);
  }
}

TEST_F(HashDivisionCoreTest, ExplicitHintFixesTheQuotientTableSize) {
  const GrowthRun hinted = DivideForGrowth(db_->ctx(), 1024, 16);
  EXPECT_EQ(hinted.candidates, static_cast<size_t>(kGrowthCandidates));
  EXPECT_EQ(hinted.buckets, 16u);
}

}  // namespace
}  // namespace reldiv
