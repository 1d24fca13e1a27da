#include "division/partitioned_hash_division.h"

#include <map>
#include <memory>
#include <string>

#include "division/division.h"
#include "exec/database.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

class PartitionedDivisionTest : public ::testing::Test {
 protected:
  void LoadBig(Database* db, Relation* dividend, Relation* divisor,
               std::vector<Tuple>* expected) {
    WorkloadSpec spec;
    spec.divisor_cardinality = 40;
    spec.quotient_candidates = 2000;
    spec.candidate_completeness = 0.5;
    spec.nonmatching_tuples = 500;
    spec.seed = 31;
    GeneratedWorkload workload = GenerateWorkload(spec);
    ASSERT_OK(LoadWorkload(db, workload, "big", dividend, divisor));
    *expected = workload.expected_quotient;
  }
};

TEST_F(PartitionedDivisionTest, PlainHashDivisionOverflowsTightMemory) {
  // Budget far too small for a ~2000-candidate quotient table (plus the
  // buffer pool): plain hash-division must report hash table overflow.
  DatabaseOptions options;
  options.pool_bytes = 48 * 1024;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  Relation dividend, divisor;
  std::vector<Tuple> expected;
  LoadBig(db.get(), &dividend, &divisor, &expected);
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  auto result = Divide(db->ctx(), query, DivisionAlgorithm::kHashDivision);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
}

TEST_F(PartitionedDivisionTest, QuotientPartitioningResolvesOverflow) {
  DivisionOptions div_options;
  div_options.partition_strategy = PartitionStrategy::kQuotient;
  div_options.num_partitions = 32;
  DatabaseOptions options;
  options.pool_bytes = 48 * 1024;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  Relation dividend, divisor;
  std::vector<Tuple> expected;
  LoadBig(db.get(), &dividend, &divisor, &expected);
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> quotient,
      Divide(db->ctx(), query, DivisionAlgorithm::kHashDivisionPartitioned,
             div_options));
  EXPECT_EQ(Sorted(std::move(quotient)), expected);
}

TEST_F(PartitionedDivisionTest, PhasesRunMatchesPartitionCount) {
  DatabaseOptions options;
  options.pool_bytes = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  GeneratedWorkload workload = GenerateWorkload(PaperCell(10, 50));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "w", &dividend, &divisor));
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved,
                       ResolveDivision(
                           DivisionQuery{dividend, divisor, {"divisor_id"}}));
  {
    DivisionOptions div_options;
    div_options.partition_strategy = PartitionStrategy::kQuotient;
    div_options.num_partitions = 6;
    PartitionedHashDivisionOperator op(db->ctx(), resolved, div_options);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&op));
    EXPECT_EQ(Sorted(std::move(out)), workload.expected_quotient);
    EXPECT_EQ(op.phases_run(), 6u);
  }
  {
    // Divisor partitioning: only phases with non-empty divisor clusters run.
    DivisionOptions div_options;
    div_options.partition_strategy = PartitionStrategy::kDivisor;
    div_options.num_partitions = 64;  // more partitions than divisor tuples
    PartitionedHashDivisionOperator op(db->ctx(), resolved, div_options);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&op));
    EXPECT_EQ(Sorted(std::move(out)), workload.expected_quotient);
    EXPECT_LE(op.phases_run(), 10u);  // at most |S| non-empty clusters
    EXPECT_GT(op.phases_run(), 0u);
  }
}

TEST_F(PartitionedDivisionTest, DivisorStrategyMatchesReference) {
  // Duplicates, incomplete candidates and dividend tuples that match no
  // divisor tuple, at several partition counts; the tight budgets make the
  // phases split their quotient and divisor clusters.
  DatabaseOptions options;
  options.pool_bytes = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  WorkloadSpec spec;
  spec.divisor_cardinality = 25;
  spec.quotient_candidates = 120;
  spec.candidate_completeness = 0.5;
  spec.nonmatching_tuples = 60;
  spec.dividend_duplicates = 30;
  spec.seed = 41;
  GeneratedWorkload workload = GenerateWorkload(spec);
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "div", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  for (size_t partitions : {1, 3, 6}) {
    for (size_t budget : {0, 4096, 1024}) {  // 0 = unbounded
      db->ctx()->set_hash_memory_bytes(budget);
      DivisionOptions div_options;
      div_options.partition_strategy = PartitionStrategy::kDivisor;
      div_options.num_partitions = partitions;
      ASSERT_OK_AND_ASSIGN(
          std::vector<Tuple> quotient,
          Divide(db->ctx(), query,
                 DivisionAlgorithm::kHashDivisionPartitioned, div_options));
      EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient)
          << partitions << " partitions, budget " << budget;
    }
  }
}

TEST_F(PartitionedDivisionTest, DivisorStrategySplitsBothTablesInOneRun) {
  // Divisor and quotient tables together far exceed the 2 KiB budget, so
  // plain hash-division overflows. Divisor partitioning into 2 clusters
  // leaves each phase's divisor table (~32 rows) too large as well: that
  // phase's divisor cluster splits on the divisor attrs, and the quotient
  // tables split their dividend clusters on the quotient attrs, all in one
  // run.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  WorkloadSpec spec;
  spec.divisor_cardinality = 64;
  spec.quotient_candidates = 200;
  spec.candidate_completeness = 0.5;
  spec.nonmatching_tuples = 100;
  spec.dividend_duplicates = 20;
  spec.seed = 43;
  GeneratedWorkload workload = GenerateWorkload(spec);
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "dbl", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  db->ctx()->set_hash_memory_bytes(2 * 1024);

  auto plain = Divide(db->ctx(), query, DivisionAlgorithm::kHashDivision);
  ASSERT_FALSE(plain.ok());
  EXPECT_TRUE(plain.status().IsResourceExhausted());

  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
  DivisionOptions div_options;
  div_options.partition_strategy = PartitionStrategy::kDivisor;
  div_options.num_partitions = 2;
  PartitionedHashDivisionOperator op(db->ctx(), resolved, div_options);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(&op));
  EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient);
  GaugeList gauges;
  op.ExportGauges(&gauges);
  std::map<std::string, double> gauge;
  for (const auto& [name, value] : gauges) gauge[name] = value;
  EXPECT_GT(gauge[metric_names::kGaugeDivisorSplits], 0.0);
  EXPECT_GT(gauge[metric_names::kGaugeRepartitions], 0.0);
  EXPECT_EQ(gauge[metric_names::kGaugeEscalations], 0.0);
}

TEST_F(PartitionedDivisionTest, QuotientOverflowSplitsOnlyTheQuotientCluster) {
  // The divisor clusters fit 24 KiB, but every phase's quotient table and
  // the collector (one entry per candidate that completed some divisor
  // cluster, which no partition count shrinks) do not. Only the table
  // that overflowed is split: the dividend clusters and the tagged
  // quotient file split on the quotient attrs; no divisor cluster splits.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  Relation dividend, divisor;
  std::vector<Tuple> expected;
  LoadBig(db.get(), &dividend, &divisor, &expected);
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved,
                       ResolveDivision(
                           DivisionQuery{dividend, divisor, {"divisor_id"}}));
  DivisionOptions div_options;
  div_options.partition_strategy = PartitionStrategy::kDivisor;
  div_options.num_partitions = 2;
  db->ctx()->set_hash_memory_bytes(24 * 1024);
  PartitionedHashDivisionOperator op(db->ctx(), resolved, div_options);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&op));
  EXPECT_EQ(Sorted(std::move(out)), expected);
  EXPECT_GT(op.repartitions(), 0u);
  EXPECT_EQ(op.divisor_splits(), 0u);
}

// Pins the operator's observable behaviour: for each strategy, and under
// hash budgets that force each overflow recovery (a quotient split, the
// fall from quotient to divisor partitioning, a divisor split), the
// quotient in emission order, the Table 1 counters, the disk transfers and
// the recovery gauges. The run is serial (dop 1) so the transfers follow
// one schedule, and each case gets a fresh database with a 64 KiB pool, so
// spill files really reach the disk.
TEST_F(PartitionedDivisionTest, GoldenRunsPinEveryStrategyAndRecovery) {
  struct Case {
    const char* name;
    PartitionStrategy strategy;
    size_t num_partitions;
    size_t hash_memory_bytes;
    std::vector<int64_t> quotient;  // quotient_id in emission order
    CpuCounters counters;
    uint64_t read_transfers;
    uint64_t write_transfers;
    uint64_t seeks;
    double phases_run, repartitions, escalations, divisor_splits;
  };
  const Case cases[] = {
      {"quotient", PartitionStrategy::kQuotient, 4, 0,
       {8, 7, 5, 9, 1, 6, 3, 4, 2, 0}, {534, 655, 0, 289}, 2, 0, 2,
       4, 0, 0, 0},
      {"quotient+repartition", PartitionStrategy::kQuotient, 4, 800,
       {8, 7, 5, 9, 6, 1, 0, 4, 2, 3}, {1095, 1734, 0, 410}, 4, 14, 18,
       12, 8, 0, 0},
      {"quotient+escalation", PartitionStrategy::kQuotient, 4, 500,
       {6, 9, 5, 8, 7, 0, 1, 4, 2, 3}, {2420, 5152, 0, 918}, 19, 120, 139,
       42, 64, 1, 0},
      {"divisor", PartitionStrategy::kDivisor, 2, 0,
       {3, 6, 2, 4, 5, 1, 7, 8, 0, 9}, {499, 735, 0, 424}, 2, 0, 2,
       2, 0, 0, 0},
      {"divisor+repartition", PartitionStrategy::kDivisor, 2, 2800,
       {3, 6, 2, 4, 5, 1, 7, 8, 0, 9}, {804, 1297, 0, 531}, 2, 1, 3,
       3, 1, 0, 0},
      {"divisor+divisor split", PartitionStrategy::kDivisor, 2, 400,
       {9, 6, 8, 5, 7, 0, 1, 4, 2, 3}, {2705, 6216, 0, 992}, 18, 147, 165,
       51, 79, 0, 1},
  };
  WorkloadSpec spec;
  spec.divisor_cardinality = 8;
  spec.quotient_candidates = 40;
  spec.candidate_completeness = 0.25;
  spec.nonmatching_tuples = 10;
  spec.dividend_duplicates = 5;
  spec.seed = 23;
  const GeneratedWorkload workload = GenerateWorkload(spec);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DatabaseOptions options;
    options.pool_bytes = 64 * 1024;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         Database::Open(options));
    Relation dividend, divisor;
    ASSERT_OK(LoadWorkload(db.get(), workload, "g", &dividend, &divisor));
    ASSERT_OK(db->buffer_manager()->FlushAll());
    ASSERT_OK(db->buffer_manager()->DropAll());
    ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved,
                         ResolveDivision(DivisionQuery{
                             dividend, divisor, {"divisor_id"}}));
    ExecContext* ctx = db->ctx();
    ctx->set_dop(1);
    ctx->set_hash_memory_bytes(c.hash_memory_bytes);
    DivisionOptions div_options;
    div_options.partition_strategy = c.strategy;
    div_options.num_partitions = c.num_partitions;
    const CpuCounters cpu_before = *ctx->counters();
    const DiskStats io_before = ctx->disk()->stats();
    PartitionedHashDivisionOperator op(ctx, resolved, div_options);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(&op));
    const CpuCounters cpu = *ctx->counters() - cpu_before;
    const DiskStats io = ctx->disk()->stats() - io_before;

    std::vector<int64_t> ids;
    for (const Tuple& tuple : quotient) ids.push_back(tuple.value(0).int64());
    EXPECT_EQ(ids, c.quotient);
    EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient);
    EXPECT_EQ(cpu.comparisons, c.counters.comparisons);
    EXPECT_EQ(cpu.hashes, c.counters.hashes);
    EXPECT_EQ(cpu.moves, c.counters.moves);
    EXPECT_EQ(cpu.bit_ops, c.counters.bit_ops);
    EXPECT_EQ(io.read_transfers, c.read_transfers);
    EXPECT_EQ(io.write_transfers, c.write_transfers);
    EXPECT_EQ(io.seeks, c.seeks);
    GaugeList gauges;
    op.ExportGauges(&gauges);
    const GaugeList expected_gauges = {
        {metric_names::kGaugePhasesRun, c.phases_run},
        {metric_names::kGaugeRepartitions, c.repartitions},
        {metric_names::kGaugeEscalations, c.escalations},
        {metric_names::kGaugeDivisorSplits, c.divisor_splits}};
    EXPECT_EQ(gauges, expected_gauges);
  }
}

TEST_F(PartitionedDivisionTest, SinglePartitionDegeneratesToPlain) {
  DatabaseOptions options;
  options.pool_bytes = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  GeneratedWorkload workload = GenerateWorkload(PaperCell(5, 7));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "w", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    DivisionOptions div_options;
    div_options.partition_strategy = strategy;
    div_options.num_partitions = 1;
    ASSERT_OK_AND_ASSIGN(
        std::vector<Tuple> quotient,
        Divide(db->ctx(), query, DivisionAlgorithm::kHashDivisionPartitioned,
               div_options));
    EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient);
  }
}

}  // namespace
}  // namespace reldiv
