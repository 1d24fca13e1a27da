#include "division/partitioned_hash_division.h"

#include <memory>

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

TEST_F(PartitionedDivisionTest, CombinedStrategyMatchesReference) {
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
  ASSERT_OK(LoadWorkload(db.get(), workload, "comb", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  for (size_t divisor_parts : {1, 3, 6}) {
    for (size_t quotient_parts : {0, 1, 5}) {  // 0 = default
      DivisionOptions div_options;
      div_options.partition_strategy = PartitionStrategy::kCombined;
      div_options.num_partitions = divisor_parts;
      div_options.num_quotient_subpartitions = quotient_parts;
      ASSERT_OK_AND_ASSIGN(
          std::vector<Tuple> quotient,
          Divide(db->ctx(), query,
                 DivisionAlgorithm::kHashDivisionPartitioned, div_options));
      EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient)
          << divisor_parts << "x" << quotient_parts;
    }
  }
}

TEST_F(PartitionedDivisionTest, CombinedStrategyResolvesDoubleOverflow) {
  // Divisor and quotient tables together far exceed the budget, so plain
  // hash-division must overflow; the combined strategy shrinks both tables
  // (divisor clusters outside, quotient sub-clusters inside) and completes.
  WorkloadSpec spec;
  spec.divisor_cardinality = 1500;
  spec.quotient_candidates = 1500;
  spec.candidate_completeness = 0.3;
  spec.seed = 42;
  GeneratedWorkload workload = GenerateWorkload(spec);

  auto run = [&](DivisionAlgorithm algorithm,
                 PartitionStrategy strategy) -> Result<std::vector<Tuple>> {
    DatabaseOptions options;
    options.pool_bytes = 160 * 1024;
    RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                            Database::Open(options));
    Relation dividend, divisor;
    RELDIV_RETURN_NOT_OK(
        LoadWorkload(db.get(), workload, "dbl", &dividend, &divisor));
    DivisionQuery query{dividend, divisor, {"divisor_id"}};
    DivisionOptions div_options;
    div_options.partition_strategy = strategy;
    div_options.num_partitions = 24;
    div_options.num_quotient_subpartitions = 24;
    return Divide(db->ctx(), query, algorithm, div_options);
  };

  auto plain = run(DivisionAlgorithm::kHashDivision,
                   PartitionStrategy::kQuotient);
  ASSERT_FALSE(plain.ok());  // both tables at once bust the budget
  EXPECT_TRUE(plain.status().IsResourceExhausted());

  auto combined = run(DivisionAlgorithm::kHashDivisionPartitioned,
                      PartitionStrategy::kCombined);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  EXPECT_EQ(Sorted(combined.MoveValue()), workload.expected_quotient);
}

TEST_F(PartitionedDivisionTest, CollectionOverflowSplitsInsteadOfRestarting) {
  // Every combined phase fits 24 KiB once its dividend is sub-partitioned,
  // but the collector holds one entry per candidate that completed some
  // divisor cluster, which no partition count shrinks: restarting with
  // doubled partitions would only redo the whole run. The collection phase
  // splits the tagged file on the quotient attrs instead.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  Relation dividend, divisor;
  std::vector<Tuple> expected;
  LoadBig(db.get(), &dividend, &divisor, &expected);
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved,
                       ResolveDivision(
                           DivisionQuery{dividend, divisor, {"divisor_id"}}));
  DivisionOptions div_options;
  div_options.partition_strategy = PartitionStrategy::kCombined;
  div_options.num_partitions = 2;
  div_options.num_quotient_subpartitions = 2;
  db->ctx()->set_hash_memory_bytes(24 * 1024);
  PartitionedHashDivisionOperator op(db->ctx(), resolved, div_options);
  Result<std::vector<Tuple>> out = CollectAll(&op);
  ASSERT_TRUE(out.ok()) << out.status().ToString() << " after "
                        << op.restarts() << " restarts";
  EXPECT_EQ(Sorted(out.MoveValue()), expected);
  EXPECT_EQ(op.restarts(), 0u);
}

TEST_F(PartitionedDivisionTest, RangePartitioningMatchesHashPartitioning) {
  DatabaseOptions options;
  options.pool_bytes = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  WorkloadSpec spec;
  spec.divisor_cardinality = 12;
  spec.quotient_candidates = 90;
  spec.candidate_completeness = 0.4;
  spec.nonmatching_tuples = 40;
  spec.dividend_duplicates = 10;
  spec.seed = 33;
  GeneratedWorkload workload = GenerateWorkload(spec);
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "rng", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    for (size_t partitions : {1, 4, 9}) {
      DivisionOptions div_options;
      div_options.partition_strategy = strategy;
      div_options.partition_function = PartitionFunction::kRange;
      div_options.num_partitions = partitions;
      ASSERT_OK_AND_ASSIGN(
          std::vector<Tuple> quotient,
          Divide(db->ctx(), query,
                 DivisionAlgorithm::kHashDivisionPartitioned, div_options));
      EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient)
          << (strategy == PartitionStrategy::kQuotient ? "quotient"
                                                       : "divisor")
          << " range partitioning, " << partitions << " partitions";
    }
  }
}

TEST_F(PartitionedDivisionTest, RangePartitioningRejectsNonIntAttribute) {
  DatabaseOptions options;
  options.pool_bytes = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  Schema dividend_schema{Field{"q", ValueType::kString},
                         Field{"d", ValueType::kInt64}};
  Schema divisor_schema{Field{"d", ValueType::kInt64}};
  ASSERT_OK_AND_ASSIGN(Relation dividend,
                       db->CreateTable("sd", dividend_schema));
  ASSERT_OK_AND_ASSIGN(Relation divisor, db->CreateTable("ss", divisor_schema));
  ASSERT_OK(db->Insert("sd", Tuple{Value::String("x"), Value::Int64(1)}));
  ASSERT_OK(db->Insert("ss", Tuple{Value::Int64(1)}));
  DivisionQuery query{dividend, divisor, {"d"}};
  DivisionOptions div_options;
  div_options.partition_strategy = PartitionStrategy::kQuotient;
  div_options.partition_function = PartitionFunction::kRange;
  auto result = Divide(db->ctx(), query,
                       DivisionAlgorithm::kHashDivisionPartitioned,
                       div_options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
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
