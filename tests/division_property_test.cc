#include <memory>
#include <sstream>

#include "division/division.h"
#include "exec/database.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

/// One randomized configuration exercised against every algorithm.
struct PropertyCase {
  uint64_t divisor_cardinality;
  uint64_t quotient_candidates;
  double completeness;
  uint64_t nonmatching;
  uint64_t dividend_duplicates;
  uint64_t divisor_duplicates;
  uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
  return os << "S" << c.divisor_cardinality << "_Q" << c.quotient_candidates
            << "_c" << static_cast<int>(c.completeness * 100) << "_n"
            << c.nonmatching << "_dd" << c.dividend_duplicates << "_sd"
            << c.divisor_duplicates << "_seed" << c.seed;
}

class DivisionPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(DivisionPropertyTest, AllAlgorithmsMatchReference) {
  const PropertyCase& c = GetParam();
  WorkloadSpec spec;
  spec.divisor_cardinality = c.divisor_cardinality;
  spec.quotient_candidates = c.quotient_candidates;
  spec.candidate_completeness = c.completeness;
  spec.nonmatching_tuples = c.nonmatching;
  spec.dividend_duplicates = c.dividend_duplicates;
  spec.divisor_duplicates = c.divisor_duplicates;
  spec.seed = c.seed;
  GeneratedWorkload workload = GenerateWorkload(spec);

  // Generator self-check: its ground truth must equal brute force.
  const std::vector<Tuple> reference =
      ReferenceDivision(workload.dividend, workload.divisor, {1}, {0});
  ASSERT_EQ(reference, workload.expected_quotient);

  DatabaseOptions options;
  options.pool_bytes = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "prop", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};

  const bool has_foreign_tuples = c.nonmatching > 0;
  const bool has_duplicates =
      c.dividend_duplicates > 0 || c.divisor_duplicates > 0;

  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kNaive, DivisionAlgorithm::kSortAggregate,
        DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregate,
        DivisionAlgorithm::kHashAggregateWithJoin,
        DivisionAlgorithm::kHashDivision,
        DivisionAlgorithm::kHashDivisionPartitioned}) {
    const bool no_join_aggregation =
        algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate;
    if (no_join_aggregation && has_foreign_tuples) {
      continue;  // precondition violated by design (§2.2)
    }
    const bool aggregation_family =
        no_join_aggregation ||
        algorithm == DivisionAlgorithm::kSortAggregateWithJoin ||
        algorithm == DivisionAlgorithm::kHashAggregateWithJoin;
    DivisionOptions div_options;
    div_options.eliminate_duplicates = aggregation_family && has_duplicates;
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db->ctx(), query, algorithm, div_options));
    EXPECT_EQ(Sorted(std::move(quotient)), reference)
        << DivisionAlgorithmName(algorithm);
  }
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  const std::pair<uint64_t, uint64_t> sizes[] = {
      {1, 1}, {2, 3}, {5, 5}, {13, 7}, {10, 20}, {40, 25}};
  const double completeness[] = {1.0, 0.6, 0.0};
  const uint64_t nonmatching[] = {0, 17};
  const uint64_t duplicates[] = {0, 11};
  uint64_t seed = 1;
  for (auto [s, q] : sizes) {
    for (double comp : completeness) {
      for (uint64_t nm : nonmatching) {
        for (uint64_t dup : duplicates) {
          cases.push_back(PropertyCase{s, q, comp, nm, dup, dup / 2, seed++});
        }
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::ostringstream os;
  os << info.param;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(Sweep, DivisionPropertyTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

/// The early-output form and every partitioning strategy must also match
/// the reference.
class HashDivisionVariantTest : public ::testing::TestWithParam<PropertyCase> {
};

TEST_P(HashDivisionVariantTest, VariantsMatchReference) {
  const PropertyCase& c = GetParam();
  WorkloadSpec spec;
  spec.divisor_cardinality = c.divisor_cardinality;
  spec.quotient_candidates = c.quotient_candidates;
  spec.candidate_completeness = c.completeness;
  spec.nonmatching_tuples = c.nonmatching;
  spec.dividend_duplicates = c.dividend_duplicates;
  spec.divisor_duplicates = c.divisor_duplicates;
  spec.seed = c.seed;
  GeneratedWorkload workload = GenerateWorkload(spec);

  DatabaseOptions options;
  options.pool_bytes = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "var", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};

  {
    DivisionOptions early;
    early.early_output = true;
    ASSERT_OK_AND_ASSIGN(
        std::vector<Tuple> quotient,
        Divide(db->ctx(), query, DivisionAlgorithm::kHashDivision, early));
    EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient);
  }
  // Both partitioning strategies, several partition counts.
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    for (size_t partitions : {1, 3, 8}) {
      DivisionOptions part;
      part.partition_strategy = strategy;
      part.num_partitions = partitions;
      ASSERT_OK_AND_ASSIGN(
          std::vector<Tuple> quotient,
          Divide(db->ctx(), query,
                 DivisionAlgorithm::kHashDivisionPartitioned, part));
      EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient)
          << static_cast<int>(strategy) << " partitioning, " << partitions
          << " partitions";
    }
  }
}

std::vector<PropertyCase> MakeVariantCases() {
  return {
      {5, 5, 1.0, 0, 0, 0, 101},   {8, 16, 0.5, 9, 0, 0, 102},
      {16, 8, 0.25, 5, 7, 3, 103}, {1, 40, 0.5, 3, 4, 0, 104},
      {32, 32, 0.75, 21, 13, 5, 105},
  };
}

INSTANTIATE_TEST_SUITE_P(Variants, HashDivisionVariantTest,
                         ::testing::ValuesIn(MakeVariantCases()), CaseName);

}  // namespace
}  // namespace reldiv
