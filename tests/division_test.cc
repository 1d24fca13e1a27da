#include "division/division.h"

#include <memory>

#include "division/hash_division.h"
#include "exec/database.h"
#include "exec/filter.h"
#include "exec/materialize.h"
#include "exec/mem_source.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/university.h"

namespace reldiv {
namespace {

const DivisionAlgorithm kAllAlgorithms[] = {
    DivisionAlgorithm::kNaive,
    DivisionAlgorithm::kSortAggregate,
    DivisionAlgorithm::kSortAggregateWithJoin,
    DivisionAlgorithm::kHashAggregate,
    DivisionAlgorithm::kHashAggregateWithJoin,
    DivisionAlgorithm::kHashDivision,
    DivisionAlgorithm::kHashDivisionPartitioned,
};

class DivisionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;  // unbounded for functional tests
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = db.MoveValue();
  }

  /// Loads tuple batches as tables and returns the query.
  DivisionQuery MakeQuery(const Schema& dividend_schema,
                          const std::vector<Tuple>& dividend,
                          const Schema& divisor_schema,
                          const std::vector<Tuple>& divisor,
                          const std::vector<std::string>& match_attrs) {
    static int counter = 0;
    const std::string prefix = "t" + std::to_string(counter++);
    auto dividend_rel = db_->CreateTable(prefix + "_r", dividend_schema);
    EXPECT_TRUE(dividend_rel.ok());
    auto divisor_rel = db_->CreateTable(prefix + "_s", divisor_schema);
    EXPECT_TRUE(divisor_rel.ok());
    for (const Tuple& t : dividend) {
      EXPECT_OK(db_->Insert(prefix + "_r", t));
    }
    for (const Tuple& t : divisor) {
      EXPECT_OK(db_->Insert(prefix + "_s", t));
    }
    return DivisionQuery{*dividend_rel, *divisor_rel, match_attrs};
  }

  std::unique_ptr<Database> db_;
};

Schema TwoColDividend() {
  return Schema{Field{"q", ValueType::kInt64}, Field{"d", ValueType::kInt64}};
}
Schema OneColDivisor() { return Schema{Field{"d", ValueType::kInt64}}; }

TEST_F(DivisionTest, Figure2ExampleAllAlgorithms) {
  // Figure 2: dividend Transcript(student, course) after projection;
  // divisor = the two database courses. Quotient = (Ann). The (Barb,
  // Optics) tuple matches no divisor tuple, so the no-join aggregation
  // variants are not applicable to this input (they count every tuple —
  // §2.2's reason for the semi-join) and are skipped here.
  const std::vector<Tuple> dividend = {T(100, 1), T(200, 2), T(100, 2),
                                       T(200, 3)};
  const std::vector<Tuple> divisor = {T(1), T(2)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  divisor, {"d"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    if (algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate) {
      continue;
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(100)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, ExampleOneShapeAllAlgorithms) {
  // Example 1 shape: every dividend tuple refers to a divisor tuple, so ALL
  // six algorithm variants apply and agree.
  const std::vector<Tuple> dividend = {T(100, 1), T(200, 2), T(100, 2),
                                       T(200, 1), T(300, 1)};
  const std::vector<Tuple> divisor = {T(1), T(2)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  divisor, {"d"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_EQ(Sorted(std::move(quotient)),
              (std::vector<Tuple>{T(100), T(200)}))
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, EmptyDividendAllAlgorithms) {
  DivisionQuery query = MakeQuery(TwoColDividend(), {}, OneColDivisor(),
                                  {T(1), T(2)}, {"d"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_TRUE(quotient.empty()) << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, EmptyDivisorConventionAllAlgorithms) {
  // Documented convention: empty divisor → empty quotient, uniformly.
  DivisionQuery query = MakeQuery(TwoColDividend(), {T(1, 1), T(2, 2)},
                                  OneColDivisor(), {}, {"d"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_TRUE(quotient.empty()) << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, SingleDivisorTupleMakesEveryMatchingGroupQualify) {
  const std::vector<Tuple> dividend = {T(1, 7), T(2, 7), T(3, 8)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  {T(7)}, {"d"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    if (algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate) {
      continue;  // (3, 8) is a foreign tuple; no-join counting inapplicable
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_EQ(Sorted(std::move(quotient)), (std::vector<Tuple>{T(1), T(2)}))
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, NonMatchingDividendTuplesAreIgnored) {
  // Group 1 has all divisor tuples plus a non-matching one; group 2 only a
  // non-matching one.
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 2), T(1, 99), T(2, 99)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  {T(1), T(2)}, {"d"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    if (algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate) {
      // The no-join aggregation forms count every dividend tuple; they are
      // only correct when all dividend tuples refer to divisor tuples (this
      // is exactly why the with-join variants exist, §2.2).
      continue;
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(1)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, NoJoinAggregationOvercountsOnForeignTuples) {
  // Characterization: without the semi-join, a group can (incorrectly) reach
  // the divisor count using non-matching tuples — the motivating hazard.
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 99)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  {T(1), T(2)}, {"d"});
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> wrong,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashAggregate));
  EXPECT_EQ(wrong, std::vector<Tuple>{T(1)});  // bogus "quotient"
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> right,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashAggregateWithJoin));
  EXPECT_TRUE(right.empty());
}

TEST_F(DivisionTest, HashDivisionIgnoresDividendDuplicatesNatively) {
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 1), T(1, 1), T(2, 1),
                                       T(2, 2)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  {T(1), T(2)}, {"d"});
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> quotient,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(2)});
}

TEST_F(DivisionTest, HashDivisionEliminatesDivisorDuplicatesOnTheFly) {
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 2), T(2, 1)};
  const std::vector<Tuple> divisor = {T(1), T(2), T(1), T(2), T(2)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  divisor, {"d"});
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> quotient,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(1)});
}

TEST_F(DivisionTest, NaiveDivisionToleratesDuplicatesViaSortDupElim) {
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 1), T(1, 2), T(2, 1)};
  const std::vector<Tuple> divisor = {T(1), T(2), T(2)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  divisor, {"d"});
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                       Divide(db_->ctx(), query, DivisionAlgorithm::kNaive));
  EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(1)});
}

TEST_F(DivisionTest, AggregationFamilyWithEliminateDuplicatesOption) {
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 1), T(1, 2), T(2, 1),
                                       T(2, 1)};
  const std::vector<Tuple> divisor = {T(1), T(2), T(1)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  divisor, {"d"});
  DivisionOptions options;
  options.eliminate_duplicates = true;
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kSortAggregate,
        DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregate,
        DivisionAlgorithm::kHashAggregateWithJoin}) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm, options));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(1)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, CountDistinctHandlesDuplicatesWithoutPrePass) {
  // Footnote 1: "a duplicate elimination step is explicitly requested" —
  // with count_distinct, the aggregation strategies tolerate duplicate
  // inputs directly.
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 1), T(1, 2), T(2, 1),
                                       T(2, 1), T(2, 1)};
  const std::vector<Tuple> divisor = {T(1), T(2), T(1)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  divisor, {"d"});
  DivisionOptions options;
  options.count_distinct = true;
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kSortAggregate,
        DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregate,
        DivisionAlgorithm::kHashAggregateWithJoin}) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm, options));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(1)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, CountDistinctAlsoCorrectOnCleanInputs) {
  const std::vector<Tuple> dividend = {T(1, 1), T(1, 2), T(2, 2)};
  DivisionQuery query = MakeQuery(TwoColDividend(), dividend, OneColDivisor(),
                                  {T(1), T(2)}, {"d"});
  DivisionOptions options;
  options.count_distinct = true;
  for (DivisionAlgorithm algorithm : {DivisionAlgorithm::kSortAggregate,
                                      DivisionAlgorithm::kHashAggregate}) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm, options));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(1)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, CountDistinctSupportsMultiColumnDivisors) {
  Schema dividend_schema{
      Field{"q", ValueType::kInt64}, Field{"d1", ValueType::kInt64},
      Field{"d2", ValueType::kInt64}};
  Schema divisor_schema{Field{"d1", ValueType::kInt64},
                        Field{"d2", ValueType::kInt64}};
  // Group 1 covers both composite divisor values (one of them twice);
  // group 2 covers only one.
  std::vector<Tuple> dividend = {T(1, 5, 6), T(1, 5, 6), T(1, 7, 8),
                                 T(2, 5, 6), T(2, 5, 6)};
  std::vector<Tuple> divisor = {T(5, 6), T(7, 8), T(5, 6)};
  DivisionQuery query = MakeQuery(dividend_schema, dividend, divisor_schema,
                                  divisor, {"d1", "d2"});
  DivisionOptions options;
  options.count_distinct = true;
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kSortAggregate, DivisionAlgorithm::kHashAggregate,
        DivisionAlgorithm::kHashAggregateWithJoin}) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm, options));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(1)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, MultiColumnQuotientAndDivisorAttributes) {
  // dividend(q1, q2, d1, d2) ÷ divisor(d1, d2); quotient = (q1, q2).
  Schema dividend_schema{
      Field{"q1", ValueType::kInt64}, Field{"q2", ValueType::kInt64},
      Field{"d1", ValueType::kInt64}, Field{"d2", ValueType::kInt64}};
  Schema divisor_schema{Field{"d1", ValueType::kInt64},
                        Field{"d2", ValueType::kInt64}};
  std::vector<Tuple> dividend = {
      Tuple{Value::Int64(1), Value::Int64(1), Value::Int64(5),
            Value::Int64(6)},
      Tuple{Value::Int64(1), Value::Int64(1), Value::Int64(7),
            Value::Int64(8)},
      Tuple{Value::Int64(1), Value::Int64(2), Value::Int64(5),
            Value::Int64(6)},
  };
  std::vector<Tuple> divisor = {T(5, 6), T(7, 8)};
  DivisionQuery query = MakeQuery(dividend_schema, dividend, divisor_schema,
                                  divisor, {"d1", "d2"});
  const Tuple expected{Value::Int64(1), Value::Int64(1)};
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    ASSERT_EQ(quotient.size(), 1u) << DivisionAlgorithmName(algorithm);
    EXPECT_EQ(quotient[0], expected) << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, MatchAttributeBeforeQuotientAttribute) {
  // Dividend declared as (d, q): the quotient attr is the SECOND column.
  Schema dividend_schema{Field{"d", ValueType::kInt64},
                         Field{"q", ValueType::kInt64}};
  std::vector<Tuple> dividend = {T(1, 100), T(2, 100), T(1, 200)};
  DivisionQuery query = MakeQuery(dividend_schema, dividend, OneColDivisor(),
                                  {T(1), T(2)}, {"d"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(100)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, NonAdjacentMatchAttributes) {
  // Dividend (d1, q, d2): divisor columns straddle the quotient column.
  Schema dividend_schema{Field{"d1", ValueType::kInt64},
                         Field{"q", ValueType::kInt64},
                         Field{"d2", ValueType::kInt64}};
  Schema divisor_schema{Field{"d1", ValueType::kInt64},
                        Field{"d2", ValueType::kInt64}};
  std::vector<Tuple> dividend = {T(1, 100, 10), T(2, 100, 20),
                                 T(1, 200, 10)};
  std::vector<Tuple> divisor = {T(1, 10), T(2, 20)};
  DivisionQuery query = MakeQuery(dividend_schema, dividend, divisor_schema,
                                  divisor, {"d1", "d2"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    EXPECT_EQ(Sorted(std::move(quotient)), std::vector<Tuple>{T(100)})
        << DivisionAlgorithmName(algorithm);
  }
}

TEST_F(DivisionTest, StringValuedAttributes) {
  Schema dividend_schema{Field{"student", ValueType::kString},
                         Field{"course", ValueType::kString}};
  Schema divisor_schema{Field{"course", ValueType::kString}};
  auto row = [](const char* a, const char* b) {
    return Tuple{Value::String(a), Value::String(b)};
  };
  std::vector<Tuple> dividend = {row("Ann", "Database1"),
                                 row("Barb", "Database2"),
                                 row("Ann", "Database2"),
                                 row("Barb", "Optics")};
  std::vector<Tuple> divisor = {Tuple{Value::String("Database1")},
                                Tuple{Value::String("Database2")}};
  DivisionQuery query = MakeQuery(dividend_schema, dividend, divisor_schema,
                                  divisor, {"course"});
  for (DivisionAlgorithm algorithm : kAllAlgorithms) {
    if (algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate) {
      continue;  // (Barb, Optics) is a foreign tuple
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db_->ctx(), query, algorithm));
    ASSERT_EQ(quotient.size(), 1u) << DivisionAlgorithmName(algorithm);
    EXPECT_EQ(quotient[0], Tuple{Value::String("Ann")});
  }
}

TEST_F(DivisionTest, ResolveRejectsArityMismatch) {
  DivisionQuery query = MakeQuery(TwoColDividend(), {}, OneColDivisor(), {},
                                  {});  // zero match attrs vs 1-col divisor
  auto result = ResolveDivision(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(DivisionTest, ResolveRejectsTypeMismatch) {
  Schema dividend_schema{Field{"q", ValueType::kInt64},
                         Field{"d", ValueType::kString}};
  DivisionQuery query = MakeQuery(dividend_schema, {}, OneColDivisor(), {},
                                  {"d"});
  auto result = ResolveDivision(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(DivisionTest, ResolveRejectsAllColumnsMatched) {
  Schema dividend_schema{Field{"d", ValueType::kInt64}};
  DivisionQuery query =
      MakeQuery(dividend_schema, {}, OneColDivisor(), {}, {"d"});
  auto result = ResolveDivision(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(DivisionTest, ResolveRejectsUnknownAttribute) {
  DivisionQuery query = MakeQuery(TwoColDividend(), {}, OneColDivisor(), {},
                                  {"nope"});
  auto result = ResolveDivision(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(DivisionTest, EarlyOutputProducesIdenticalQuotient) {
  GeneratedWorkload workload = GenerateWorkload([] {
    WorkloadSpec spec;
    spec.divisor_cardinality = 10;
    spec.quotient_candidates = 30;
    spec.candidate_completeness = 0.5;
    spec.nonmatching_tuples = 20;
    return spec;
  }());
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "early", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};

  DivisionOptions early;
  early.early_output = true;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> eager,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision, early));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> blocking,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  EXPECT_EQ(Sorted(std::move(eager)), Sorted(std::move(blocking)));
  EXPECT_EQ(Sorted(workload.expected_quotient).size(),
            workload.expected_quotient.size());
}

TEST_F(DivisionTest, EarlyOutputEmitsBeforeInputExhausted) {
  // With early output, the first quotient tuple must be available after the
  // operator has consumed only the completing dividend tuple — verified by
  // pulling one tuple at a time from a dividend read one tuple at a time.
  Schema dividend_schema = TwoColDividend();
  std::vector<Tuple> dividend = {T(1, 1), T(1, 2),   // completes candidate 1
                                 T(2, 1), T(2, 2)};  // completes candidate 2
  auto divisor_source = std::make_unique<MemSourceOperator>(
      OneColDivisor(), std::vector<Tuple>{T(1), T(2)});
  auto dividend_source =
      std::make_unique<MemSourceOperator>(dividend_schema, dividend);

  db_->ctx()->set_batch_capacity(1);
  DivisionOptions options;
  options.early_output = true;
  HashDivisionOperator op(db_->ctx(), std::move(dividend_source),
                          std::move(divisor_source), {1}, {0}, options);
  ASSERT_OK(op.Open());
  TupleBatch batch(1);
  bool has_more = false;
  ASSERT_OK(op.NextBatch(&batch, &has_more));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.tuple(0), T(1));
  EXPECT_TRUE(has_more);  // produced before tuples of candidate 2 arrived
  ASSERT_OK(op.NextBatch(&batch, &has_more));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.tuple(0), T(2));
  EXPECT_FALSE(has_more);
  ASSERT_OK(op.Close());
}

TEST_F(DivisionTest, CounterVariantMatchesOnDuplicateFreeDividend) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(8, 12));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "ctr", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  DivisionOptions options;
  options.counters_instead_of_bitmaps = true;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> quotient,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision, options));
  EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient);
}

TEST_F(DivisionTest, UniversityExampleOneStudentsWithAllCourses) {
  ASSERT_OK_AND_ASSIGN(UniversityTables tables,
                       LoadUniversity(db_.get(), UniversitySpec{}));
  // Project Transcript to (student_id, course_no), divide by all course_nos.
  Relation transcript_proj;
  {
    ASSERT_OK_AND_ASSIGN(
        transcript_proj,
        db_->CreateTempTable("transcript_proj",
                             Schema{Field{"student_id", ValueType::kInt64},
                                    Field{"course_no", ValueType::kInt64}}));
    ScanOperator scan(db_->ctx(), tables.transcript);
    ProjectOperator project(
        std::make_unique<ScanOperator>(db_->ctx(), tables.transcript),
        {0, 1});
    ASSERT_OK_AND_ASSIGN(uint64_t n,
                         Materialize(&project, transcript_proj.store));
    EXPECT_GT(n, 0u);
  }
  Relation course_nos;
  {
    ASSERT_OK_AND_ASSIGN(
        course_nos,
        db_->CreateTempTable("course_nos",
                             Schema{Field{"course_no", ValueType::kInt64}}));
    ProjectOperator project(
        std::make_unique<ScanOperator>(db_->ctx(), tables.courses), {0});
    ASSERT_OK_AND_ASSIGN(uint64_t n, Materialize(&project, course_nos.store));
    EXPECT_EQ(n, 12u);
  }
  DivisionQuery query{transcript_proj, course_nos, {"course_no"}};
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> quotient,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  // Students 0 and 1 take every course (UniversitySpec defaults).
  EXPECT_EQ(Sorted(std::move(quotient)), (std::vector<Tuple>{T(0), T(1)}));
}

TEST_F(DivisionTest, UniversityExampleTwoDatabaseCourses) {
  ASSERT_OK_AND_ASSIGN(UniversityTables tables,
                       LoadUniversity(db_.get(), UniversitySpec{}));
  // Divisor: course_nos of courses whose title contains "Database".
  Relation db_courses;
  ASSERT_OK_AND_ASSIGN(
      db_courses,
      db_->CreateTempTable("db_courses",
                           Schema{Field{"course_no", ValueType::kInt64}}));
  {
    auto select = std::make_unique<FilterOperator>(
        std::make_unique<ScanOperator>(db_->ctx(), tables.courses),
        [](const Tuple& t) {
          return t.value(1).string_value().find("Database") !=
                 std::string::npos;
        });
    ProjectOperator project(std::move(select), {0});
    ASSERT_OK_AND_ASSIGN(uint64_t n, Materialize(&project, db_courses.store));
    EXPECT_EQ(n, 3u);
  }
  Relation transcript_proj;
  {
    ASSERT_OK_AND_ASSIGN(
        transcript_proj,
        db_->CreateTempTable("transcript_proj2",
                             Schema{Field{"student_id", ValueType::kInt64},
                                    Field{"course_no", ValueType::kInt64}}));
    ProjectOperator project(
        std::make_unique<ScanOperator>(db_->ctx(), tables.transcript),
        {0, 1});
    ASSERT_OK_AND_ASSIGN(uint64_t n,
                         Materialize(&project, transcript_proj.store));
    EXPECT_GT(n, 0u);
  }
  DivisionQuery query{transcript_proj, db_courses, {"course_no"}};
  // The restricted-divisor case: semi-join variants and hash-division must
  // agree (Transcript now contains tuples outside the divisor).
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> hd,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> hj,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashAggregateWithJoin));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> sj,
      Divide(db_->ctx(), query, DivisionAlgorithm::kSortAggregateWithJoin));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> nv,
                       Divide(db_->ctx(), query, DivisionAlgorithm::kNaive));
  std::vector<Tuple> expected = Sorted(std::move(hd));
  EXPECT_EQ(expected.size(), 6u);  // db_students default
  EXPECT_EQ(Sorted(std::move(hj)), expected);
  EXPECT_EQ(Sorted(std::move(sj)), expected);
  EXPECT_EQ(Sorted(std::move(nv)), expected);
}

}  // namespace
}  // namespace reldiv
