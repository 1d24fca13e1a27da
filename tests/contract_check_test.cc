// Tests for the correctness-tooling layer: the RELDIV_CHECK framework
// (common/check.h) and the ContractCheckOperator (exec/contract_check.h),
// including deliberately broken operators that violate the protocol
// documented on exec/operator.h in distinct ways — each must be caught.

#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "division/division.h"
#include "exec/contract_check.h"
#include "exec/database.h"
#include "exec/mem_source.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

// ---------------------------------------------------------------------------
// RELDIV_CHECK framework
// ---------------------------------------------------------------------------

std::string* g_last_check_message = nullptr;

void ThrowingHandler(const char* file, int line, const std::string& message) {
  (void)file;
  (void)line;
  if (g_last_check_message != nullptr) *g_last_check_message = message;
  throw std::runtime_error(message);
}

/// Swaps in a handler that throws (instead of aborting) so a test can
/// assert that a check fires; restores the previous handler on scope exit.
class ScopedThrowingCheckHandler {
 public:
  ScopedThrowingCheckHandler() : previous_(SetCheckFailureHandler(&ThrowingHandler)) {
    g_last_check_message = &message_;
  }
  ~ScopedThrowingCheckHandler() {
    g_last_check_message = nullptr;
    SetCheckFailureHandler(previous_);
  }
  const std::string& message() const { return message_; }

 private:
  CheckFailureHandler previous_;
  std::string message_;
};

TEST(CheckFrameworkTest, PassingChecksAreSilent) {
  ScopedThrowingCheckHandler guard;
  RELDIV_CHECK(1 + 1 == 2);
  RELDIV_CHECK_EQ(4, 4);
  RELDIV_CHECK_NE(4, 5);
  RELDIV_CHECK_LT(4, 5);
  RELDIV_CHECK_LE(5, 5);
  RELDIV_CHECK_GT(5, 4);
  RELDIV_CHECK_GE(5, 5);
  EXPECT_EQ(guard.message(), "");
}

TEST(CheckFrameworkTest, FailingCheckReportsConditionAndStreamedContext) {
  ScopedThrowingCheckHandler guard;
  const int divisor_count = 3;
  EXPECT_THROW(RELDIV_CHECK(divisor_count == 4) << "ctx " << 42,
               std::runtime_error);
  EXPECT_NE(guard.message().find("divisor_count == 4"), std::string::npos);
  EXPECT_NE(guard.message().find("ctx 42"), std::string::npos);
}

TEST(CheckFrameworkTest, BinaryCheckReportsBothOperandValues) {
  ScopedThrowingCheckHandler guard;
  const size_t width = 64, count = 65;
  EXPECT_THROW(RELDIV_CHECK_EQ(width, count) << "width mismatch",
               std::runtime_error);
  EXPECT_NE(guard.message().find("64 vs. 65"), std::string::npos);
  EXPECT_NE(guard.message().find("width mismatch"), std::string::npos);
}

TEST(CheckFrameworkTest, BinaryCheckEvaluatesOperandsOnce) {
  ScopedThrowingCheckHandler guard;
  int evaluations = 0;
  auto once = [&evaluations] { return ++evaluations; };
  RELDIV_CHECK_GE(once(), 1);
  EXPECT_EQ(evaluations, 1);
}

TEST(CheckFrameworkTest, ChecksNestCorrectlyInDanglingElsePositions) {
  ScopedThrowingCheckHandler guard;
  bool took_else = false;
  if (false)
    RELDIV_CHECK_EQ(1, 2) << "never evaluated";
  else
    took_else = true;
  EXPECT_TRUE(took_else);
}

#if RELDIV_DEBUG_CHECKS
TEST(CheckFrameworkTest, DebugChecksFireWhenEnabled) {
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(RELDIV_DCHECK_LT(2, 1), std::runtime_error);
}
#else
TEST(CheckFrameworkTest, DebugChecksCompileOutWithoutEvaluating) {
  int evaluations = 0;
  auto once = [&evaluations] { return ++evaluations; };
  RELDIV_DCHECK_EQ(once(), 999) << "disabled";
  EXPECT_EQ(evaluations, 0);
}
#endif

// ---------------------------------------------------------------------------
// Deliberately broken operators
// ---------------------------------------------------------------------------

Schema TwoInt() {
  return Schema{Field{"a", ValueType::kInt64}, Field{"b", ValueType::kInt64}};
}

/// Base for the broken mocks: a well-behaved two-column source of `n` rows
/// whose misbehavior is switched on by each subclass.
class MockSource : public Operator {
 public:
  explicit MockSource(size_t n) : schema_(TwoInt()), n_(n) {}
  const Schema& output_schema() const override { return schema_; }
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    batch->Clear();
    while (!batch->full() && pos_ < n_) batch->PushBack(MakeTuple(pos_++));
    *has_more = pos_ < n_;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

 protected:
  virtual Tuple MakeTuple(size_t i) {
    return T(static_cast<int64_t>(i), static_cast<int64_t>(i));
  }
  Schema schema_;
  size_t n_;
  size_t pos_ = 0;
};

/// Violation: emits tuples of the wrong arity (three columns against a
/// two-column schema).
class WrongArityOperator : public MockSource {
 public:
  using MockSource::MockSource;

 protected:
  Tuple MakeTuple(size_t i) override {
    return T(static_cast<int64_t>(i), 0, 0);
  }
};

/// Violation: right arity, wrong column type (string in an int64 column).
class WrongTypeOperator : public MockSource {
 public:
  using MockSource::MockSource;

 protected:
  Tuple MakeTuple(size_t) override {
    return Tuple{Value::Int64(1), Value::String("oops")};
  }
};

/// Violation: NextBatch re-dimensions the caller's batch and overfills it
/// beyond the capacity the caller asked for.
class BatchOverflowOperator : public MockSource {
 public:
  using MockSource::MockSource;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    const size_t requested = batch->capacity();
    batch->ResetCapacity(requested * 2);
    for (size_t i = 0; i <= requested; ++i) batch->PushBack(T(1, 1));
    *has_more = false;
    return Status::OK();
  }
};

/// Violation: rewinds a Table 1 CPU counter mid-stream (models a wild write
/// or an operator "refunding" work it already reported).
class CounterRewindOperator : public MockSource {
 public:
  CounterRewindOperator(ExecContext* ctx, size_t n)
      : MockSource(n), ctx_(ctx) {}
  Status Open() override {
    ctx_->CountComparisons(16);  // capital to burn on the rewind below
    return MockSource::Open();
  }
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    ctx_->counters()->comparisons -= 1;
    return MockSource::NextBatch(batch, has_more);
  }

 private:
  ExecContext* ctx_;
};

class ContractCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ContractCheckTest, WellBehavedOperatorPassesUntouched) {
  std::vector<Tuple> rows = {T(1, 10), T(2, 20), T(3, 30)};
  ContractCheckOperator checked(
      db_->ctx(), std::make_unique<MemSourceOperator>(TwoInt(), rows),
      "mem-source");
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&checked));
  EXPECT_EQ(out, rows);
  EXPECT_EQ(checked.violations(), 0u);
  // Re-open replays the stream, still without violations.
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> again, CollectAll(&checked));
  EXPECT_EQ(again, rows);
  EXPECT_EQ(checked.violations(), 0u);
}

TEST_F(ContractCheckTest, CatchesPullWithoutOpen) {
  ContractCheckOperator checked(db_->ctx(), std::make_unique<MockSource>(2),
                                "no-open");
  TupleBatch batch(4);
  bool more = false;
  Status status = checked.NextBatch(&batch, &more);
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("without a successful Open"),
            std::string::npos);
  EXPECT_EQ(checked.violations(), 1u);
}

TEST_F(ContractCheckTest, CatchesPullAfterEndOfStream) {
  ContractCheckOperator checked(db_->ctx(), std::make_unique<MockSource>(1),
                                "eos");
  ASSERT_OK(checked.Open());
  TupleBatch batch(1);
  bool more = true;
  ASSERT_OK(checked.NextBatch(&batch, &more));  // the single row, then end
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_FALSE(more);
  Status status = checked.NextBatch(&batch, &more);  // illegal second pull
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("after end-of-stream"), std::string::npos);
  EXPECT_EQ(checked.violations(), 1u);
}

TEST_F(ContractCheckTest, CatchesWrongArity) {
  ContractCheckOperator checked(
      db_->ctx(), std::make_unique<WrongArityOperator>(3), "arity");
  Result<std::vector<Tuple>> result = CollectAll(&checked);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("arity"), std::string::npos);
  EXPECT_GE(checked.violations(), 1u);
}

TEST_F(ContractCheckTest, CatchesWrongColumnType) {
  ContractCheckOperator checked(
      db_->ctx(), std::make_unique<WrongTypeOperator>(3), "type");
  Result<std::vector<Tuple>> result = CollectAll(&checked);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("string"), std::string::npos);
}

TEST_F(ContractCheckTest, CatchesBatchCapacityOverflow) {
  ContractCheckOperator checked(
      db_->ctx(), std::make_unique<BatchOverflowOperator>(1), "overflow");
  ASSERT_OK(checked.Open());
  TupleBatch batch(4);
  bool more = false;
  Status status = checked.NextBatch(&batch, &more);
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("capacity"), std::string::npos);
}

TEST_F(ContractCheckTest, CatchesCounterRewind) {
  ContractCheckOperator checked(
      db_->ctx(), std::make_unique<CounterRewindOperator>(db_->ctx(), 3),
      "rewind");
  Result<std::vector<Tuple>> result = CollectAll(&checked);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("counter"), std::string::npos);
}

TEST_F(ContractCheckTest, CatchesUnbalancedClose) {
  ContractCheckOperator checked(db_->ctx(), std::make_unique<MockSource>(1),
                                "close");
  ASSERT_OK(checked.Open());
  ASSERT_OK(checked.Close());
  Status status = checked.Close();
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("Close() after Close()"),
            std::string::npos);
}

TEST_F(ContractCheckTest, MaybeContractCheckFollowsTheContextFlag) {
  std::vector<Tuple> rows = {T(1, 1)};
  EXPECT_FALSE(db_->ctx()->contract_checks());
  auto plain = MaybeContractCheck(
      db_->ctx(), std::make_unique<MemSourceOperator>(TwoInt(), rows), "x");
  EXPECT_EQ(dynamic_cast<ContractCheckOperator*>(plain.get()), nullptr);
  db_->ctx()->set_contract_checks(true);
  auto wrapped = MaybeContractCheck(
      db_->ctx(), std::make_unique<MemSourceOperator>(TwoInt(), rows), "x");
  EXPECT_NE(dynamic_cast<ContractCheckOperator*>(wrapped.get()), nullptr);
  db_->ctx()->set_contract_checks(false);
}

// ---------------------------------------------------------------------------
// All seven division algorithms under contract checking
// ---------------------------------------------------------------------------

TEST_F(ContractCheckTest, AllDivisionAlgorithmsRunCleanUnderContractChecks) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(25, 25));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "cc", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
  const std::vector<Tuple> expected =
      Sorted(ReferenceDivision(workload.dividend, workload.divisor,
                               resolved.match_attrs,
                               resolved.quotient_attrs));

  db_->ctx()->set_contract_checks(true);
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kNaive, DivisionAlgorithm::kSortAggregate,
        DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregate,
        DivisionAlgorithm::kHashAggregateWithJoin,
        DivisionAlgorithm::kHashDivision,
        DivisionAlgorithm::kHashDivisionPartitioned}) {
    SCOPED_TRACE(DivisionAlgorithmName(algorithm));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Operator> plan,
                         MakeDivisionPlan(db_->ctx(), query, algorithm));
    // The plan root must be the contract-checking wrapper.
    auto* checker = dynamic_cast<ContractCheckOperator*>(plan.get());
    ASSERT_NE(checker, nullptr);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         CollectAll(plan.get()));
    EXPECT_EQ(Sorted(std::move(quotient)), expected);
    EXPECT_EQ(checker->violations(), 0u);
  }
  // Early-output hash-division streams with a different end-of-stream
  // shape; validate it too.
  DivisionOptions early;
  early.early_output = true;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(db_->ctx(), query, DivisionAlgorithm::kHashDivision,
                       early));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(plan.get()));
  EXPECT_EQ(Sorted(std::move(quotient)), expected);
  db_->ctx()->set_contract_checks(false);
}

}  // namespace
}  // namespace reldiv
