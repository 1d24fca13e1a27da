#include "planner/adaptive.h"

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "division/division.h"
#include "exec/database.h"
#include "exec/operator.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"
#include "planner/logical_plan.h"
#include "planner/physical_planner.h"
#include "planner/rewrite.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

// ---------------------------------------------------------------------------
// Query front-end shapes over the generated workload schema
// dividend(quotient_id, divisor_id) ÷ divisor(divisor_id): the aggregate
// formulation, the bare-counting formulation, and the two double-negation
// formulations (NOT EXISTS as anti joins, EXCEPT as set differences). All
// four must rewrite to the same division and compute the same quotient.
// ---------------------------------------------------------------------------

LogicalNodePtr Rel(const std::string& name, const Relation& relation) {
  return std::make_unique<LogicalRelationNode>(name, relation);
}

/// DISTINCT π_{quotient_id}(dividend) — the candidate set C.
LogicalNodePtr Candidates(const Relation& dividend) {
  return std::make_unique<LogicalProjectNode>(
      Rel("dividend", dividend), std::vector<size_t>{0}, /*distinct=*/true);
}

/// Shape 1: semi-join + GROUP BY + HAVING COUNT(*) = (SELECT COUNT(*) ...).
LogicalNodePtr AggregateFormulation(const Relation& dividend,
                                    const Relation& divisor) {
  auto semi = std::make_unique<LogicalSemiJoinNode>(
      Rel("dividend", dividend), Rel("divisor", divisor),
      std::vector<size_t>{1}, std::vector<size_t>{0});
  auto counted = std::make_unique<LogicalGroupCountNode>(
      std::move(semi), std::vector<size_t>{0});
  return std::make_unique<LogicalCountFilterNode>(std::move(counted),
                                                  Rel("divisor", divisor));
}

/// Shape 2: counting without the semi-join — only sound under referential
/// integrity (every dividend tuple references a divisor value, §2.2).
LogicalNodePtr BareCountingFormulation(const Relation& dividend,
                                       const Relation& divisor) {
  auto counted = std::make_unique<LogicalGroupCountNode>(
      Rel("dividend", dividend), std::vector<size_t>{0});
  return std::make_unique<LogicalCountFilterNode>(std::move(counted),
                                                  Rel("divisor", divisor));
}

/// Shape 3: the NOT EXISTS / NOT EXISTS double negation as anti joins —
/// candidates minus those with a missing (candidate, divisor) pair.
LogicalNodePtr AntiJoinFormulation(const Relation& dividend,
                                   const Relation& divisor) {
  auto cross = std::make_unique<LogicalCrossJoinNode>(Candidates(dividend),
                                                      Rel("divisor", divisor));
  auto missing = std::make_unique<LogicalAntiJoinNode>(
      std::move(cross), Rel("dividend", dividend), std::vector<size_t>{0, 1},
      std::vector<size_t>{0, 1});
  return std::make_unique<LogicalAntiJoinNode>(Candidates(dividend),
                                               std::move(missing),
                                               std::vector<size_t>{0},
                                               std::vector<size_t>{0});
}

/// Shape 4: the EXCEPT double negation — C EXCEPT π_G((C × S) EXCEPT X).
/// `project_subtrahend` inserts the explicit π_{G∪M}(X) column projection
/// (the identity here), exercising both subtrahend forms the rewriter
/// accepts.
LogicalNodePtr ExceptFormulation(const Relation& dividend,
                                 const Relation& divisor,
                                 bool project_subtrahend) {
  auto cross = std::make_unique<LogicalCrossJoinNode>(Candidates(dividend),
                                                      Rel("divisor", divisor));
  LogicalNodePtr subtrahend;
  if (project_subtrahend) {
    subtrahend = std::make_unique<LogicalProjectNode>(
        Rel("dividend", dividend), std::vector<size_t>{0, 1});
  } else {
    subtrahend = Rel("dividend", dividend);
  }
  auto inner = std::make_unique<LogicalExceptNode>(std::move(cross),
                                                   std::move(subtrahend));
  auto mid = std::make_unique<LogicalProjectNode>(std::move(inner),
                                                  std::vector<size_t>{0});
  return std::make_unique<LogicalExceptNode>(Candidates(dividend),
                                             std::move(mid));
}

class AdaptivePlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
    DivisionStatsCache::Global().Clear();
  }

  void TearDown() override {
    if (db_ != nullptr) db_->ctx()->set_hash_memory_bytes(0);
    DivisionStatsCache::Global().Clear();
  }

  struct Loaded {
    Relation dividend;
    Relation divisor;
    std::vector<Tuple> expected;
  };

  Loaded Load(const WorkloadSpec& spec, const std::string& prefix) {
    GeneratedWorkload workload = GenerateWorkload(spec);
    Loaded out;
    out.expected = workload.expected_quotient;
    EXPECT_OK(LoadWorkload(db_.get(), workload, prefix, &out.dividend,
                           &out.divisor));
    return out;
  }

  std::unique_ptr<Database> db_;
};

// ---------------------------------------------------------------------------
// The differential corpus: 50 seeded parameter points × 4 rewrite shapes =
// 200 queries. For each, (a) the un-rewritten formulation, (b) the rewritten
// static division plan, and (c) the adaptive plan must produce bit-identical
// quotients (compared order-insensitively; all three materialize the same
// tuple set).
// ---------------------------------------------------------------------------

TEST_F(AdaptivePlannerTest, DifferentialCorpusAcrossAllRewriteShapes) {
  enum Shape { kAggregate = 0, kBareCounting, kAntiJoin, kExcept };
  int queries = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 13);
    WorkloadSpec base;
    base.divisor_cardinality = 1 + rng() % 8;
    base.quotient_candidates = 2 + rng() % 24;
    base.candidate_completeness = 0.25 * static_cast<double>(rng() % 5);
    base.nonmatching_tuples = rng() % 10;
    base.seed = seed;
    for (int shape = kAggregate; shape <= kExcept; ++shape) {
      WorkloadSpec spec = base;
      // The bare-counting shape is only semantically a division under
      // referential integrity, so its corpus slice has no foreign tuples.
      if (shape == kBareCounting) spec.nonmatching_tuples = 0;
      const std::string prefix =
          "c" + std::to_string(seed) + "_" + std::to_string(shape);
      Loaded data = Load(spec, prefix);
      const std::string label =
          "seed=" + std::to_string(seed) + " shape=" + std::to_string(shape);

      auto formulation = [&]() -> LogicalNodePtr {
        switch (shape) {
          case kAggregate:
            return AggregateFormulation(data.dividend, data.divisor);
          case kBareCounting:
            return BareCountingFormulation(data.dividend, data.divisor);
          case kAntiJoin:
            return AntiJoinFormulation(data.dividend, data.divisor);
          default:
            return ExceptFormulation(data.dividend, data.divisor,
                                     /*project_subtrahend=*/seed % 2 == 0);
        }
      };

      // (a) The formulation executed as written.
      {
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<Operator> plan,
                             CompileLogicalPlan(db_->ctx(), formulation()));
        ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, CollectAll(plan.get()));
        ASSERT_EQ(Sorted(std::move(rows)), data.expected)
            << label << " (un-rewritten)";
      }

      // (b) The rewriter must detect the division and the rewritten static
      // plan must agree.
      RewriteOptions rewrite_options;
      rewrite_options.assume_referential_integrity = shape == kBareCounting;
      RewriteResult rewritten =
          RewriteForAllPattern(formulation(), rewrite_options);
      ASSERT_EQ(rewritten.divisions_introduced, 1) << label;
      ASSERT_OK_AND_ASSIGN(
          std::unique_ptr<Operator> static_plan,
          CompileLogicalPlan(db_->ctx(), std::move(rewritten.plan)));
      ASSERT_OK_AND_ASSIGN(std::vector<Tuple> static_rows,
                           CollectAll(static_plan.get()));
      ASSERT_EQ(Sorted(std::move(static_rows)), data.expected)
          << label << " (rewritten)";

      // (c) The adaptive plan over the same stored inputs.
      DivisionQuery query{data.dividend, data.divisor, {"divisor_id"}};
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<AdaptiveDivisionOperator> adaptive,
                           PlanAdaptiveDivision(db_->ctx(), query));
      ASSERT_OK_AND_ASSIGN(
          std::vector<Tuple> adaptive_rows,
          CollectAll(adaptive.get(), db_->ctx()->batch_capacity()));
      ASSERT_EQ(Sorted(std::move(adaptive_rows)), data.expected)
          << label << " (adaptive, replan=" << adaptive->report().ToLine()
          << ")";
      ++queries;
    }
  }
  EXPECT_GE(queries, 200);
}

// ---------------------------------------------------------------------------
// Chooser properties.
// ---------------------------------------------------------------------------

TEST(AdaptiveChooserProperty, PicksMinimumCostWithDeterministicTieBreak) {
  std::mt19937_64 rng(20260809);
  for (int i = 0; i < 300; ++i) {
    DivisionStats stats;
    stats.dividend_tuples = static_cast<double>(1 + rng() % 2000000);
    stats.dividend_pages = static_cast<double>(1 + rng() % 50000);
    stats.divisor_tuples = static_cast<double>(rng() % 5000);
    stats.divisor_pages = static_cast<double>(1 + rng() % 50);
    stats.quotient_estimate = static_cast<double>(rng() % 100000);
    stats.memory_pages = static_cast<double>(1 + rng() % 2000);
    stats.divisor_restricted = rng() % 2 == 0;
    stats.may_contain_duplicates = rng() % 2 == 0;
    const AlgorithmChoice choice = ChooseDivisionAlgorithm(stats);
    ASSERT_EQ(choice.predicted_ms.count(choice.algorithm), 1u) << i;
    const double chosen_ms = choice.predicted_ms.at(choice.algorithm);
    for (const auto& [algorithm, ms] : choice.predicted_ms) {
      ASSERT_TRUE(std::isfinite(ms)) << i;
      EXPECT_GE(ms, chosen_ms) << i;
      if (ms == chosen_ms) {
        // Deterministic tie-break: the lowest-numbered algorithm wins.
        EXPECT_LE(static_cast<int>(choice.algorithm),
                  static_cast<int>(algorithm))
            << i;
      }
    }
    // §2.2 preconditions are structural: a restricted divisor removes the
    // no-join aggregation variants from candidacy entirely, and in-memory
    // hash-division is never offered when its tables cannot fit.
    if (stats.divisor_restricted) {
      EXPECT_EQ(choice.predicted_ms.count(DivisionAlgorithm::kSortAggregate),
                0u)
          << i;
      EXPECT_EQ(choice.predicted_ms.count(DivisionAlgorithm::kHashAggregate),
                0u)
          << i;
    }
    if (choice.needs_partitioning) {
      EXPECT_EQ(choice.predicted_ms.count(DivisionAlgorithm::kHashDivision),
                0u)
          << i;
    } else {
      EXPECT_EQ(choice.predicted_ms.count(
                    DivisionAlgorithm::kHashDivisionPartitioned),
                0u)
          << i;
    }
  }
}

// EstimateDivisionStats must degrade gracefully on adversarial inputs: a
// zero-row divisor, a divisor larger than the dividend, and duplicate-heavy
// inputs all yield finite predictions and a §2.2-safe choice.
TEST_F(AdaptivePlannerTest, EstimatorDegradesGracefullyOnAdversarialInputs) {
  Schema two{Field{"q", ValueType::kInt64}, Field{"d", ValueType::kInt64}};
  Schema one{Field{"d", ValueType::kInt64}};

  auto check = [&](const Relation& dividend, const Relation& divisor,
                   const std::string& match_attr, bool may_contain_duplicates,
                   const std::vector<Tuple>& expected,
                   const std::string& label) {
    DivisionQuery query{dividend, divisor, {match_attr}};
    ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
    DivisionStats stats = EstimateDivisionStats(resolved, db_->ctx());
    stats.divisor_restricted = true;  // PlanDivision's safe default
    stats.may_contain_duplicates = may_contain_duplicates;
    const AlgorithmChoice choice = ChooseDivisionAlgorithm(stats);
    for (const auto& [algorithm, ms] : choice.predicted_ms) {
      EXPECT_TRUE(std::isfinite(ms))
          << label << ": " << DivisionAlgorithmName(algorithm);
      EXPECT_GE(ms, 0) << label;
    }
    EXPECT_NE(choice.algorithm, DivisionAlgorithm::kSortAggregate) << label;
    EXPECT_NE(choice.algorithm, DivisionAlgorithm::kHashAggregate) << label;
    // The adaptive operator survives the same inputs end to end.
    AdaptiveOptions options;
    options.division.eliminate_duplicates = may_contain_duplicates;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AdaptiveDivisionOperator> plan,
                         PlanAdaptiveDivision(db_->ctx(), query, options));
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                         CollectAll(plan.get(), db_->ctx()->batch_capacity()));
    EXPECT_EQ(Sorted(std::move(rows)), expected) << label;
  };

  // Zero-row divisor: the quotient estimate falls back to |R| and the
  // documented empty-divisor convention yields an empty quotient.
  ASSERT_OK_AND_ASSIGN(Relation r0, db_->CreateTable("deg0_r", two));
  ASSERT_OK_AND_ASSIGN(Relation s0, db_->CreateTable("deg0_s", one));
  ASSERT_OK(db_->Insert("deg0_r", T(1, 1)));
  ASSERT_OK(db_->Insert("deg0_r", T(2, 1)));
  {
    DivisionQuery query{r0, s0, {"d"}};
    ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
    DivisionStats stats = EstimateDivisionStats(resolved, db_->ctx());
    EXPECT_EQ(stats.divisor_tuples, 0);
    EXPECT_GT(stats.quotient_estimate, 0);
  }
  check(r0, s0, "d", false, {}, "zero-row divisor");

  // Divisor strictly larger than the dividend: quotient estimate < 1 tuple.
  ASSERT_OK_AND_ASSIGN(Relation r1, db_->CreateTable("deg1_r", two));
  ASSERT_OK_AND_ASSIGN(Relation s1, db_->CreateTable("deg1_s", one));
  ASSERT_OK(db_->Insert("deg1_r", T(1, 1)));
  ASSERT_OK(db_->Insert("deg1_r", T(1, 2)));
  for (int64_t d = 1; d <= 50; ++d) {
    ASSERT_OK(db_->Insert("deg1_s", T(d)));
  }
  check(r1, s1, "d", false, {}, "divisor larger than dividend");

  // Duplicate-heavy inputs: the aggregation strategies pay the explicit
  // duplicate-elimination surcharge and the quotient is still exact.
  WorkloadSpec spec;
  spec.divisor_cardinality = 6;
  spec.quotient_candidates = 12;
  spec.candidate_completeness = 0.5;
  spec.dividend_duplicates = 200;
  spec.divisor_duplicates = 10;
  spec.seed = 97;
  Loaded dup = Load(spec, "deg2");
  check(dup.dividend, dup.divisor, "divisor_id", true, dup.expected,
        "duplicate-heavy");
}

// ---------------------------------------------------------------------------
// Table 1 counter parity: an adaptive run whose checkpoints never fire
// performs exactly the counted operations of the equivalent static plan,
// and its quotient is bit-identical (same tuples, same emission order).
// ---------------------------------------------------------------------------

TEST_F(AdaptivePlannerTest, UntriggeredRunHasStaticCounterParity) {
  WorkloadSpec spec;
  spec.divisor_cardinality = 25;
  spec.quotient_candidates = 40;
  spec.candidate_completeness = 0.6;
  spec.nonmatching_tuples = 30;
  spec.seed = 17;
  Loaded data = Load(spec, "parity");
  DivisionQuery query{data.dividend, data.divisor, {"divisor_id"}};
  ExecContext* ctx = db_->ctx();

  // The adaptive plan pinned to `forced` must perform exactly the counted
  // operations of the static plan `algorithm` run with `static_options`.
  const auto expect_parity = [&](DivisionAlgorithm forced,
                                 double memory_pages, size_t checkpoints,
                                 DivisionAlgorithm algorithm,
                                 const DivisionOptions& static_options) {
    const CpuCounters before_static = *ctx->counters();
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> static_rows,
                         Divide(ctx, query, algorithm, static_options));
    const CpuCounters static_delta = *ctx->counters() - before_static;

    AdaptiveOptions options;
    options.forced_initial = forced;
    options.use_stats_cache = false;  // honest stats, no cache interference
    options.memory_pages_override = memory_pages;
    const CpuCounters before_adaptive = *ctx->counters();
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AdaptiveDivisionOperator> plan,
                         PlanAdaptiveDivision(ctx, query, options));
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> adaptive_rows,
                         CollectAll(plan.get(), ctx->batch_capacity()));
    const CpuCounters adaptive_delta = *ctx->counters() - before_adaptive;

    ASSERT_TRUE(plan->report().events.empty()) << plan->report().ToLine();
    EXPECT_GE(plan->report().checkpoints_run, checkpoints);
    // Bit-identical quotient: same tuples in the same emission order.
    EXPECT_EQ(adaptive_rows, static_rows);
    EXPECT_EQ(Sorted(std::move(adaptive_rows)), data.expected);
    // Table 1 parity: the checkpoints read metadata, never tuples.
    EXPECT_EQ(adaptive_delta.comparisons, static_delta.comparisons);
    EXPECT_EQ(adaptive_delta.hashes, static_delta.hashes);
    EXPECT_EQ(adaptive_delta.moves, static_delta.moves);
    EXPECT_EQ(adaptive_delta.bit_ops, static_delta.bit_ops);
    EXPECT_GT(adaptive_delta.hashes, 0u);
  };

  {
    SCOPED_TRACE("hash-division");
    // Checkpoint 0 plus the post-build divisor checkpoint.
    expect_parity(DivisionAlgorithm::kHashDivision, 0, 2,
                  DivisionAlgorithm::kHashDivision, DivisionOptions{});
  }

  // Half a page of memory keeps neither table resident, and the divisor
  // table alone takes over half of it, so the chooser picks divisor
  // partitioning (§3.4). The adaptive plan must run that strategy, as
  // PlanDivision does.
  {
    SCOPED_TRACE("partitioned hash-division, divisor strategy");
    AdaptiveOptions probe;
    probe.forced_initial = DivisionAlgorithm::kHashDivisionPartitioned;
    probe.use_stats_cache = false;
    probe.memory_pages_override = 0.5;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AdaptiveDivisionOperator> chosen,
                         PlanAdaptiveDivision(ctx, query, probe));
    ASSERT_OK(chosen->Open());
    const AlgorithmChoice choice = chosen->report().initial;
    ASSERT_OK(chosen->Close());
    ASSERT_TRUE(choice.needs_partitioning);
    ASSERT_EQ(choice.partition_strategy, PartitionStrategy::kDivisor);
    DivisionOptions static_options;
    static_options.partition_strategy = PartitionStrategy::kDivisor;
    static_options.num_partitions = choice.num_partitions;
    expect_parity(DivisionAlgorithm::kHashDivisionPartitioned, 0.5, 1,
                  DivisionAlgorithm::kHashDivisionPartitioned,
                  static_options);
  }
}

// ---------------------------------------------------------------------------
// Lying-stats fixtures: each re-plan trigger fired at least once, with the
// quotient exact and the Table 1 counters monotone across the mid-query
// switch.
// ---------------------------------------------------------------------------

class AdaptiveTriggerTest : public AdaptivePlannerTest {
 protected:
  void SetUp() override {
    AdaptivePlannerTest::SetUp();
    previous_mode_ = Telemetry::SetMode(TelemetryMode::kCounting);
  }
  void TearDown() override {
    Telemetry::SetMode(previous_mode_);
    AdaptivePlannerTest::TearDown();
  }

  /// Runs the adaptive plan and returns its rows; `report_` and the counter
  /// delta are left for the test body to assert on.
  std::vector<Tuple> Run(const DivisionQuery& query,
                         const AdaptiveOptions& options) {
    const CpuCounters before = *db_->ctx()->counters();
    std::vector<Tuple> rows;
    auto plan_result = PlanAdaptiveDivision(db_->ctx(), query, options);
    EXPECT_OK(plan_result.status());
    if (plan_result.ok()) {
      auto rows_result =
          CollectAll(plan_result.value().get(), db_->ctx()->batch_capacity());
      EXPECT_OK(rows_result.status());
      if (rows_result.ok()) rows = rows_result.MoveValue();
      report_ = plan_result.value()->report();
    }
    counter_delta_ = *db_->ctx()->counters() - before;
    return rows;
  }

  bool HasTrigger(ReplanTrigger trigger) const {
    for (const ReplanEvent& event : report_.events) {
      if (event.trigger == trigger) return true;
    }
    return false;
  }

  AdaptiveReport report_;
  CpuCounters counter_delta_;
  TelemetryMode previous_mode_ = TelemetryMode::kCounting;
};

TEST_F(AdaptiveTriggerTest, DivisorCardinalityLieAbandonsAfterBuild) {
  // Truth: |S| = 600 distinct, |R| = 1200, |Q| = 2. The cache lies that the
  // divisor has 2 distinct values; the post-build checkpoint observes 600,
  // and under an 8-page planning budget the corrected tables no longer fit,
  // so in-memory hash-division is no longer a candidate.
  WorkloadSpec spec;
  spec.divisor_cardinality = 600;
  spec.quotient_candidates = 2;
  spec.candidate_completeness = 1.0;
  spec.seed = 31;
  Loaded data = Load(spec, "divlie");
  DivisionQuery query{data.dividend, data.divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
  DivisionStatsCache::Entry lie;
  lie.dividend_tuples = 1200;  // truthful, so checkpoint 0 stays quiet
  lie.divisor_distinct = 2;    // 300x under the truth
  lie.quotient_candidates = 2;
  DivisionStatsCache::Global().InjectForTest(resolved, lie);

  TelemetryCounter* replans = MetricRegistry::Global().FindOrCreateCounter(
      metric_names::kReplansTotal, "trigger", "divisor-cardinality");
  const uint64_t replans_before = replans->value();
  const uint64_t flight_before = EventLog::Flight().total_recorded();

  AdaptiveOptions options;
  options.memory_pages_override = 8;
  options.forced_initial = DivisionAlgorithm::kHashDivision;
  std::vector<Tuple> rows = Run(query, options);

  EXPECT_EQ(Sorted(std::move(rows)), data.expected);
  EXPECT_TRUE(report_.stats_cache_hit);
  ASSERT_EQ(report_.events.size(), 1u) << report_.ToLine();
  const ReplanEvent& event = report_.events[0];
  EXPECT_EQ(event.trigger, ReplanTrigger::kDivisorCardinality);
  EXPECT_EQ(event.from, DivisionAlgorithm::kHashDivision);
  EXPECT_EQ(event.expected, 2.0);
  EXPECT_EQ(event.observed, 600.0);
  EXPECT_EQ(event.dividend_tuples_seen, 0u);
  // Abandoned before reading the dividend: the corrected tables exceed 80%
  // of the planning budget, so the re-choice cannot be in-memory
  // hash-division.
  EXPECT_NE(report_.final_algorithm, DivisionAlgorithm::kHashDivision);
  EXPECT_EQ(report_.final_algorithm, event.to);
  EXPECT_NE(report_.ToLine().find("divisor-cardinality"), std::string::npos);

  EXPECT_GE(replans->value(), replans_before + 1);
  EXPECT_GT(EventLog::Flight().total_recorded(), flight_before);
  bool saw_flight_event = false;
  for (const Event& fe : EventLog::Flight().Events()) {
    if (fe.name == "replan" && fe.category == "fallback") {
      saw_flight_event = true;
    }
  }
  EXPECT_TRUE(saw_flight_event);
  // Monotone Table 1 counters: the abandon-and-restart only ever adds work.
  EXPECT_GT(counter_delta_.hashes + counter_delta_.comparisons, 0u);
}

TEST_F(AdaptiveTriggerTest, QuotientGrowthLieAbandonsMidConsume) {
  // Truth: |Q| = 600, |S| = 2, |R| = 1200. The cache lies that only 2
  // quotient candidates exist; the mid-consume checkpoint extrapolates the
  // observed candidate growth past the 8-page planning budget and abandons
  // to the partitioned form with part of the dividend already consumed.
  WorkloadSpec spec;
  spec.divisor_cardinality = 2;
  spec.quotient_candidates = 600;
  spec.candidate_completeness = 1.0;
  spec.seed = 33;
  Loaded data = Load(spec, "qlie");
  DivisionQuery query{data.dividend, data.divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
  DivisionStatsCache::Entry lie;
  lie.dividend_tuples = 1200;
  lie.divisor_distinct = 2;
  lie.quotient_candidates = 2;  // 300x under the truth
  DivisionStatsCache::Global().InjectForTest(resolved, lie);

  TelemetryCounter* replans = MetricRegistry::Global().FindOrCreateCounter(
      metric_names::kReplansTotal, "trigger", "quotient-growth");
  const uint64_t replans_before = replans->value();

  AdaptiveOptions options;
  options.memory_pages_override = 8;
  options.forced_initial = DivisionAlgorithm::kHashDivision;
  std::vector<Tuple> rows = Run(query, options);

  EXPECT_EQ(Sorted(std::move(rows)), data.expected);
  ASSERT_TRUE(HasTrigger(ReplanTrigger::kQuotientGrowth))
      << report_.ToLine();
  for (const ReplanEvent& event : report_.events) {
    if (event.trigger != ReplanTrigger::kQuotientGrowth) continue;
    EXPECT_EQ(event.from, DivisionAlgorithm::kHashDivision);
    EXPECT_GE(event.dividend_tuples_seen, 256u);
    EXPECT_GE(event.observed,
              event.expected * AdaptiveDivisionOperator::kDivergenceThreshold);
  }
  EXPECT_NE(report_.final_algorithm, DivisionAlgorithm::kHashDivision);
  EXPECT_GE(replans->value(), replans_before + 1);
}

TEST_F(AdaptiveTriggerTest, MemoryPressureDegradesStraightToPartitioned) {
  // No lies: the hash budget itself denies the build, which must degrade
  // straight into partitioned hash-division with the caller's options. The
  // denied in-memory attempt runs once: the adaptive run costs exactly one
  // failed static hash-division plus one static partitioned run.
  WorkloadSpec spec;
  spec.divisor_cardinality = 8;
  spec.quotient_candidates = 40;
  spec.candidate_completeness = 0.5;
  spec.seed = 7;
  Loaded data = Load(spec, "memlie");
  DivisionQuery query{data.dividend, data.divisor, {"divisor_id"}};
  ExecContext* ctx = db_->ctx();

  TelemetryCounter* replans = MetricRegistry::Global().FindOrCreateCounter(
      metric_names::kReplansTotal, "trigger", "memory-pressure");
  const uint64_t replans_before = replans->value();

  ctx->set_hash_memory_bytes(2 * 1024);
  AdaptiveOptions options;
  options.forced_initial = DivisionAlgorithm::kHashDivision;
  options.division.num_partitions = 8;
  std::vector<Tuple> rows = Run(query, options);
  const CpuCounters adaptive_delta = counter_delta_;

  const CpuCounters before_failed = *ctx->counters();
  Result<std::vector<Tuple>> failed =
      Divide(ctx, query, DivisionAlgorithm::kHashDivision, options.division);
  const CpuCounters failed_delta = *ctx->counters() - before_failed;
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsResourceExhausted());
  const CpuCounters before_partitioned = *ctx->counters();
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> partitioned,
      Divide(ctx, query, DivisionAlgorithm::kHashDivisionPartitioned,
             options.division));
  const CpuCounters partitioned_delta =
      *ctx->counters() - before_partitioned;
  ctx->set_hash_memory_bytes(0);

  EXPECT_EQ(Sorted(std::move(rows)), data.expected);
  EXPECT_EQ(Sorted(std::move(partitioned)), data.expected);
  ASSERT_TRUE(HasTrigger(ReplanTrigger::kMemoryPressure))
      << report_.ToLine();
  EXPECT_EQ(report_.final_algorithm,
            DivisionAlgorithm::kHashDivisionPartitioned);
  EXPECT_GE(replans->value(), replans_before + 1);
  CpuCounters expected = failed_delta;
  expected += partitioned_delta;
  EXPECT_EQ(adaptive_delta.comparisons, expected.comparisons);
  EXPECT_EQ(adaptive_delta.hashes, expected.hashes);
  EXPECT_EQ(adaptive_delta.moves, expected.moves);
  EXPECT_EQ(adaptive_delta.bit_ops, expected.bit_ops);
}

TEST_F(AdaptiveTriggerTest, DividendCardinalityLieDegradesSortAggToHashAgg) {
  // A pinned sort-aggregation plan whose cached dividend cardinality is 20x
  // the truth must degrade to its hash-aggregation sibling at checkpoint 0,
  // before any merge pass.
  WorkloadSpec spec;
  spec.divisor_cardinality = 8;
  spec.quotient_candidates = 40;
  spec.candidate_completeness = 0.5;
  spec.nonmatching_tuples = 0;  // the no-join aggregations require §2.2 RI
  spec.seed = 41;
  Loaded data = Load(spec, "dividlie");
  DivisionQuery query{data.dividend, data.divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
  const double truth =
      static_cast<double>(resolved.dividend.store->num_records());
  DivisionStatsCache::Entry lie;
  lie.dividend_tuples = truth * 20;  // way over
  lie.divisor_distinct = 8;
  lie.quotient_candidates = 40;
  DivisionStatsCache::Global().InjectForTest(resolved, lie);

  AdaptiveOptions options;
  options.forced_initial = DivisionAlgorithm::kSortAggregate;
  std::vector<Tuple> rows = Run(query, options);

  EXPECT_EQ(Sorted(std::move(rows)), data.expected);
  ASSERT_EQ(report_.events.size(), 1u) << report_.ToLine();
  const ReplanEvent& event = report_.events[0];
  EXPECT_EQ(event.trigger, ReplanTrigger::kDividendCardinality);
  EXPECT_EQ(event.from, DivisionAlgorithm::kSortAggregate);
  EXPECT_EQ(event.to, DivisionAlgorithm::kHashAggregate);
  EXPECT_EQ(event.expected, truth * 20);
  EXPECT_EQ(event.observed, truth);
  EXPECT_EQ(report_.final_algorithm, DivisionAlgorithm::kHashAggregate);
}

// ---------------------------------------------------------------------------
// Feedback loop: the first run corrects the planted lie enough that the
// second run of the same query plans from near-truth and never re-plans.
// ---------------------------------------------------------------------------

TEST_F(AdaptiveTriggerTest, StatsCacheConvergesAfterOneRun) {
  WorkloadSpec spec;
  spec.divisor_cardinality = 600;
  spec.quotient_candidates = 2;
  spec.candidate_completeness = 1.0;
  spec.seed = 31;
  Loaded data = Load(spec, "conv");
  DivisionQuery query{data.dividend, data.divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
  DivisionStatsCache::Entry lie;
  lie.dividend_tuples = 1200;
  lie.divisor_distinct = 2;
  lie.quotient_candidates = 2;
  DivisionStatsCache::Global().InjectForTest(resolved, lie);

  AdaptiveOptions options;
  options.memory_pages_override = 8;
  options.forced_initial = DivisionAlgorithm::kHashDivision;

  std::vector<Tuple> first = Run(query, options);
  EXPECT_EQ(Sorted(std::move(first)), data.expected);
  ASSERT_EQ(report_.events.size(), 1u) << report_.ToLine();

  // The EWMA merge halved the divisor lie (2 -> ~301); the second run's
  // planned-vs-observed ratio is now under the divergence threshold.
  std::vector<Tuple> second = Run(query, options);
  EXPECT_EQ(Sorted(std::move(second)), data.expected);
  EXPECT_TRUE(report_.stats_cache_hit);
  EXPECT_TRUE(report_.events.empty()) << report_.ToLine();
  EXPECT_EQ(report_.final_algorithm, DivisionAlgorithm::kHashDivision);
}

// ---------------------------------------------------------------------------
// Report rendering (the EXPLAIN ANALYZE "replan:" line).
// ---------------------------------------------------------------------------

TEST(AdaptiveReportLine, RendersInitialTriggersAndFinalAlgorithm) {
  AdaptiveReport report;
  report.initial.algorithm = DivisionAlgorithm::kHashDivision;
  report.final_algorithm = DivisionAlgorithm::kHashDivision;
  EXPECT_EQ(report.ToLine(), "none (hash-division)");

  ReplanEvent event;
  event.trigger = ReplanTrigger::kDivisorCardinality;
  event.from = DivisionAlgorithm::kHashDivision;
  event.to = DivisionAlgorithm::kHashDivisionPartitioned;
  event.expected = 2;
  event.observed = 600;
  event.dividend_tuples_seen = 0;
  report.events.push_back(event);
  report.final_algorithm = DivisionAlgorithm::kHashDivisionPartitioned;
  EXPECT_EQ(report.ToLine(),
            "hash-division -> hash-division-partitioned "
            "(divisor-cardinality at 0 tuples; expected 2, observed 600)");
}

}  // namespace
}  // namespace reldiv
