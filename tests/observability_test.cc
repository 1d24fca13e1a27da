// Tests for the observability layer (obs/): the per-operator metrics tree
// recorded by ProfiledOperator, the zero-overhead guarantee when profiling
// is off, trace-span emission on the flight ring's clock, and EXPLAIN
// ANALYZE's predicted-vs-actual agreement with the §4 cost model fixtures.

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metric_names.h"
#include "cost/cost_model.h"
#include "division/division.h"
#include "exec/materialize.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiled_operator.h"
#include "obs/telemetry.h"
#include "planner/explain.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/university.h"

namespace reldiv {
namespace {

/// University-workload fixture (§2's running example): Transcript projected
/// to (student_id, course_no) divided by all course_nos. With the default
/// UniversitySpec, students 0 and 1 take every course.
class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(db_, Database::Open());
    ASSERT_OK_AND_ASSIGN(UniversityTables tables,
                         LoadUniversity(db_.get(), UniversitySpec{}));
    ASSERT_OK_AND_ASSIGN(
        transcript_proj_,
        db_->CreateTempTable("transcript_proj",
                             Schema{Field{"student_id", ValueType::kInt64},
                                    Field{"course_no", ValueType::kInt64}}));
    {
      ProjectOperator project(
          std::make_unique<ScanOperator>(db_->ctx(), tables.transcript),
          {0, 1});
      ASSERT_OK_AND_ASSIGN(transcript_tuples_,
                           Materialize(&project, transcript_proj_.store));
      ASSERT_GT(transcript_tuples_, 0u);
    }
    ASSERT_OK_AND_ASSIGN(
        course_nos_,
        db_->CreateTempTable("course_nos",
                             Schema{Field{"course_no", ValueType::kInt64}}));
    {
      ProjectOperator project(
          std::make_unique<ScanOperator>(db_->ctx(), tables.courses), {0});
      ASSERT_OK_AND_ASSIGN(uint64_t n,
                           Materialize(&project, course_nos_.store));
      ASSERT_EQ(n, 12u);
    }
  }

  DivisionQuery Query() {
    return DivisionQuery{transcript_proj_, course_nos_, {"course_no"}};
  }

  std::unique_ptr<Database> db_;
  Relation transcript_proj_;
  Relation course_nos_;
  uint64_t transcript_tuples_ = 0;
};

TEST_F(ObservabilityTest, ProfilingOffLeavesPlansWrapperFree) {
  ExecContext* ctx = db_->ctx();
  ASSERT_FALSE(ctx->profiling());

  // MaybeProfile is an identity when profiling is off.
  auto scan = std::make_unique<ScanOperator>(ctx, transcript_proj_);
  Operator* raw = scan.get();
  std::unique_ptr<Operator> maybe =
      MaybeProfile(ctx, std::move(scan), "scan");
  EXPECT_EQ(maybe.get(), raw);

  // A full division plan carries no ProfiledOperator at the root and
  // registers nothing: the profile stays unallocated.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(ctx, Query(), DivisionAlgorithm::kHashDivision));
  EXPECT_EQ(dynamic_cast<ProfiledOperator*>(plan.get()), nullptr);
  EXPECT_EQ(ctx->profile(), nullptr);
}

TEST_F(ObservabilityTest, MetricsTreeCountsHashDivisionExactly) {
  ExecContext* ctx = db_->ctx();
  ctx->set_profiling(true);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(ctx, Query(), DivisionAlgorithm::kHashDivision));
  const CpuCounters before = *ctx->counters();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(plan.get()));
  const CpuCounters delta = *ctx->counters() - before;
  EXPECT_EQ(Sorted(std::move(quotient)), (std::vector<Tuple>{T(0), T(1)}));

  ASSERT_NE(ctx->profile(), nullptr);
  ASSERT_EQ(ctx->profile()->roots().size(), 1u);
  const MetricsNode* root = ctx->profile()->roots()[0];
  EXPECT_EQ(root->label(),
            DivisionAlgorithmName(DivisionAlgorithm::kHashDivision));

  // Exactly one open/close cycle; the quotient is students {0, 1}.
  EXPECT_EQ(root->metrics().opens, 1u);
  EXPECT_EQ(root->metrics().closes, 1u);
  EXPECT_EQ(root->metrics().tuples_out, 2u);
  EXPECT_GE(root->metrics().batches_out, 1u);

  // The root's inclusive CPU delta is the whole query's counter delta.
  EXPECT_EQ(root->metrics().cpu.comparisons, delta.comparisons);
  EXPECT_EQ(root->metrics().cpu.hashes, delta.hashes);
  EXPECT_EQ(root->metrics().cpu.moves, delta.moves);
  EXPECT_EQ(root->metrics().cpu.bit_ops, delta.bit_ops);

  // Two input scans, both fully drained: the dividend scan emits every
  // transcript tuple, the divisor scan every course.
  ASSERT_EQ(root->children().size(), 2u);
  const MetricsNode* dividend_scan = root->children()[0];
  const MetricsNode* divisor_scan = root->children()[1];
  EXPECT_EQ(dividend_scan->label(), "scan(dividend)");
  EXPECT_EQ(divisor_scan->label(), "scan(divisor)");
  EXPECT_EQ(dividend_scan->metrics().tuples_out, transcript_tuples_);
  EXPECT_EQ(divisor_scan->metrics().tuples_out, 12u);
  EXPECT_EQ(dividend_scan->metrics().opens, 1u);
  EXPECT_EQ(divisor_scan->metrics().opens, 1u);
  EXPECT_TRUE(dividend_scan->children().empty());
  EXPECT_TRUE(divisor_scan->children().empty());

  // Hash-division's gauges were collected before Close() tore them down.
  bool saw_fill_ratio = false, saw_divisor_count = false;
  for (const auto& [name, value] : root->metrics().gauges) {
    if (name == "bitmap_fill_ratio") {
      saw_fill_ratio = true;
      EXPECT_GT(value, 0.0);
      EXPECT_LE(value, 1.0);
    }
    if (name == "divisor_count") {
      saw_divisor_count = true;
      EXPECT_EQ(value, 12.0);
    }
  }
  EXPECT_TRUE(saw_fill_ratio);
  EXPECT_TRUE(saw_divisor_count);

  // Both renderings carry the tree.
  const std::string text = ctx->profile()->ToString();
  EXPECT_NE(text.find("hash-division"), std::string::npos);
  EXPECT_NE(text.find("scan(dividend)"), std::string::npos);
  const std::string json = ctx->profile()->ToJson();
  EXPECT_NE(json.find("\"scan(divisor)\""), std::string::npos);
}

TEST_F(ObservabilityTest, SecondPlanBecomesSiblingRoot) {
  ExecContext* ctx = db_->ctx();
  ctx->set_profiling(true);
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kHashDivision, DivisionAlgorithm::kNaive}) {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Operator> plan,
                         MakeDivisionPlan(ctx, Query(), algorithm));
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         CollectAll(plan.get()));
    EXPECT_EQ(quotient.size(), 2u);
  }
  ASSERT_EQ(ctx->profile()->roots().size(), 2u);
  EXPECT_EQ(ctx->profile()->roots()[0]->label(), "hash-division");
  EXPECT_EQ(ctx->profile()->roots()[1]->label(), "naive-division");
}

TEST_F(ObservabilityTest, TraceEmitsOperatorSpans) {
  ScopedTelemetryMode count(TelemetryMode::kCounting);
  // Touch the flight ring well before the trace exists: were each log on a
  // clock of its own, the two records of one transition would sit at least
  // 2 ms apart.
  EventLog::Flight();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  ExecContext* ctx = db_->ctx();
  ctx->set_profiling(true);
  EventLog trace;
  ctx->set_trace(&trace);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(ctx, Query(), DivisionAlgorithm::kHashDivision));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(plan.get()));
  ctx->set_trace(nullptr);
  EXPECT_EQ(quotient.size(), 2u);
  EXPECT_GT(trace.size(), 0u);
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"operator\""), std::string::npos);
  EXPECT_NE(json.find("hash-division"), std::string::npos);

  // One clock: the plan root's flight open/close events fall within 1 ms of
  // its trace open span's start and close span's end.
  std::optional<uint64_t> span_open, span_close_end, flight_open, flight_close;
  for (const Event& e : trace.Events()) {
    if (e.name == "open hash-division") span_open = e.ts_us;
    if (e.name == "close hash-division") span_close_end = e.ts_us + e.dur_us;
  }
  for (const Event& e : EventLog::Flight().Events()) {
    if (e.category != "operator" || e.detail != "hash-division") continue;
    if (e.name == "open") flight_open = e.ts_us;
    if (e.name == "close") flight_close = e.ts_us;
  }
  ASSERT_TRUE(span_open && span_close_end && flight_open && flight_close);
  const auto gap = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
  EXPECT_LE(gap(*flight_open, *span_open), 1000u);
  EXPECT_LE(gap(*flight_close, *span_close_end), 1000u);
}

TEST_F(ObservabilityTest, ProfiledParallelDivisionStaysConsistent) {
  // Profiling + tracing attached while the hash-division operator runs its
  // fragments on scheduler lanes: the tree must still account for the whole
  // query and the quotient must be unchanged. (Run under TSan, this is the
  // regression test for concurrent metric/trace emission.)
  ExecContext* ctx = db_->ctx();
  ctx->set_profiling(true);
  ctx->set_dop(4);
  EventLog trace;
  ctx->set_trace(&trace);
  DivisionOptions options;
  options.parallel_fragments = 4;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(ctx, Query(), DivisionAlgorithm::kHashDivision,
                       options));
  const CpuCounters before = *ctx->counters();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(plan.get()));
  const CpuCounters delta = *ctx->counters() - before;
  ctx->set_trace(nullptr);
  ctx->set_dop(1);
  EXPECT_EQ(Sorted(std::move(quotient)), (std::vector<Tuple>{T(0), T(1)}));

  ASSERT_NE(ctx->profile(), nullptr);
  ASSERT_GE(ctx->profile()->roots().size(), 1u);
  const MetricsNode* root = ctx->profile()->roots()[0];
  EXPECT_EQ(root->metrics().tuples_out, 2u);
  // Fragment counters merged back into the context inside Open(): the
  // root's inclusive CPU delta still covers the whole query.
  EXPECT_EQ(root->metrics().cpu.comparisons, delta.comparisons);
  EXPECT_EQ(root->metrics().cpu.hashes, delta.hashes);
  EXPECT_EQ(root->metrics().cpu.moves, delta.moves);
  EXPECT_EQ(root->metrics().cpu.bit_ops, delta.bit_ops);
  EXPECT_GT(trace.size(), 0u);
}

TEST(QueryProfileConcurrencyTest, ConcurrentNodeRegistrationLosesNothing) {
  // Parallel sections register MetricsNodes while other lanes do the same.
  // Structural mutation is mutexed; each node has a single metrics writer.
  // Whatever adoption shape the interleaving produces, every node must be
  // reachable from the roots exactly once with its metrics intact.
  QueryProfile profile;
  constexpr int kThreads = 4;
  constexpr int kNodesPerThread = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profile, t] {
      for (int i = 0; i < kNodesPerThread; ++i) {
        MetricsNode* node = profile.CreateNode(
            "lane" + std::to_string(t) + "-" + std::to_string(i),
            profile.Mark());
        node->metrics().opens = 1;
        node->metrics().tuples_out = static_cast<uint64_t>(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  profile.SealRoots();

  std::set<std::string> labels;
  size_t nodes = 0;
  std::function<void(const MetricsNode*)> visit =
      [&](const MetricsNode* node) {
        ++nodes;
        EXPECT_TRUE(labels.insert(node->label()).second)
            << "node reached twice: " << node->label();
        EXPECT_EQ(node->metrics().opens, 1u);
        for (const MetricsNode* child : node->children()) visit(child);
      };
  for (const MetricsNode* root : profile.roots()) visit(root);
  EXPECT_EQ(nodes, static_cast<size_t>(kThreads) * kNodesPerThread);
  EXPECT_NE(profile.ToString().find("lane0-0"), std::string::npos);
  EXPECT_NE(profile.ToJson().find("lane3-0"), std::string::npos);
}

TEST(EventLogConcurrencyTest, ConcurrentEmissionCountsEveryEvent) {
  EventLog trace;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const uint64_t start = NowMicros();
        trace.Complete("morsel", "scheduler", start, 1,
                       static_cast<uint32_t>(100 + t),
                       {{"morsel", static_cast<uint64_t>(i)}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.size(), static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_NE(trace.ToChromeJson().find("\"morsel\""), std::string::npos);
}

// EXPLAIN ANALYZE's prediction column is PredictAlgorithmCosts over the
// query's AnalyticalConfig; on the paper's configurations it must reproduce
// the same Table 2 milliseconds the cost-model fixtures pin down.
TEST(ExplainPredictionTest, MatchesPaperTable2OnAllCells) {
  for (const Table2Row& row : PaperTable2()) {
    const AnalyticalConfig config =
        AnalyticalConfig::Paper(row.divisor_tuples, row.quotient_tuples);
    const std::map<DivisionAlgorithm, double> predicted =
        PredictAlgorithmCosts(config);
    const std::string cell = "S=" + std::to_string(row.divisor_tuples) +
                             " Q=" + std::to_string(row.quotient_tuples);
    EXPECT_NEAR(predicted.at(DivisionAlgorithm::kNaive), row.naive, 1.0)
        << cell;
    EXPECT_NEAR(predicted.at(DivisionAlgorithm::kSortAggregate),
                row.sort_agg, 1.0)
        << cell;
    EXPECT_NEAR(predicted.at(DivisionAlgorithm::kSortAggregateWithJoin),
                row.sort_agg_join, 1.0)
        << cell;
    EXPECT_NEAR(predicted.at(DivisionAlgorithm::kHashAggregate),
                row.hash_agg, 1.0)
        << cell;
    EXPECT_NEAR(predicted.at(DivisionAlgorithm::kHashAggregateWithJoin),
                row.hash_agg_join, 1.0)
        << cell;
    EXPECT_NEAR(predicted.at(DivisionAlgorithm::kHashDivision), row.hash_div,
                1.0)
        << cell;
  }
}

// A hash-division plan without a quotient-cardinality hint grows its
// quotient table past the 512-bucket start; the profile shows the bucket
// count the query ran at beside its candidates.
TEST(ProfileGaugesTest, GrownQuotientTableReportsItsBuckets) {
  WorkloadSpec spec;
  spec.divisor_cardinality = 4;
  spec.quotient_candidates = 3000;
  spec.seed = 5;
  GeneratedWorkload workload = GenerateWorkload(spec);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "grow", &dividend, &divisor));
  ExecContext* ctx = db->ctx();
  ctx->set_profiling(true);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(ctx, DivisionQuery{dividend, divisor, {"divisor_id"}},
                       DivisionAlgorithm::kHashDivision));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient, CollectAll(plan.get()));
  EXPECT_EQ(quotient.size(), workload.expected_quotient.size());

  ASSERT_NE(ctx->profile(), nullptr);
  ASSERT_EQ(ctx->profile()->roots().size(), 1u);
  std::map<std::string, double> gauges;
  for (const auto& [name, value] : ctx->profile()->roots()[0]->metrics().gauges) {
    gauges[name] = value;
  }
  ASSERT_TRUE(gauges.count(metric_names::kGaugeQuotientCandidates));
  ASSERT_TRUE(gauges.count(metric_names::kGaugeQuotientBuckets));
  const double candidates = gauges[metric_names::kGaugeQuotientCandidates];
  const double buckets = gauges[metric_names::kGaugeQuotientBuckets];
  EXPECT_GT(candidates, 2 * 512.0);
  EXPECT_GT(buckets, 512.0);
  EXPECT_LE(candidates, 2 * buckets);
  EXPECT_NE(ctx->profile()->ToString().find(
                std::string(metric_names::kGaugeQuotientBuckets) + "="),
            std::string::npos)
      << ctx->profile()->ToString();
}

// End-to-end EXPLAIN ANALYZE on the §5.1 25×25 configuration: all four
// paper algorithms run, return the right quotient, and report the Table 2
// predictions beside per-algorithm measurements and a drift line whose
// history grows by one run per EXPLAIN.
TEST(ExplainAnalyzeTest, FourAlgorithmsOnPaperConfiguration) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(25, 25));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "ea", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};

  ExplainAnalyzeOptions options;
  options.config = AnalyticalConfig::Paper(25, 25);
  ASSERT_OK_AND_ASSIGN(ExplainAnalyzeResult result,
                       ExplainAnalyzeDivision(db->ctx(), query, options));
  EXPECT_FALSE(db->ctx()->profiling());  // restored after the runs

  const Table2Row& cell = PaperTable2().front();  // S=25, Q=25
  ASSERT_EQ(result.runs.size(), 4u);
  const std::map<DivisionAlgorithm, double> expected = {
      {DivisionAlgorithm::kNaive, cell.naive},
      {DivisionAlgorithm::kSortAggregate, cell.sort_agg},
      {DivisionAlgorithm::kHashAggregate, cell.hash_agg},
      {DivisionAlgorithm::kHashDivision, cell.hash_div},
  };
  for (const ExplainedRun& run : result.runs) {
    ASSERT_TRUE(expected.count(run.algorithm))
        << DivisionAlgorithmName(run.algorithm);
    EXPECT_NEAR(run.predicted_ms, expected.at(run.algorithm), 1.0)
        << DivisionAlgorithmName(run.algorithm);
    EXPECT_EQ(run.quotient_tuples, workload.expected_quotient.size());
    EXPECT_GT(run.measured.cpu_ms, 0.0);
    EXPECT_GE(run.measured.wall_ms, 0.0);
    EXPECT_NE(run.operator_tree.find(DivisionAlgorithmName(run.algorithm)),
              std::string::npos);
    EXPECT_NE(result.text.find(DivisionAlgorithmName(run.algorithm)),
              std::string::npos);
  }

  ASSERT_OK_AND_ASSIGN(ExplainAnalyzeResult again,
                       ExplainAnalyzeDivision(db->ctx(), query, options));
  ASSERT_EQ(again.runs.size(), 4u);
  for (const ExplainAnalyzeResult* report : {&result, &again}) {
    size_t drift_lines = 0;
    for (size_t pos = report->text.find("\n  drift: ");
         pos != std::string::npos;
         pos = report->text.find("\n  drift: ", pos + 1)) {
      ++drift_lines;
    }
    EXPECT_EQ(drift_lines, report->runs.size()) << report->text;
  }
  const auto hash_division = [](const ExplainAnalyzeResult& report) {
    for (const ExplainedRun& run : report.runs) {
      if (run.algorithm == DivisionAlgorithm::kHashDivision) return run;
    }
    return ExplainedRun{};
  };
  EXPECT_GE(hash_division(result).drift_historical_runs, 1u);
  EXPECT_EQ(hash_division(again).drift_historical_runs,
            hash_division(result).drift_historical_runs + 1);
  EXPECT_NE(MetricRegistry::Global().ToPrometheusText().find(
                metric_names::kDriftAbsErrorPpm),
            std::string::npos);
}

// EXPLAIN ANALYZE with the adaptive run on: a hash budget too small for the
// in-memory tables makes the adaptive run degrade at its memory-pressure
// checkpoint, and the report renders that chain as the run's "replan:" line
// beside the static partitioned run.
TEST(ExplainAnalyzeTest, AdaptiveRunRendersReplanLine) {
  WorkloadSpec spec;
  spec.divisor_cardinality = 8;
  spec.quotient_candidates = 40;
  spec.candidate_completeness = 0.5;
  spec.seed = 7;
  GeneratedWorkload workload = GenerateWorkload(spec);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open());
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "ead", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};

  ExplainAnalyzeOptions options;
  options.algorithms = {DivisionAlgorithm::kHashDivisionPartitioned};
  options.division.num_partitions = 8;
  options.adaptive = true;
  options.adaptive_options.division.num_partitions = 8;
  options.adaptive_options.forced_initial = DivisionAlgorithm::kHashDivision;
  options.adaptive_options.use_stats_cache = false;
  db->ctx()->set_hash_memory_bytes(2 * 1024);
  ASSERT_OK_AND_ASSIGN(ExplainAnalyzeResult result,
                       ExplainAnalyzeDivision(db->ctx(), query, options));
  db->ctx()->set_hash_memory_bytes(0);
  EXPECT_FALSE(db->ctx()->profiling());

  ASSERT_EQ(result.runs.size(), 2u);
  for (const ExplainedRun& run : result.runs) {
    EXPECT_EQ(run.algorithm, DivisionAlgorithm::kHashDivisionPartitioned);
    EXPECT_EQ(run.quotient_tuples, workload.expected_quotient.size());
  }
  EXPECT_TRUE(result.runs[0].replan_line.empty());
  const ExplainedRun& adaptive = result.runs[1];
  EXPECT_NE(adaptive.operator_tree.find("hash-division-partitioned"),
            std::string::npos)
      << adaptive.operator_tree;
  const std::string replan =
      "\n  replan: hash-division -> hash-division-partitioned "
      "(memory-pressure at ";
  EXPECT_NE(result.text.find(replan), std::string::npos) << result.text;
  const std::string rows =
      ", " + std::to_string(workload.expected_quotient.size()) + " rows]";
  const size_t adaptive_header = result.text.find("\nadaptive  [predicted ");
  ASSERT_NE(adaptive_header, std::string::npos) << result.text;
  EXPECT_LT(result.text.find(rows, adaptive_header), result.text.find(replan))
      << result.text;
}

}  // namespace
}  // namespace reldiv
