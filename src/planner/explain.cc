#include "planner/explain.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/metric_names.h"
#include "exec/operator.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace reldiv {

namespace {

/// Drift histogram unit: |relative error| is recorded in parts per million.
constexpr double kPpm = 1e6;

std::string Ms(double ms) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1f", ms);
  return buf;
}

std::string SignedPercent(double fraction) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.1f%%", fraction * 100.0);
  return buf;
}

std::string Percent(double fraction) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

std::string PadLeft(std::string s, size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

std::string PadRight(std::string s, size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

/// Indents every line of a rendered metrics tree by two spaces.
void AppendIndented(const std::string& tree, std::string* out) {
  size_t pos = 0;
  while (pos < tree.size()) {
    size_t eol = tree.find('\n', pos);
    if (eol == std::string::npos) eol = tree.size();
    out->append("  ");
    out->append(tree, pos, eol - pos);
    out->push_back('\n');
    pos = eol + 1;
  }
}

double PredictedMs(const std::map<DivisionAlgorithm, double>& predicted,
                   DivisionAlgorithm algorithm) {
  auto it = predicted.find(algorithm);
  return it != predicted.end() ? it->second : 0;
}

/// Builds a plan with `make_plan` and runs it to completion with profiling
/// on, filling `run`'s measured columns, row count and operator tree. Plan
/// construction is inside the measurement: it may pre-process the inputs.
/// Returns the finished plan so the caller can read its report.
template <typename MakePlan>
auto MeasureRun(ExecContext* ctx, const ExplainAnalyzeOptions& options,
                const MakePlan& make_plan, ExplainedRun* run)
    -> decltype(make_plan()) {
  ctx->set_profiling(true);  // fresh QueryProfile per run
  const CpuCounters cpu_before = *ctx->counters();
  const DiskStats io_before = ctx->disk()->stats();
  const auto wall_start = std::chrono::steady_clock::now();
  RELDIV_ASSIGN_OR_RETURN(auto plan, make_plan());
  RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                          CollectAll(plan.get(), ctx->batch_capacity()));
  run->measured.cpu_counters = *ctx->counters() - cpu_before;
  run->measured.io_stats = ctx->disk()->stats() - io_before;
  run->measured.cpu_ms = CpuCostMs(run->measured.cpu_counters, options.units);
  run->measured.io_ms = IoCostMs(run->measured.io_stats, options.io_weights);
  run->measured.wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
  run->quotient_tuples = rows.size();
  run->operator_tree = ctx->profile()->ToString();
  return plan;
}

}  // namespace

Result<ExplainAnalyzeResult> ExplainAnalyzeDivision(
    ExecContext* ctx, const DivisionQuery& query,
    const ExplainAnalyzeOptions& options) {
  RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved, ResolveDivision(query));

  ExplainAnalyzeResult result;
  result.stats = EstimateDivisionStats(resolved, ctx);
  result.config = options.config.has_value()
                      ? *options.config
                      : AnalyticalConfigFromStats(result.stats);
  const std::map<DivisionAlgorithm, double> predicted =
      PredictAlgorithmCosts(result.config, options.units);

  std::vector<DivisionAlgorithm> algorithms = options.algorithms;
  if (algorithms.empty()) {
    algorithms = {DivisionAlgorithm::kNaive, DivisionAlgorithm::kSortAggregate,
                  DivisionAlgorithm::kHashAggregate,
                  DivisionAlgorithm::kHashDivision};
  }

  // Every run profiles; the caller's setting is restored on every return.
  struct RestoreProfiling {
    ExecContext* ctx;
    bool enabled;
    ~RestoreProfiling() { ctx->set_profiling(enabled); }
  } restore{ctx, ctx->profiling()};
  for (DivisionAlgorithm algorithm : algorithms) {
    ExplainedRun run;
    run.algorithm = algorithm;
    RELDIV_RETURN_NOT_OK(
        MeasureRun(ctx, options,
                   [&] {
                     return MakeDivisionPlan(ctx, query, algorithm,
                                             options.division);
                   },
                   &run)
            .status());
    run.predicted_ms = PredictedMs(predicted, algorithm);

    // Record this run's |error| in the per-algorithm drift histogram, then
    // read the history back so the report can put the run in context.
    // Recorded in every telemetry mode: the drift line depends on it.
    run.drift_relative_error =
        run.predicted_ms == 0
            ? 0
            : (run.measured.total_ms() - run.predicted_ms) / run.predicted_ms;
    Histogram* drift = MetricRegistry::Global().FindOrCreateHistogram(
        metric_names::kDriftAbsErrorPpm, "algorithm",
        DivisionAlgorithmName(algorithm));
    drift->Record(
        static_cast<uint64_t>(std::llround(
            std::fabs(run.drift_relative_error) * kPpm)));
    run.drift_historical_runs = drift->count();
    run.drift_historical_mean_abs_error =
        static_cast<double>(drift->sum()) /
        (kPpm * static_cast<double>(run.drift_historical_runs));
    result.runs.push_back(std::move(run));
  }

  if (options.adaptive) {
    ExplainedRun run;
    RELDIV_ASSIGN_OR_RETURN(
        std::unique_ptr<AdaptiveDivisionOperator> plan,
        MeasureRun(ctx, options,
                   [&] {
                     return PlanAdaptiveDivision(ctx, query,
                                                 options.adaptive_options);
                   },
                   &run));
    run.algorithm = plan->report().final_algorithm;
    run.predicted_ms = PredictedMs(predicted, run.algorithm);
    run.replan_line = plan->report().ToLine();
    result.runs.push_back(std::move(run));
  }

  // ---- Rendering: prediction table (Table 2 columns), then one annotated
  // operator tree per run (Table 4 measurements). ----
  std::string& out = result.text;
  out += "EXPLAIN ANALYZE relational division\n";
  out += "  dividend: " + std::to_string(static_cast<uint64_t>(
                              result.stats.dividend_tuples)) +
         " tuples / " +
         std::to_string(static_cast<uint64_t>(result.stats.dividend_pages)) +
         " pages   divisor: " +
         std::to_string(static_cast<uint64_t>(result.stats.divisor_tuples)) +
         " tuples / " +
         std::to_string(static_cast<uint64_t>(result.stats.divisor_pages)) +
         " pages\n";
  out += "  model: |S|=" + std::to_string(static_cast<uint64_t>(
                               result.config.divisor_tuples)) +
         " |Q|=" +
         std::to_string(static_cast<uint64_t>(result.config.quotient_tuples)) +
         " |R|=" +
         std::to_string(static_cast<uint64_t>(result.config.dividend_tuples)) +
         " m=" +
         std::to_string(static_cast<uint64_t>(result.config.memory_pages)) +
         " pages\n";
  // The §4 formulas model one instruction stream. Intra-node lanes shrink
  // wall_ms toward cpu_ms/dop but leave every counted column untouched —
  // the fragment decompositions are worker-count-independent by design.
  out += "  parallelism: dop=" + std::to_string(ctx->dop()) +
         " worker lane" + (ctx->dop() == 1 ? "" : "s") +
         " (predicted/cpu/io columns are single-stream model figures, "
         "invariant under dop)\n\n";

  constexpr size_t kName = 24;
  constexpr size_t kCol = 13;
  out += "  " + PadRight("algorithm", kName) +
         PadLeft("predicted_ms", kCol) + PadLeft("measured_ms", kCol) +
         PadLeft("cpu_ms", kCol) + PadLeft("io_ms", kCol) +
         PadLeft("wall_ms", kCol) + PadLeft("rows", kCol) + "\n";
  for (const ExplainedRun& run : result.runs) {
    out += "  " +
           PadRight(run.replan_line.empty()
                        ? DivisionAlgorithmName(run.algorithm)
                        : "adaptive",
                    kName) +
           PadLeft(Ms(run.predicted_ms), kCol) +
           PadLeft(Ms(run.measured.total_ms()), kCol) +
           PadLeft(Ms(run.measured.cpu_ms), kCol) +
           PadLeft(Ms(run.measured.io_ms), kCol) +
           PadLeft(Ms(run.measured.wall_ms), kCol) +
           PadLeft(std::to_string(run.quotient_tuples), kCol) + "\n";
  }
  out += "\n";
  for (const ExplainedRun& run : result.runs) {
    out += std::string(run.replan_line.empty()
                           ? DivisionAlgorithmName(run.algorithm)
                           : "adaptive") +
           "  [predicted " + Ms(run.predicted_ms) + " ms, measured " +
           Ms(run.measured.total_ms()) + " ms = cpu " +
           Ms(run.measured.cpu_ms) + " + io " + Ms(run.measured.io_ms) +
           ", wall " + Ms(run.measured.wall_ms) + " ms, " +
           std::to_string(run.quotient_tuples) + " rows]\n";
    if (run.replan_line.empty()) {
      out += "  drift: " + SignedPercent(run.drift_relative_error) +
             " vs model; historical mean |error| " +
             Percent(run.drift_historical_mean_abs_error) + " over " +
             std::to_string(run.drift_historical_runs) + " run" +
             (run.drift_historical_runs == 1 ? "" : "s") + "\n";
    } else {
      out += "  replan: " + run.replan_line + "\n";
    }
    AppendIndented(run.operator_tree, &out);
  }
  return result;
}

}  // namespace reldiv
