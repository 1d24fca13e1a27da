#ifndef RELDIV_PLANNER_EXPLAIN_H_
#define RELDIV_PLANNER_EXPLAIN_H_

#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cost/io_cost.h"
#include "division/division.h"
#include "exec/exec_context.h"
#include "planner/adaptive.h"
#include "planner/physical_planner.h"

namespace reldiv {

/// One algorithm's measured execution inside an EXPLAIN ANALYZE report.
struct ExplainedRun {
  DivisionAlgorithm algorithm = DivisionAlgorithm::kHashDivision;
  /// Analytical-model total for this algorithm (Table 2 entry).
  double predicted_ms = 0;
  /// Measured run in the paper's reporting scheme: Table 1 CPU cost of the
  /// observed operation counts plus Table 3 I/O cost of the observed disk
  /// statistics (Table 4 entry), with host wall time for reference.
  ExperimentalCost measured;
  uint64_t quotient_tuples = 0;
  /// Cost-model drift of this run: signed (measured - predicted) / predicted,
  /// 0 when the prediction is 0. Its magnitude is recorded in the registry
  /// histogram reldiv_cost_drift_abs_error_ppm{algorithm=...}.
  double drift_relative_error = 0;
  /// Historical mean |relative error| for this algorithm over every EXPLAIN
  /// ANALYZE run since process start (or the last registry reset), this run
  /// included: the drift histogram's sum / count.
  double drift_historical_mean_abs_error = 0;
  /// Runs contributing to the historical mean, this run included.
  uint64_t drift_historical_runs = 0;
  /// Per-operator metrics tree of the profiled run (QueryProfile render):
  /// rows, call counts, inclusive/self time, counters, I/O, gauges.
  std::string operator_tree;
  /// Adaptive runs only: the AdaptiveReport::ToLine() chain (initial choice,
  /// triggers, final algorithm). Empty for static runs; the report renders a
  /// "replan:" line when set.
  std::string replan_line;
};

/// Outcome of ExplainAnalyzeDivision: the structured data plus the rendered
/// report in `text`.
struct ExplainAnalyzeResult {
  DivisionStats stats;
  AnalyticalConfig config;
  std::vector<ExplainedRun> runs;
  std::string text;
};

/// Options for ExplainAnalyzeDivision.
struct ExplainAnalyzeOptions {
  /// Algorithms to run and report. Empty selects the paper's four:
  /// naive, sort-aggregation, hash-aggregation, hash-division.
  std::vector<DivisionAlgorithm> algorithms;
  /// Execution options forwarded to every MakeDivisionPlan call.
  DivisionOptions division;
  /// Table 1 unit times for both the predicted column and the measured CPU
  /// conversion.
  CostUnits units;
  /// Table 3 weights for the measured I/O conversion.
  ExperimentalCostWeights io_weights;
  /// Analytical-model parameters for the predicted column. Defaults to
  /// AnalyticalConfigFromStats of the stored inputs; set explicitly to pin a
  /// paper configuration (e.g. AnalyticalConfig::Paper(25, 25)).
  std::optional<AnalyticalConfig> config;
  /// Additionally execute the query under AdaptiveDivisionOperator and
  /// append an "adaptive" run whose report carries the "replan:" line.
  bool adaptive = false;
  /// Options for that adaptive run (its DivisionOptions/CostUnits are taken
  /// from here, not from `division`/`units` above).
  AdaptiveOptions adaptive_options;
};

/// EXPLAIN ANALYZE for relational division: runs each requested algorithm
/// over the stored inputs with profiling enabled and renders, per algorithm,
/// the analytical model's predicted cost beside the measured cost (paper
/// Table 2 vs Table 4 as a runtime feature) above the per-operator metrics
/// tree with measured rows, calls, time, operation counters, and I/O.
///
/// The context's profiling flag is restored on return; counters and disk
/// statistics advance as with any execution.
Result<ExplainAnalyzeResult> ExplainAnalyzeDivision(
    ExecContext* ctx, const DivisionQuery& query,
    const ExplainAnalyzeOptions& options = {});

}  // namespace reldiv

#endif  // RELDIV_PLANNER_EXPLAIN_H_
