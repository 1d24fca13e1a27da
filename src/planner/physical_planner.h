#ifndef RELDIV_PLANNER_PHYSICAL_PLANNER_H_
#define RELDIV_PLANNER_PHYSICAL_PLANNER_H_

#include <map>
#include <memory>

#include "cost/cost_model.h"
#include "division/division.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "planner/logical_plan.h"

namespace reldiv {

/// Statistics the algorithm chooser works from.
struct DivisionStats {
  double dividend_tuples = 0;
  double dividend_pages = 0;
  double divisor_tuples = 0;
  double divisor_pages = 0;
  /// Distinct quotient-attr values; estimated as |R| / |S| (the R = Q × S
  /// heuristic) when unknown.
  double quotient_estimate = 0;
  double memory_pages = 100;

  /// The divisor is the result of a restriction, so dividend tuples may
  /// refer to values outside it: aggregation-based strategies then need the
  /// preceding semi-join (§2.2).
  bool divisor_restricted = false;

  /// Inputs may contain duplicates: aggregation strategies must pay an
  /// explicit duplicate-elimination pre-pass (naive division and
  /// hash-division need nothing).
  bool may_contain_duplicates = false;
};

/// Derives DivisionStats from the stored inputs of a resolved query.
DivisionStats EstimateDivisionStats(const ResolvedDivision& resolved,
                                    const ExecContext* ctx);

/// Maps chooser statistics onto the §4 analytical model's parameters (the
/// same mapping ChooseDivisionAlgorithm uses internally, exposed so EXPLAIN
/// ANALYZE can print the model's predictions beside measurements).
AnalyticalConfig AnalyticalConfigFromStats(const DivisionStats& stats);

/// Predicted total milliseconds per candidate algorithm under the §4
/// analytical model — the columns of paper Table 2 for one parameter point.
/// ChooseDivisionAlgorithm prices from these; EXPLAIN ANALYZE prints them
/// beside measurements; tests tie them back to the PaperTable2 fixtures via
/// AnalyticalConfig::Paper.
std::map<DivisionAlgorithm, double> PredictAlgorithmCosts(
    const AnalyticalConfig& config, const CostUnits& units = CostUnits{});

/// Outcome of cost-based algorithm selection.
struct AlgorithmChoice {
  DivisionAlgorithm algorithm = DivisionAlgorithm::kHashDivision;
  /// Predicted milliseconds per candidate algorithm (§4 formulas; the
  /// aggregation entries include semi-join and duplicate-elimination
  /// surcharges implied by the stats flags).
  std::map<DivisionAlgorithm, double> predicted_ms;
  /// Whether the chosen hash-division needs §3.4 overflow partitioning
  /// because divisor + quotient tables exceed memory.
  bool needs_partitioning = false;
  PartitionStrategy partition_strategy = PartitionStrategy::kQuotient;
  /// §3.4 partition count for the partitioned plan: enough clusters that
  /// each holds about half the memory's worth of table, and at least 3.
  /// Set whatever the chosen algorithm, because a re-plan or an optimizer
  /// hint can still run the partitioned plan.
  size_t num_partitions = 3;
};

/// Picks the cheapest applicable algorithm under the §4 cost model. This is
/// the component the paper says systems lacked: with it, the "contains"
/// formulation and the aggregate formulation both end up on the best direct
/// algorithm instead of an inferior strategy (§5.2).
AlgorithmChoice ChooseDivisionAlgorithm(const DivisionStats& stats,
                                        const CostUnits& units = CostUnits{});

/// The options a plan for `choice` runs with: `base` plus the chooser's §3.4
/// partition strategy and, when `choice.algorithm` is partitioned
/// hash-division, its partition count. PlanDivision and the adaptive
/// planner's static plans both map a choice through it.
DivisionOptions OptionsForChoice(const AlgorithmChoice& choice,
                                 DivisionOptions base);

/// ValidateDivisionOptions against every algorithm: the chooser or a
/// re-plan may run any of them, so a planner refuses an option that one of
/// them cannot honour before it runs anything.
Status ValidatePlannerOptions(const DivisionOptions& options);

/// One-call optimizer entry point: resolve, estimate, choose, build.
/// InvalidArgument when ValidatePlannerOptions refuses `base_options`.
Result<std::unique_ptr<Operator>> PlanDivision(
    ExecContext* ctx, const DivisionQuery& query,
    const DivisionOptions& base_options = {},
    AlgorithmChoice* choice_out = nullptr);

/// Which operator family the compiler uses for joins and aggregation —
/// modeling a sort-based system (System R, Ingres) or a hash-based one
/// (GAMMA), the two system classes §5.2 discusses. Division nodes always go
/// through the cost-based chooser; the engine setting shapes how an
/// UN-rewritten aggregate formulation executes.
enum class PhysicalEngine {
  kHashBased,  ///< hash semi-join, hash aggregation (default)
  kSortBased,  ///< merge semi-join over sorts, aggregation during sorting
};

/// Compilation options.
struct CompileOptions {
  PhysicalEngine engine = PhysicalEngine::kHashBased;
};

/// Compiles a logical plan (planner/logical_plan.h) to an executable
/// operator tree. Division nodes go through ChooseDivisionAlgorithm;
/// non-relation inputs of divisions and count filters are materialized into
/// temporary record files owned by the returned operator.
Result<std::unique_ptr<Operator>> CompileLogicalPlan(
    ExecContext* ctx, LogicalNodePtr plan, const CompileOptions& options = {});

}  // namespace reldiv

#endif  // RELDIV_PLANNER_PHYSICAL_PLANNER_H_
