#include "planner/physical_planner.h"

#include <algorithm>

#include "common/config.h"
#include "division/count_filter.h"
#include "exec/contract_check.h"
#include "exec/filter.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/materialize.h"
#include "exec/merge_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "storage/record_file.h"

namespace reldiv {

DivisionStats EstimateDivisionStats(const ResolvedDivision& resolved,
                                    const ExecContext* ctx) {
  DivisionStats stats;
  stats.dividend_tuples =
      static_cast<double>(resolved.dividend.store->num_records());
  stats.dividend_pages =
      static_cast<double>(resolved.dividend.store->num_pages());
  stats.divisor_tuples =
      static_cast<double>(resolved.divisor.store->num_records());
  stats.divisor_pages =
      std::max(1.0, static_cast<double>(resolved.divisor.store->num_pages()));
  stats.quotient_estimate =
      stats.divisor_tuples > 0
          ? stats.dividend_tuples / stats.divisor_tuples
          : stats.dividend_tuples;
  if (ctx != nullptr && ctx->pool() != nullptr) {
    stats.memory_pages =
        static_cast<double>(ctx->pool()->budget()) / kPageSize;
  }
  return stats;
}

namespace {

/// Rough per-entry bytes for the in-memory hash tables; used for the
/// overflow prediction. A TupleHashTable entry is charged exactly its 48-byte
/// header plus its flat row (56 bytes for one int64 column); the margin
/// above that covers wider and string keys and arena chunk tails. The bit
/// maps are added separately below.
constexpr double kHashEntryBytes = 96;

}  // namespace

std::map<DivisionAlgorithm, double> PredictAlgorithmCosts(
    const AnalyticalConfig& config, const CostUnits& units) {
  CostModel model(units);
  std::map<DivisionAlgorithm, double> predicted;
  predicted[DivisionAlgorithm::kNaive] = model.NaiveDivisionCost(config);
  predicted[DivisionAlgorithm::kSortAggregate] =
      model.SortAggregationCost(config, /*with_join=*/false);
  predicted[DivisionAlgorithm::kSortAggregateWithJoin] =
      model.SortAggregationCost(config, /*with_join=*/true);
  predicted[DivisionAlgorithm::kHashAggregate] =
      model.HashAggregationCost(config, /*with_join=*/false);
  predicted[DivisionAlgorithm::kHashAggregateWithJoin] =
      model.HashAggregationCost(config, /*with_join=*/true);
  predicted[DivisionAlgorithm::kHashDivision] =
      model.HashDivisionCost(config);
  // The §3.4 partitioned form executes the same formulas plus partitioning
  // I/O; the model's base figure is the closest published prediction.
  predicted[DivisionAlgorithm::kHashDivisionPartitioned] =
      model.HashDivisionCost(config);
  return predicted;
}

AnalyticalConfig AnalyticalConfigFromStats(const DivisionStats& stats) {
  AnalyticalConfig config;
  config.dividend_tuples = stats.dividend_tuples;
  config.dividend_pages = std::max(1.0, stats.dividend_pages);
  config.divisor_tuples = stats.divisor_tuples;
  config.divisor_pages = std::max(1.0, stats.divisor_pages);
  config.quotient_tuples = stats.quotient_estimate;
  config.quotient_pages = std::max(
      1.0, stats.divisor_tuples > 0
               ? stats.dividend_pages / stats.divisor_tuples
               : stats.dividend_pages);
  config.memory_pages = stats.memory_pages;
  return config;
}

AlgorithmChoice ChooseDivisionAlgorithm(const DivisionStats& stats,
                                        const CostUnits& units) {
  CostModel model(units);
  AnalyticalConfig config = AnalyticalConfigFromStats(stats);
  const std::map<DivisionAlgorithm, double> base =
      PredictAlgorithmCosts(config, units);
  AlgorithmChoice choice;

  // Duplicate-elimination surcharge for the aggregation strategies: sort
  // both inputs with dup-elim and rewrite them (§2 / footnote 1).
  const double dedup_surcharge =
      stats.may_contain_duplicates
          ? model.SortCost(config.dividend_tuples, config.dividend_pages,
                           config) +
                model.SortCost(config.divisor_tuples, config.divisor_pages,
                               config) +
                2 * (config.dividend_pages + config.divisor_pages) *
                    units.sio_ms
          : 0;

  choice.predicted_ms[DivisionAlgorithm::kNaive] =
      base.at(DivisionAlgorithm::kNaive);
  const DivisionAlgorithm sort_agg =
      stats.divisor_restricted ? DivisionAlgorithm::kSortAggregateWithJoin
                               : DivisionAlgorithm::kSortAggregate;
  const DivisionAlgorithm hash_agg =
      stats.divisor_restricted ? DivisionAlgorithm::kHashAggregateWithJoin
                               : DivisionAlgorithm::kHashAggregate;
  choice.predicted_ms[sort_agg] = base.at(sort_agg) + dedup_surcharge;
  choice.predicted_ms[hash_agg] = base.at(hash_agg) + dedup_surcharge;

  // Hash-division: check that divisor table + quotient table fit; predict
  // the §3.4 partitioned form (one extra partitioning read+write of the
  // dividend) otherwise, with enough clusters that each one's tables take
  // half the memory.
  const double table_bytes =
      (stats.divisor_tuples + stats.quotient_estimate) * kHashEntryBytes +
      stats.quotient_estimate * (stats.divisor_tuples / 8);
  const double memory_bytes =
      stats.memory_pages * static_cast<double>(kPageSize);
  choice.num_partitions = static_cast<size_t>(
      std::max(2.0, 2 * table_bytes / std::max(1.0, memory_bytes)) + 1);
  const double hash_div = base.at(DivisionAlgorithm::kHashDivision);
  if (table_bytes > 0.8 * memory_bytes) {
    choice.needs_partitioning = true;
    // Prefer the strategy that shrinks whichever table is oversized; the
    // divisor table must fit resident for quotient partitioning.
    choice.partition_strategy =
        stats.divisor_tuples * kHashEntryBytes > 0.5 * memory_bytes
            ? PartitionStrategy::kDivisor
            : PartitionStrategy::kQuotient;
    choice.predicted_ms[DivisionAlgorithm::kHashDivisionPartitioned] =
        hash_div + 2 * config.dividend_pages * units.sio_ms;  // partition pass
  } else {
    choice.predicted_ms[DivisionAlgorithm::kHashDivision] = hash_div;
  }

  choice.algorithm = DivisionAlgorithm::kHashDivision;
  double best = 1e300;
  for (const auto& [algorithm, ms] : choice.predicted_ms) {
    if (ms < best) {
      best = ms;
      choice.algorithm = algorithm;
    }
  }
  return choice;
}

DivisionOptions OptionsForChoice(const AlgorithmChoice& choice,
                                 DivisionOptions base) {
  base.partition_strategy = choice.partition_strategy;
  if (choice.algorithm == DivisionAlgorithm::kHashDivisionPartitioned) {
    base.num_partitions = choice.num_partitions;
  }
  return base;
}

Status ValidatePlannerOptions(const DivisionOptions& options) {
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kNaive, DivisionAlgorithm::kSortAggregate,
        DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregate,
        DivisionAlgorithm::kHashAggregateWithJoin,
        DivisionAlgorithm::kHashDivision,
        DivisionAlgorithm::kHashDivisionPartitioned}) {
    RELDIV_RETURN_NOT_OK(ValidateDivisionOptions(algorithm, options));
  }
  return Status::OK();
}

Result<std::unique_ptr<Operator>> PlanDivision(ExecContext* ctx,
                                               const DivisionQuery& query,
                                               const DivisionOptions&
                                                   base_options,
                                               AlgorithmChoice* choice_out) {
  RELDIV_RETURN_NOT_OK(ValidatePlannerOptions(base_options));
  RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved, ResolveDivision(query));
  DivisionStats stats = EstimateDivisionStats(resolved, ctx);
  stats.may_contain_duplicates = base_options.eliminate_duplicates;
  // Without schema-level integrity knowledge the planner stays safe and
  // treats the divisor as potentially restricted.
  stats.divisor_restricted = true;
  AlgorithmChoice choice = ChooseDivisionAlgorithm(stats);
  if (choice_out != nullptr) *choice_out = choice;
  return MakeDivisionPlan(ctx, query, choice.algorithm,
                          OptionsForChoice(choice, base_options));
}

namespace {

struct CompileState {
  ExecContext* ctx;
  std::vector<std::unique_ptr<RecordStore>>* owned;
  CompileOptions options;
  int temp_counter = 0;
};

Result<std::unique_ptr<Operator>> CompileNode(const LogicalNode& node,
                                              CompileState* state);

/// Compiles `node` into a stored Relation: base relations pass through;
/// anything else is evaluated into a temporary record file.
Result<Relation> CompileToRelation(const LogicalNode& node,
                                   CompileState* state) {
  if (node.kind() == LogicalNodeKind::kRelation) {
    return static_cast<const LogicalRelationNode&>(node).relation();
  }
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> plan,
                          CompileNode(node, state));
  auto store = std::make_unique<RecordFile>(
      state->ctx->disk(), state->ctx->buffer_manager(),
      "planner-temp-" + std::to_string(state->temp_counter++));
  RELDIV_ASSIGN_OR_RETURN(
      uint64_t n,
      Materialize(plan.get(), store.get(), state->ctx->batch_capacity()));
  (void)n;
  Relation relation{plan->output_schema(), store.get()};
  state->owned->push_back(std::move(store));
  return relation;
}

Result<std::unique_ptr<Operator>> CompileNode(const LogicalNode& node,
                                              CompileState* state) {
  switch (node.kind()) {
    case LogicalNodeKind::kRelation: {
      const auto& relation = static_cast<const LogicalRelationNode&>(node);
      return std::unique_ptr<Operator>(
          std::make_unique<ScanOperator>(state->ctx, relation.relation()));
    }
    case LogicalNodeKind::kSelect: {
      const auto& select = static_cast<const LogicalSelectNode&>(node);
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> input,
                              CompileNode(node.child(0), state));
      return std::unique_ptr<Operator>(std::make_unique<FilterOperator>(
          std::move(input), select.predicate()));
    }
    case LogicalNodeKind::kProject: {
      const auto& project = static_cast<const LogicalProjectNode&>(node);
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> input,
                              CompileNode(node.child(0), state));
      std::unique_ptr<Operator> plan = std::make_unique<ProjectOperator>(
          std::move(input), project.indices());
      if (project.distinct()) {
        SortSpec spec;
        spec.keys.resize(project.indices().size());
        for (size_t i = 0; i < spec.keys.size(); ++i) spec.keys[i] = i;
        spec.collapse_equal_keys = true;
        plan = std::make_unique<SortOperator>(state->ctx, std::move(plan),
                                              std::move(spec));
      }
      return plan;
    }
    case LogicalNodeKind::kSemiJoin: {
      const auto& semi = static_cast<const LogicalSemiJoinNode&>(node);
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> left,
                              CompileNode(node.child(0), state));
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> right,
                              CompileNode(node.child(1), state));
      if (state->options.engine == PhysicalEngine::kSortBased) {
        // System R / Ingres shape: sort both inputs, merge semi-join.
        SortSpec left_sort;
        left_sort.keys = semi.left_keys();
        SortSpec right_sort;
        right_sort.keys = semi.right_keys();
        auto sorted_left = std::make_unique<SortOperator>(
            state->ctx, std::move(left), std::move(left_sort));
        auto sorted_right = std::make_unique<SortOperator>(
            state->ctx, std::move(right), std::move(right_sort));
        return std::unique_ptr<Operator>(std::make_unique<MergeJoinOperator>(
            state->ctx, std::move(sorted_left), std::move(sorted_right),
            semi.left_keys(), semi.right_keys(), MergeJoinMode::kLeftSemi));
      }
      return std::unique_ptr<Operator>(std::make_unique<HashJoinOperator>(
          state->ctx, std::move(left), std::move(right), semi.left_keys(),
          semi.right_keys(), HashJoinMode::kLeftSemi));
    }
    case LogicalNodeKind::kAntiJoin: {
      // NOT EXISTS: hash anti-join under both engines — the merge join has
      // no anti mode, and the sort engine's distinguishing shapes (semi
      // join, aggregation during sorting) are unaffected by this choice.
      const auto& anti = static_cast<const LogicalAntiJoinNode&>(node);
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> left,
                              CompileNode(node.child(0), state));
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> right,
                              CompileNode(node.child(1), state));
      return std::unique_ptr<Operator>(std::make_unique<HashJoinOperator>(
          state->ctx, std::move(left), std::move(right), anti.left_keys(),
          anti.right_keys(), HashJoinMode::kLeftAnti));
    }
    case LogicalNodeKind::kCrossJoin: {
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> left,
                              CompileNode(node.child(0), state));
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> right,
                              CompileNode(node.child(1), state));
      // Inner hash join on zero key columns: every build tuple lands in one
      // bucket, every probe tuple compares equal on the empty key, and the
      // match fan-out enumerates the full product.
      return std::unique_ptr<Operator>(std::make_unique<HashJoinOperator>(
          state->ctx, std::move(left), std::move(right),
          std::vector<size_t>{}, std::vector<size_t>{},
          HashJoinMode::kInner));
    }
    case LogicalNodeKind::kExcept: {
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> left,
                              CompileNode(node.child(0), state));
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> right,
                              CompileNode(node.child(1), state));
      // Set semantics: distinct the left input (sort collapsing equal
      // keys), then anti-join against the right on every column.
      std::vector<size_t> all_columns(
          node.child(0).output_schema().num_fields());
      for (size_t i = 0; i < all_columns.size(); ++i) all_columns[i] = i;
      SortSpec spec;
      spec.keys = all_columns;
      spec.collapse_equal_keys = true;
      auto distinct_left = std::make_unique<SortOperator>(
          state->ctx, std::move(left), std::move(spec));
      return std::unique_ptr<Operator>(std::make_unique<HashJoinOperator>(
          state->ctx, std::move(distinct_left), std::move(right), all_columns,
          all_columns, HashJoinMode::kLeftAnti));
    }
    case LogicalNodeKind::kGroupCount: {
      const auto& gc = static_cast<const LogicalGroupCountNode&>(node);
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> input,
                              CompileNode(node.child(0), state));
      if (state->options.engine == PhysicalEngine::kSortBased) {
        // Aggregation during sorting (§2.2.1).
        SortSpec spec =
            CountingSortSpec(input->output_schema(), gc.group_indices());
        return std::unique_ptr<Operator>(std::make_unique<SortOperator>(
            state->ctx, std::move(input), std::move(spec)));
      }
      return std::unique_ptr<Operator>(
          std::make_unique<HashAggregateOperator>(
              state->ctx, std::move(input), gc.group_indices(),
              std::vector<AggSpec>{AggSpec{"count"}}));
    }
    case LogicalNodeKind::kCountFilter: {
      RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> input,
                              CompileNode(node.child(0), state));
      RELDIV_ASSIGN_OR_RETURN(Relation divisor,
                              CompileToRelation(node.child(1), state));
      return std::unique_ptr<Operator>(
          std::make_unique<GroupCountFilterOperator>(state->ctx,
                                                     std::move(input),
                                                     divisor));
    }
    case LogicalNodeKind::kDivision: {
      const auto& division = static_cast<const LogicalDivisionNode&>(node);
      RELDIV_ASSIGN_OR_RETURN(Relation dividend,
                              CompileToRelation(node.child(0), state));
      RELDIV_ASSIGN_OR_RETURN(Relation divisor,
                              CompileToRelation(node.child(1), state));
      DivisionQuery query;
      query.dividend = dividend;
      query.divisor = divisor;
      for (size_t idx : division.match_attrs()) {
        query.match_attrs.push_back(dividend.schema.field(idx).name);
      }
      return PlanDivision(state->ctx, query);
    }
  }
  return Status::NotSupported("unknown logical node kind");
}

}  // namespace

Result<std::unique_ptr<Operator>> CompileLogicalPlan(
    ExecContext* ctx, LogicalNodePtr plan, const CompileOptions& options) {
  auto owned = std::make_unique<std::vector<std::unique_ptr<RecordStore>>>();
  CompileState state{ctx, owned.get(), options, 0};
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> compiled,
                          CompileNode(*plan, &state));
  if (!owned->empty()) {
    compiled = std::make_unique<OwningOperator>(std::move(compiled),
                                                std::move(*owned));
  }
  // Division sub-plans are already wrapped by MakeDivisionPlan; wrapping the
  // compiled root as well validates the glue operators (scans, sorts,
  // joins, projections) the planner added around them.
  return MaybeContractCheck(ctx, std::move(compiled), "compiled-plan");
}

}  // namespace reldiv
