#include "division/hash_agg_division.h"

#include "division/count_filter.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/materialize.h"
#include "exec/scan.h"
#include "obs/profiled_operator.h"

namespace reldiv {

Result<std::unique_ptr<Operator>> MakeHashAggregationDivisionPlan(
    ExecContext* ctx, const ResolvedDivision& resolved, bool with_join,
    const DivisionOptions& options) {
  std::unique_ptr<Operator> dividend_input =
      MaybeProfile(ctx, std::make_unique<ScanOperator>(ctx, resolved.dividend),
                   "scan(dividend)");

  if (with_join) {
    // Hash semi-join with its own hash table built on the divisor attrs
    // (§2.2.2: "the hash table used for the join is a different one than
    // the one used for aggregation").
    std::vector<size_t> divisor_keys(resolved.divisor.schema.num_fields());
    for (size_t i = 0; i < divisor_keys.size(); ++i) divisor_keys[i] = i;
    // Sibling subtree of the dividend scan built above.
    const size_t divisor_mark = ProfileMark(ctx);
    auto divisor_scan = MaybeProfile(
        ctx, std::make_unique<ScanOperator>(ctx, resolved.divisor),
        "scan(divisor)", divisor_mark);
    auto semi_join = MaybeProfile(
        ctx,
        std::make_unique<HashJoinOperator>(
            ctx, std::move(dividend_input), std::move(divisor_scan),
            resolved.match_attrs, std::move(divisor_keys),
            HashJoinMode::kLeftSemi,
            options.expected_divisor_cardinality != 0
                ? options.expected_divisor_cardinality
                : resolved.divisor.store->num_records()),
        "hash-semi-join");
    // Spool the semi-join output; the aggregation re-reads it (§4.4 charges
    // the aggregation's own input scan in the with-join cost).
    dividend_input = MaybeProfile(
        ctx, std::make_unique<SpoolOperator>(ctx, std::move(semi_join)),
        "spool");
  }

  auto aggregated = MaybeProfile(
      ctx,
      std::make_unique<HashAggregateOperator>(
          ctx, std::move(dividend_input), resolved.quotient_attrs,
          std::vector<AggSpec>{AggSpec{"count"}},
          options.expected_quotient_cardinality),
      "hash-aggregate");
  return std::unique_ptr<Operator>(std::make_unique<GroupCountFilterOperator>(
      ctx, std::move(aggregated), resolved.divisor));
}

}  // namespace reldiv
