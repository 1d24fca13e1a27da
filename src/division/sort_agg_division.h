#ifndef RELDIV_DIVISION_SORT_AGG_DIVISION_H_
#define RELDIV_DIVISION_SORT_AGG_DIVISION_H_

#include <memory>

#include "division/division.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Builds the §2.2.1 plan: division expressed with sort-based aggregation.
///
/// Without join ("find the students who have taken as many courses as there
/// are courses offered"):
///   scalar count of the divisor (inside GroupCountFilter's Open)
///   + sort of the dividend on the quotient attrs with aggregation during
///     sorting (each tuple lifted to (quotient attrs, 1), equal keys
///     combined by adding counts — the paper's "obvious optimization")
///   + selection of groups whose count equals the divisor count.
///
/// With join (restricted divisor, example 2): the dividend is first sorted
/// on the divisor attrs and merge-semi-joined with the sorted divisor so
/// that only valid tuples are counted; the join output must then be sorted
/// AGAIN on the quotient attrs — the extra sort that makes this the most
/// expensive strategy in Tables 2 and 4.
///
/// Precondition: duplicate-free inputs (use
/// DivisionOptions::eliminate_duplicates through the facade otherwise).
Result<std::unique_ptr<Operator>> MakeSortAggregationDivisionPlan(
    ExecContext* ctx, const ResolvedDivision& resolved, bool with_join);

}  // namespace reldiv

#endif  // RELDIV_DIVISION_SORT_AGG_DIVISION_H_
