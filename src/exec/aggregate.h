#ifndef RELDIV_EXEC_AGGREGATE_H_
#define RELDIV_EXEC_AGGREGATE_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/tuple.h"

namespace reldiv {

/// Aggregate functions supported by the aggregation operators. COUNT is the
/// one the paper's division-by-aggregation strategy needs; COUNT DISTINCT is
/// footnote 1's "explicitly request uniqueness of the ... counted" form,
/// which makes the counting strategies robust to duplicate inputs without a
/// separate duplicate-elimination pass. No division plan reads any other
/// aggregate, so there is none.
enum class AggFn { kCount, kCountDistinct };

/// One aggregate: the function, its argument column (ignored for COUNT),
/// and the name of the output field. COUNT DISTINCT may count composite
/// keys by listing several columns in `args` (which overrides `arg`).
struct AggSpec {
  AggSpec() = default;
  AggSpec(AggFn fn_in, size_t arg_in, std::string name_in)
      : fn(fn_in), arg(arg_in), name(std::move(name_in)) {}
  AggSpec(AggFn fn_in, size_t arg_in, std::string name_in,
          std::vector<size_t> args_in)
      : fn(fn_in),
        arg(arg_in),
        name(std::move(name_in)),
        args(std::move(args_in)) {}

  AggFn fn = AggFn::kCount;
  size_t arg = 0;
  std::string name = "count";
  std::vector<size_t> args;  ///< kCountDistinct: composite key columns

  std::vector<size_t> distinct_columns() const {
    return args.empty() ? std::vector<size_t>{arg} : args;
  }
};

/// Running accumulator for a list of AggSpecs.
class AggState {
 public:
  explicit AggState(const std::vector<AggSpec>& specs);

  /// Folds one input tuple into the accumulators.
  void Update(const std::vector<AggSpec>& specs, const Tuple& tuple);

  /// Appends the finalized aggregate values to `out`.
  void Finish(const std::vector<AggSpec>& specs, Tuple* out) const;

 private:
  std::vector<int64_t> counts_;            ///< per COUNT spec
  std::vector<std::set<Tuple>> distinct_;  ///< per COUNT DISTINCT spec
};

/// Output fields contributed by `specs` given the input schema.
Result<std::vector<Field>> AggOutputFields(const Schema& input,
                                           const std::vector<AggSpec>& specs);

}  // namespace reldiv

#endif  // RELDIV_EXEC_AGGREGATE_H_
