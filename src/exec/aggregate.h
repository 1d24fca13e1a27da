#ifndef RELDIV_EXEC_AGGREGATE_H_
#define RELDIV_EXEC_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"

namespace reldiv {

/// One aggregate, named by its output field. COUNT is the only aggregate:
/// it is the one the paper's division-by-aggregation strategy needs, and no
/// division plan reads any other.
struct AggSpec {
  std::string name = "count";
};

/// Running accumulator for a list of AggSpecs.
class AggState {
 public:
  explicit AggState(const std::vector<AggSpec>& specs);

  /// Counts one input tuple in every accumulator.
  void Update(const std::vector<AggSpec>& specs);

  /// Appends the finalized aggregate values to `out`.
  void Finish(const std::vector<AggSpec>& specs, Tuple* out) const;

 private:
  std::vector<int64_t> counts_;  ///< per COUNT spec
};

/// Output fields contributed by `specs`: one int64 field per aggregate.
std::vector<Field> AggOutputFields(const std::vector<AggSpec>& specs);

}  // namespace reldiv

#endif  // RELDIV_EXEC_AGGREGATE_H_
