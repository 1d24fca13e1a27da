#ifndef RELDIV_DIVISION_COUNT_FILTER_H_
#define RELDIV_DIVISION_COUNT_FILTER_H_

#include <memory>
#include <utility>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/relation.h"

namespace reldiv {

/// Final step of division by aggregation (§2.2): the child yields
/// (quotient attrs..., count); this operator counts the divisor's
/// cardinality with a simple file scan at Open() time and passes
/// through — with the count column projected away — exactly the groups whose
/// count equals it.
class GroupCountFilterOperator : public Operator {
 public:
  /// `child`'s last column must be the int64 group count; `divisor` is the
  /// relation whose cardinality the counts are compared against.
  GroupCountFilterOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                           Relation divisor);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  /// Keeps the groups whose count equals the divisor's cardinality,
  /// compacted in place; a count that is not an int64 is InvalidArgument.
  /// One counted Comp per input tuple.
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;

 private:
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  Relation divisor_;
  Schema schema_;
  int64_t divisor_count_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_DIVISION_COUNT_FILTER_H_
