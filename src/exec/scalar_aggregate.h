#ifndef RELDIV_EXEC_SCALAR_AGGREGATE_H_
#define RELDIV_EXEC_SCALAR_AGGREGATE_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/relation.h"

namespace reldiv {

/// Scalar aggregate (§2.2): aggregates the entire input into exactly one
/// output tuple, e.g. counting the divisor's cardinality with a simple file
/// scan. COUNT/SUM over zero rows yield 0; MIN/MAX error out.
class ScalarAggregateOperator : public Operator {
 public:
  ScalarAggregateOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                          std::vector<AggSpec> aggs);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&ScalarAggregateOperator::Step>(this, batch, has_more);
  }
  Status Close() override;

 private:
  /// Produces the one result tuple, then end of stream.
  Status Step(Tuple* tuple, bool* has_next);

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  Status init_status_;
  Tuple result_;
  bool emitted_ = false;
};

/// Convenience: COUNT(*) of a stored relation via a file scan.
Result<uint64_t> CountRelation(ExecContext* ctx, const Relation& relation);

}  // namespace reldiv

#endif  // RELDIV_EXEC_SCALAR_AGGREGATE_H_
