#ifndef RELDIV_EXEC_SORT_AGGREGATE_H_
#define RELDIV_EXEC_SORT_AGGREGATE_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Streaming aggregate over an input sorted on its group columns (§2.2.1):
/// a single scan determines each group's aggregates. (The preferred plan —
/// the paper's "obvious optimization" — is aggregation *during* sorting via
/// SortOperator's collapse option; this operator is the classic standalone
/// form and is also useful on inputs that arrive sorted.)
class SortAggregateOperator : public Operator {
 public:
  SortAggregateOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                        std::vector<size_t> group_indices,
                        std::vector<AggSpec> aggs);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&SortAggregateOperator::Step>(this, batch, has_more);
  }
  Status Close() override;

 private:
  Status BuildSchema();
  /// Consumes the next group and produces its aggregate tuple.
  Status Step(Tuple* tuple, bool* has_next);

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  InputCursor input_;
  std::vector<size_t> group_indices_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  Status init_status_;

  Tuple pending_;      ///< first tuple of the current group
  bool have_pending_ = false;
  bool input_done_ = false;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_SORT_AGGREGATE_H_
