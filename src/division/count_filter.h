#ifndef RELDIV_DIVISION_COUNT_FILTER_H_
#define RELDIV_DIVISION_COUNT_FILTER_H_

#include <memory>
#include <utility>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/relation.h"

namespace reldiv {

/// Final step of division by aggregation (§2.2): the child yields
/// (quotient attrs..., count); this operator determines the divisor's
/// cardinality with a scalar aggregate (file scan) at Open() time and passes
/// through — with the count column projected away — exactly the groups whose
/// count equals it.
class GroupCountFilterOperator : public Operator {
 public:
  /// `child`'s last column must be the int64 group count; `divisor` is the
  /// relation whose cardinality the counts are compared against. With
  /// `distinct_count`, the divisor's DISTINCT cardinality is used
  /// (footnote 1's explicit-uniqueness request).
  GroupCountFilterOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                           Relation divisor, bool distinct_count = false);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  /// The count column is extracted once per batch and compared by the
  /// kernels::CompareInt64 kernel, survivors compacted in place. One counted
  /// Comp per input tuple.
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;

 private:
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  Relation divisor_;
  bool distinct_count_;
  Schema schema_;
  int64_t divisor_count_ = 0;
  std::vector<int64_t> counts_;  ///< NextBatch scratch: extracted count column
  std::vector<uint8_t> mask_;    ///< NextBatch scratch: compare-kernel output
};

}  // namespace reldiv

#endif  // RELDIV_DIVISION_COUNT_FILTER_H_
