#include "division/count_filter.h"

#include <set>

#include "exec/kernels/kernels.h"
#include "exec/scalar_aggregate.h"
#include "exec/scan.h"

namespace reldiv {

GroupCountFilterOperator::GroupCountFilterOperator(
    ExecContext* ctx, std::unique_ptr<Operator> child, Relation divisor,
    bool distinct_count)
    : ctx_(ctx),
      child_(std::move(child)),
      divisor_(divisor),
      distinct_count_(distinct_count) {
  std::vector<Field> fields = child_->output_schema().fields();
  fields.pop_back();  // drop the count column
  schema_ = Schema(std::move(fields));
}

Status GroupCountFilterOperator::Open() {
  if (distinct_count_) {
    std::set<Tuple> distinct;
    ScanOperator scan(ctx_, divisor_);
    TupleBatch batch(ctx_->batch_capacity());
    RELDIV_RETURN_NOT_OK(scan.Open());
    bool has_more = true;
    while (has_more) {
      RELDIV_RETURN_NOT_OK(scan.NextBatch(&batch, &has_more));
      ctx_->CountComparisons(batch.size());  // one per set insert
      for (Tuple& tuple : batch) distinct.insert(std::move(tuple));
    }
    RELDIV_RETURN_NOT_OK(scan.Close());
    divisor_count_ = static_cast<int64_t>(distinct.size());
  } else {
    RELDIV_ASSIGN_OR_RETURN(uint64_t count, CountRelation(ctx_, divisor_));
    divisor_count_ = static_cast<int64_t>(count);
  }
  return child_->Open();
}

Status GroupCountFilterOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  RELDIV_RETURN_NOT_OK(child_->NextBatch(batch, has_more));
  const size_t n = batch->size();
  if (n == 0) return Status::OK();
  const size_t count_col = child_->output_schema().num_fields() - 1;
  if (!kernels::ExtractInt64Column(*batch, count_col, &counts_)) {
    return Status::InvalidArgument(
        "group count filter: last column is not an int64 count");
  }
  // One counted Comp per input tuple; the kernel only decides them as one
  // batched compare.
  ctx_->CountComparisons(n);
  mask_.resize(n);
  kernels::CompareInt64(counts_.data(), n, kernels::CmpOp::kEq, divisor_count_,
                        &mask_[0]);
  batch->RetainMask(mask_.data());
  for (Tuple& tuple : *batch) {
    tuple.Resize(tuple.size() - 1);  // project the count column away
  }
  return Status::OK();
}

Status GroupCountFilterOperator::Close() { return child_->Close(); }

}  // namespace reldiv
