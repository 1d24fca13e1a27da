#include "division/count_filter.h"

#include "exec/scan.h"

namespace reldiv {

namespace {

/// COUNT(*) of a stored relation via a simple file scan (§2.2).
Result<uint64_t> CountRelation(ExecContext* ctx, const Relation& relation) {
  ScanOperator scan(ctx, relation);
  uint64_t count = 0;
  RELDIV_RETURN_NOT_OK(
      Drain(&scan, ctx->batch_capacity(), ctx, [&](TupleBatch& batch) {
        count += batch.size();
        return Status::OK();
      }));
  return count;
}

}  // namespace

GroupCountFilterOperator::GroupCountFilterOperator(
    ExecContext* ctx, std::unique_ptr<Operator> child, Relation divisor)
    : ctx_(ctx), child_(std::move(child)), divisor_(divisor) {
  std::vector<Field> fields = child_->output_schema().fields();
  fields.pop_back();  // drop the count column
  schema_ = Schema(std::move(fields));
}

Status GroupCountFilterOperator::Open() {
  RELDIV_ASSIGN_OR_RETURN(uint64_t count, CountRelation(ctx_, divisor_));
  divisor_count_ = static_cast<int64_t>(count);
  return child_->Open();
}

Status GroupCountFilterOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  RELDIV_RETURN_NOT_OK(child_->NextBatch(batch, has_more));
  const size_t n = batch->size();
  if (n == 0) return Status::OK();
  const size_t count_col = child_->output_schema().num_fields() - 1;
  bool bad_count = false;
  batch->Retain([&](const Tuple& tuple) {
    if (count_col >= tuple.size() ||
        tuple.value(count_col).type() != ValueType::kInt64) {
      bad_count = true;
      return false;
    }
    return tuple.value(count_col).int64() == divisor_count_;
  });
  if (bad_count) {
    return Status::InvalidArgument(
        "group count filter: last column is not an int64 count");
  }
  ctx_->CountComparisons(n);  // one Comp per input tuple
  for (Tuple& tuple : *batch) {
    tuple.Resize(tuple.size() - 1);  // project the count column away
  }
  return Status::OK();
}

Status GroupCountFilterOperator::Close() { return child_->Close(); }

}  // namespace reldiv
