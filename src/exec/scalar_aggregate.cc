#include "exec/scalar_aggregate.h"

#include "exec/scan.h"

namespace reldiv {

ScalarAggregateOperator::ScalarAggregateOperator(
    ExecContext* ctx, std::unique_ptr<Operator> child,
    std::vector<AggSpec> aggs)
    : ctx_(ctx), child_(std::move(child)), aggs_(std::move(aggs)) {
  auto fields = AggOutputFields(child_->output_schema(), aggs_);
  if (fields.ok()) {
    schema_ = Schema(fields.MoveValue());
  } else {
    init_status_ = fields.status();
  }
}

Status ScalarAggregateOperator::Open() {
  RELDIV_RETURN_NOT_OK(init_status_);
  AggState state(aggs_);
  RELDIV_RETURN_NOT_OK(child_->Open());
  TupleBatch batch(ctx_->batch_capacity());
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(child_->NextBatch(&batch, &has_more));
    for (const Tuple& tuple : batch) state.Update(aggs_, tuple);
  }
  RELDIV_RETURN_NOT_OK(child_->Close());
  result_ = Tuple();
  RELDIV_RETURN_NOT_OK(state.Finish(aggs_, &result_));
  emitted_ = false;
  return Status::OK();
}

Status ScalarAggregateOperator::Step(Tuple* tuple, bool* has_next) {
  if (emitted_) {
    *has_next = false;
    return Status::OK();
  }
  *tuple = result_;
  emitted_ = true;
  *has_next = true;
  return Status::OK();
}

Status ScalarAggregateOperator::Close() { return Status::OK(); }

Result<uint64_t> CountRelation(ExecContext* ctx, const Relation& relation) {
  ScanOperator scan(ctx, relation);
  TupleBatch batch(ctx->batch_capacity());
  uint64_t count = 0;
  RELDIV_RETURN_NOT_OK(scan.Open());
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(scan.NextBatch(&batch, &has_more));
    count += batch.size();
  }
  RELDIV_RETURN_NOT_OK(scan.Close());
  return count;
}

}  // namespace reldiv
