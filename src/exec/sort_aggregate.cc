#include "exec/sort_aggregate.h"

namespace reldiv {

SortAggregateOperator::SortAggregateOperator(
    ExecContext* ctx, std::unique_ptr<Operator> child,
    std::vector<size_t> group_indices, std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      input_(child_.get()),
      group_indices_(std::move(group_indices)),
      aggs_(std::move(aggs)) {
  init_status_ = BuildSchema();
}

Status SortAggregateOperator::BuildSchema() {
  std::vector<Field> fields;
  for (size_t idx : group_indices_) {
    fields.push_back(child_->output_schema().field(idx));
  }
  RELDIV_ASSIGN_OR_RETURN(std::vector<Field> agg_fields,
                          AggOutputFields(child_->output_schema(), aggs_));
  for (Field& f : agg_fields) fields.push_back(std::move(f));
  schema_ = Schema(std::move(fields));
  return Status::OK();
}

Status SortAggregateOperator::Open() {
  RELDIV_RETURN_NOT_OK(init_status_);
  RELDIV_RETURN_NOT_OK(child_->Open());
  input_.Reset(ctx_->batch_capacity());
  have_pending_ = false;
  input_done_ = false;
  return Status::OK();
}

Status SortAggregateOperator::Step(Tuple* tuple, bool* has_next) {
  if (input_done_ && !have_pending_) {
    *has_next = false;
    return Status::OK();
  }
  AggState state(aggs_);
  if (!have_pending_) {
    bool has = false;
    RELDIV_RETURN_NOT_OK(input_.Pull(&pending_, &has));
    if (!has) {
      input_done_ = true;
      *has_next = false;
      return Status::OK();
    }
    have_pending_ = true;
  }
  // Consume the whole group that `pending_` starts.
  Tuple group_start = pending_;
  state.Update(aggs_, pending_);
  have_pending_ = false;
  while (true) {
    Tuple next;
    bool has = false;
    RELDIV_RETURN_NOT_OK(input_.Pull(&next, &has));
    if (!has) {
      input_done_ = true;
      break;
    }
    ctx_->CountComparisons(1);
    if (next.CompareAt(group_indices_, group_start) == 0) {
      state.Update(aggs_, next);
    } else {
      pending_ = std::move(next);
      have_pending_ = true;
      break;
    }
  }
  *tuple = group_start.Project(group_indices_);
  state.Finish(aggs_, tuple);
  *has_next = true;
  return Status::OK();
}

Status SortAggregateOperator::Close() { return child_->Close(); }

}  // namespace reldiv
