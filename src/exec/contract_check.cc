#include "exec/contract_check.h"

#include "common/value.h"

namespace reldiv {

ContractCheckOperator::ContractCheckOperator(ExecContext* ctx,
                                             std::unique_ptr<Operator> child,
                                             std::string label)
    : ctx_(ctx), child_(std::move(child)), label_(std::move(label)) {}

Status ContractCheckOperator::Violation(const std::string& what) {
  violations_++;
  return Status::Internal("operator contract violation [" + label_ + "]: " +
                          what);
}

Status ContractCheckOperator::CheckSchemaConformance(const Tuple& tuple) {
  const Schema& schema = child_->output_schema();
  if (tuple.size() != schema.num_fields()) {
    return Violation("emitted a tuple of arity " +
                     std::to_string(tuple.size()) +
                     " against output schema " + schema.ToString());
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple.value(i).type() != schema.field(i).type) {
      return Violation("emitted a " +
                       std::string(ValueTypeName(tuple.value(i).type())) +
                       " in column '" + schema.field(i).name + "' declared " +
                       ValueTypeName(schema.field(i).type));
    }
  }
  return Status::OK();
}

Status ContractCheckOperator::CheckCounterDeltas(const CpuCounters& before,
                                                const char* call) {
  const CpuCounters& after = *ctx_->counters();
  if (after.comparisons < before.comparisons || after.hashes < before.hashes ||
      after.moves < before.moves || after.bit_ops < before.bit_ops) {
    return Violation(std::string(call) +
                     " rewound a CPU cost counter (Table 1 counters are "
                     "monotone within a query)");
  }
  return Status::OK();
}

Status ContractCheckOperator::Open() {
  if (state_ != State::kClosed) {
    return Violation("Open() while already open");
  }
  RELDIV_RETURN_NOT_OK(child_->Open());
  state_ = State::kOpen;
  ever_opened_ = true;
  return Status::OK();
}

Status ContractCheckOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  if (state_ == State::kClosed) {
    return Violation("NextBatch() without a successful Open()");
  }
  if (state_ == State::kExhausted) {
    return Violation("NextBatch() after end-of-stream was reported");
  }
  const size_t request_capacity = batch->capacity();
  const CpuCounters before = *ctx_->counters();
  RELDIV_RETURN_NOT_OK(child_->NextBatch(batch, has_more));
  RELDIV_RETURN_NOT_OK(CheckCounterDeltas(before, "NextBatch()"));
  if (batch->size() > request_capacity) {
    return Violation("NextBatch() filled " + std::to_string(batch->size()) +
                     " tuples into a batch of capacity " +
                     std::to_string(request_capacity));
  }
  for (const Tuple& tuple : *batch) {
    RELDIV_RETURN_NOT_OK(CheckSchemaConformance(tuple));
  }
  if (!*has_more) state_ = State::kExhausted;
  return Status::OK();
}

Status ContractCheckOperator::Close() {
  if (state_ == State::kClosed) {
    return Violation(ever_opened_ ? "Close() after Close()"
                                  : "Close() without Open()");
  }
  state_ = State::kClosed;
  return child_->Close();
}

std::unique_ptr<Operator> MaybeContractCheck(ExecContext* ctx,
                                             std::unique_ptr<Operator> plan,
                                             std::string label) {
  if (!ctx->contract_checks()) return plan;
  return std::make_unique<ContractCheckOperator>(ctx, std::move(plan),
                                                 std::move(label));
}

}  // namespace reldiv
