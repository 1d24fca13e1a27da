#ifndef RELDIV_EXEC_PROJECT_H_
#define RELDIV_EXEC_PROJECT_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/operator.h"

namespace reldiv {

/// Projection to a column subset (no duplicate elimination; combine with
/// SortOperator{collapse} or hash aggregation when set semantics are
/// needed — duplicate handling is a first-class topic of the paper).
/// NextBatch() pulls a child batch into an internal scratch buffer and
/// projects into the caller's reused slots.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::unique_ptr<Operator> child,
                  std::vector<size_t> indices)
      : child_(std::move(child)),
        indices_(std::move(indices)),
        schema_(child_->output_schema().Project(indices_)) {}

  const Schema& output_schema() const override { return schema_; }

  Status Open() override { return child_->Open(); }

  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    if (scratch_.capacity() != batch->capacity()) {
      scratch_.ResetCapacity(batch->capacity());
    }
    bool child_more = false;
    RELDIV_RETURN_NOT_OK(child_->NextBatch(&scratch_, &child_more));
    batch->Clear();
    for (const Tuple& in : scratch_) {
      Tuple* slot = batch->AddSlot();
      for (size_t idx : indices_) slot->Append(in.value(idx));
    }
    *has_more = child_more;
    return Status::OK();
  }

  Status Close() override { return child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<size_t> indices_;
  Schema schema_;
  TupleBatch scratch_;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_PROJECT_H_
