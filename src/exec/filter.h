#ifndef RELDIV_EXEC_FILTER_H_
#define RELDIV_EXEC_FILTER_H_

#include <functional>
#include <memory>
#include <utility>

#include "exec/operator.h"

namespace reldiv {

/// Selection: passes through tuples for which `predicate` returns true.
/// NextBatch() pulls a child batch into the caller's buffer and compacts it
/// in place (stable), retrying until at least one tuple survives or the
/// child ends.
class FilterOperator : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  FilterOperator(std::unique_ptr<Operator> child, Predicate predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  Status Open() override { return child_->Open(); }

  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    while (true) {
      bool child_more = false;
      RELDIV_RETURN_NOT_OK(child_->NextBatch(batch, &child_more));
      batch->Retain(predicate_);
      if (!child_more) {
        *has_more = false;
        return Status::OK();
      }
      if (!batch->empty()) {
        *has_more = true;
        return Status::OK();
      }
    }
  }

  Status Close() override { return child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  Predicate predicate_;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_FILTER_H_
