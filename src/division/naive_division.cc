#include "division/naive_division.h"

namespace reldiv {

NaiveDivisionOperator::NaiveDivisionOperator(
    ExecContext* ctx, std::unique_ptr<Operator> sorted_dividend,
    std::unique_ptr<Operator> sorted_divisor, std::vector<size_t> match_attrs,
    std::vector<size_t> quotient_attrs)
    : ctx_(ctx),
      dividend_(std::move(sorted_dividend)),
      divisor_(std::move(sorted_divisor)),
      dividend_input_(dividend_.get()),
      match_attrs_(std::move(match_attrs)),
      quotient_attrs_(std::move(quotient_attrs)),
      schema_(dividend_->output_schema().Project(quotient_attrs_)) {}

Status NaiveDivisionOperator::Open() {
  // Consume the entire divisor into an in-memory list (§5.1: "a linked list
  // of divisor tuples fixed in the buffer pool").
  divisor_list_.clear();
  RELDIV_RETURN_NOT_OK(divisor_->Open());
  TupleBatch batch(ctx_->batch_capacity());
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(divisor_->NextBatch(&batch, &has_more));
    for (Tuple& tuple : batch) divisor_list_.push_back(std::move(tuple));
  }
  RELDIV_RETURN_NOT_OK(divisor_->Close());

  RELDIV_RETURN_NOT_OK(dividend_->Open());
  // An empty divisor ends the stream after the first dividend tuple; read
  // no further ahead than that tuple, which is counted sort work.
  dividend_input_.Reset(divisor_list_.empty() ? 1 : ctx_->batch_capacity());
  RELDIV_RETURN_NOT_OK(AdvanceDividend());
  in_group_ = false;
  group_done_ = false;
  divisor_pos_ = 0;
  return Status::OK();
}

Status NaiveDivisionOperator::AdvanceDividend() {
  return dividend_input_.Pull(&current_, &current_valid_);
}

Status NaiveDivisionOperator::Step(Tuple* tuple, bool* has_next) {
  // Empty-divisor convention: empty quotient (see division.h).
  if (divisor_list_.empty()) {
    *has_next = false;
    return Status::OK();
  }
  while (current_valid_) {
    // Detect the start of a new quotient group.
    if (!in_group_) {
      group_start_ = current_;
      in_group_ = true;
      group_done_ = false;
      divisor_pos_ = 0;
    } else {
      ctx_->CountComparisons(1);
      if (current_.CompareAt(quotient_attrs_, group_start_) != 0) {
        group_start_ = current_;
        group_done_ = false;
        divisor_pos_ = 0;
      }
    }

    if (group_done_) {
      // Group already decided; skip the remainder of its tuples.
      RELDIV_RETURN_NOT_OK(AdvanceDividend());
      continue;
    }

    ctx_->CountComparisons(1);
    const int c = current_.CompareAtAgainstWhole(match_attrs_,
                                                 divisor_list_[divisor_pos_]);
    if (c < 0) {
      // Dividend tuple smaller than the next needed divisor tuple: it has no
      // counterpart in the divisor (or is a duplicate of a matched tuple).
      RELDIV_RETURN_NOT_OK(AdvanceDividend());
      continue;
    }
    if (c > 0) {
      // The group skipped past divisor_list_[divisor_pos_]: the divisor
      // tuple is missing from this group, so the group cannot qualify.
      group_done_ = true;
      RELDIV_RETURN_NOT_OK(AdvanceDividend());
      continue;
    }
    // Match: advance both scans (the deviation from nested-loops join the
    // paper points out).
    divisor_pos_++;
    Tuple matched = current_;
    RELDIV_RETURN_NOT_OK(AdvanceDividend());
    if (divisor_pos_ == divisor_list_.size()) {
      // End of the divisor list reached: this group qualifies.
      group_done_ = true;
      *tuple = matched.Project(quotient_attrs_);
      *has_next = true;
      return Status::OK();
    }
  }
  *has_next = false;
  return Status::OK();
}

Status NaiveDivisionOperator::Close() { return dividend_->Close(); }

}  // namespace reldiv
