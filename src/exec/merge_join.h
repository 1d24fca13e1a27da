#ifndef RELDIV_EXEC_MERGE_JOIN_H_
#define RELDIV_EXEC_MERGE_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Join modes supported by the merging scan.
enum class MergeJoinMode {
  kInner,     ///< concatenated left+right output tuples
  kLeftSemi,  ///< left tuples that have at least one right match
};

/// Merge join over inputs sorted on their join keys (§2.2.1). For the inner
/// join, tuples from the inner (right) relation with equal key values are
/// kept in a buffered group — the paper's "linked list of tuples pinned in
/// the buffer pool". For semi-joins in which the outer relation produces the
/// result, no group is buffered and nothing is copied (§5.1).
class MergeJoinOperator : public Operator {
 public:
  MergeJoinOperator(ExecContext* ctx, std::unique_ptr<Operator> left,
                    std::unique_ptr<Operator> right,
                    std::vector<size_t> left_keys,
                    std::vector<size_t> right_keys, MergeJoinMode mode);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&MergeJoinOperator::Step>(this, batch, has_more);
  }
  Status Close() override;

 private:
  /// Produces the next join output tuple, advancing the inputs as needed.
  Status Step(Tuple* tuple, bool* has_next);
  Status AdvanceLeft();
  Status AdvanceRight();
  int CompareLR() const;

  ExecContext* ctx_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  InputCursor left_input_;
  InputCursor right_input_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  MergeJoinMode mode_;
  Schema schema_;

  Tuple left_tuple_;
  bool left_valid_ = false;
  Tuple right_tuple_;
  bool right_valid_ = false;

  // Inner-join group state.
  std::vector<Tuple> group_;   ///< right tuples sharing the current key
  Tuple group_key_holder_;     ///< a left tuple whose key matches the group
  bool group_key_valid_ = false;
  size_t group_pos_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_MERGE_JOIN_H_
