#ifndef RELDIV_EXEC_HASH_JOIN_H_
#define RELDIV_EXEC_HASH_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/hash_table.h"
#include "exec/operator.h"

namespace reldiv {

enum class HashJoinMode {
  kInner,     ///< concatenated probe+build output tuples
  kLeftSemi,  ///< probe-side tuples with at least one build match
  kLeftAnti,  ///< probe-side tuples with NO build match (NOT EXISTS)
};

/// In-memory hash (semi-/anti-)join (§2.2.2): the build (right) input is
/// loaded into a chained hash table, then the probe (left) input streams
/// through. For division by hash-based aggregation with a restricted
/// divisor, the semi-join mode reduces the dividend before aggregation; the
/// anti mode executes the NOT EXISTS / set-difference formulations of
/// universal quantification (§5.2) that the rewriter recognizes. The build
/// input must fit in memory; ResourceExhausted propagates otherwise.
class HashJoinOperator : public Operator {
 public:
  /// `expected_build_cardinality` sizes the table (0 = default 1K buckets).
  HashJoinOperator(ExecContext* ctx, std::unique_ptr<Operator> probe,
                   std::unique_ptr<Operator> build,
                   std::vector<size_t> probe_keys,
                   std::vector<size_t> build_keys, HashJoinMode mode,
                   uint64_t expected_build_cardinality = 0);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&HashJoinOperator::Step>(this, batch, has_more);
  }
  Status Close() override;

 private:
  /// Produces the next join output tuple, probing as needed.
  Status Step(Tuple* tuple, bool* has_next);

  ExecContext* ctx_;
  std::unique_ptr<Operator> probe_;
  std::unique_ptr<Operator> build_;
  InputCursor probe_input_;
  std::vector<size_t> probe_keys_;
  std::vector<size_t> build_keys_;
  HashJoinMode mode_;
  uint64_t expected_build_cardinality_;
  Schema schema_;

  std::unique_ptr<Arena> arena_;
  std::unique_ptr<TupleHashTable> table_;

  // Inner-join fan-out state: entries matching the current probe tuple.
  Tuple current_probe_;
  TupleHashTable::Entry* match_cursor_ = nullptr;

  /// Whether Close() owes the probe side a Close() call — Open() can fail
  /// before opening it.
  bool probe_open_ = false;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_HASH_JOIN_H_
