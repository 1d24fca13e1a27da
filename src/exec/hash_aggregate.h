#ifndef RELDIV_EXEC_HASH_AGGREGATE_H_
#define RELDIV_EXEC_HASH_AGGREGATE_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "exec/hash_table.h"
#include "exec/operator.h"

namespace reldiv {

/// Hash-based aggregate function operator (§2.2.2): output groups live in a
/// main-memory hash table; each input tuple is folded into its group's
/// accumulators. Only the output fits in memory, so the input may be far
/// larger than the hash table — the property that makes this family fast.
/// Output order is hash-table bucket order.
class HashAggregateOperator : public Operator {
 public:
  /// `expected_groups` fixes the hash table's size; 0 starts it at 1,024
  /// buckets and lets it double at more than 2 groups per bucket.
  HashAggregateOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                        std::vector<size_t> group_indices,
                        std::vector<AggSpec> aggs,
                        uint64_t expected_groups = 0);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&HashAggregateOperator::Step>(this, batch, has_more);
  }
  Status Close() override;

 private:
  /// Produces the next group's aggregate tuple, in bucket order.
  Status Step(Tuple* tuple, bool* has_next);

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::vector<size_t> group_indices_;
  std::vector<AggSpec> aggs_;
  uint64_t expected_groups_;
  Schema schema_;

  std::unique_ptr<Arena> arena_;
  std::unique_ptr<TupleHashTable> table_;
  TupleBatch input_batch_{1};  ///< build-phase pull buffer, pool-charged
  std::vector<uint64_t> hashes_;  ///< staged-probe scratch, one per tuple
  std::vector<AggState> states_;
  std::vector<const TupleHashTable::Entry*> emit_entries_;  ///< bucket order
  size_t emit_pos_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_HASH_AGGREGATE_H_
