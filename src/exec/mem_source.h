#ifndef RELDIV_EXEC_MEM_SOURCE_H_
#define RELDIV_EXEC_MEM_SOURCE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/operator.h"

namespace reldiv {

/// Operator yielding an in-memory tuple vector; used by tests and to feed
/// already-materialized intermediate results back into a plan.
class MemSourceOperator : public Operator {
 public:
  MemSourceOperator(Schema schema, std::vector<Tuple> tuples)
      : schema_(std::move(schema)), tuples_(std::move(tuples)) {}

  const Schema& output_schema() const override { return schema_; }

  Status Open() override {
    next_ = 0;
    return Status::OK();
  }

  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    batch->Clear();
    const size_t n =
        std::min(batch->capacity(), tuples_.size() - next_);
    for (size_t i = 0; i < n; ++i) batch->PushBack(tuples_[next_ + i]);
    next_ += n;
    *has_more = next_ < tuples_.size();
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  Schema schema_;
  std::vector<Tuple> tuples_;
  size_t next_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_MEM_SOURCE_H_
