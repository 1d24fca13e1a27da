#ifndef RELDIV_EXEC_SCAN_H_
#define RELDIV_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "common/row_codec.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/relation.h"

namespace reldiv {

/// Sequential file scan decoding stored records into tuples. The underlying
/// RecordScan keeps the current page fixed; decoding copies values out so the
/// produced Tuple is independent of the pin.
///
/// Batch-native: NextBatch() decodes straight into the batch's reused tuple
/// slots; Next() is a thin adapter over the operator's own batches.
class ScanOperator : public Operator {
 public:
  ScanOperator(ExecContext* ctx, Relation relation)
      : ctx_(ctx), relation_(relation), codec_(relation.schema) {}

  const Schema& output_schema() const override { return relation_.schema; }

  Status Open() override;
  Status Next(Tuple* tuple, bool* has_next) override {
    return adapter_.Next(this, tuple, has_next);
  }
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  bool IsBatchNative() const override { return true; }
  Status Close() override;

 private:
  ExecContext* ctx_;
  Relation relation_;
  RowCodec codec_;
  std::unique_ptr<RecordScan> scan_;
  std::vector<RecordRef> refs_;  ///< scratch for RecordScan::NextBatch
  TupleAdapter adapter_;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_SCAN_H_
