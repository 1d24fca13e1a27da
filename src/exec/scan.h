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
/// NextBatch() decodes straight into the batch's reused tuple slots.
///
/// Takes the context like every operator; a scan charges nothing to it.
class ScanOperator : public Operator {
 public:
  ScanOperator(ExecContext* /*ctx*/, Relation relation)
      : relation_(relation), codec_(relation.schema) {}

  const Schema& output_schema() const override { return relation_.schema; }

  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;

 private:
  Relation relation_;
  RowCodec codec_;
  std::unique_ptr<RecordScan> scan_;
  std::vector<RecordRef> refs_;  ///< scratch for RecordScan::NextBatch
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_SCAN_H_
