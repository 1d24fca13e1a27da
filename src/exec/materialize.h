#ifndef RELDIV_EXEC_MATERIALIZE_H_
#define RELDIV_EXEC_MATERIALIZE_H_

#include "common/row_codec.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/relation.h"

namespace reldiv {

/// Drains `input` into `store`, encoding tuples with the operator's output
/// schema. Returns the number of records written. `batch_capacity` sets the
/// unit of work — plan-internal callers pass ExecContext::batch_capacity().
Result<uint64_t> Materialize(Operator* input, RecordStore* store,
                             size_t batch_capacity =
                                 TupleBatch::kDefaultCapacity);

/// Reads an entire stored relation into memory (test/example helper).
Result<std::vector<Tuple>> ReadAll(ExecContext* ctx, const Relation& relation);

/// Appends `tuples` to a stored relation.
Status AppendAll(const Relation& relation, const std::vector<Tuple>& tuples);

/// Delegating operator that additionally owns temporary record stores its
/// plan reads (duplicate-eliminated inputs, materialized sub-results), so
/// that they live exactly as long as the plan.
class OwningOperator : public Operator {
 public:
  OwningOperator(std::unique_ptr<Operator> plan,
                 std::vector<std::unique_ptr<RecordStore>> stores)
      : plan_(std::move(plan)), stores_(std::move(stores)) {}

  const Schema& output_schema() const override {
    return plan_->output_schema();
  }
  Status Open() override { return plan_->Open(); }
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return plan_->NextBatch(batch, has_more);
  }
  Status Close() override { return plan_->Close(); }
  void ExportGauges(GaugeList* gauges) const override {
    plan_->ExportGauges(gauges);
  }

 private:
  std::unique_ptr<Operator> plan_;
  std::vector<std::unique_ptr<RecordStore>> stores_;
};

/// Spools its child into a temporary record file at Open() time and then
/// serves a sequential scan of that file. Used where a plan's next stage
/// re-reads an intermediate result from disk (e.g. the semi-join output in
/// division by hash aggregation with join, §4.4).
class SpoolOperator : public Operator {
 public:
  SpoolOperator(ExecContext* ctx, std::unique_ptr<Operator> child);
  ~SpoolOperator() override;

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;
  void ExportGauges(GaugeList* gauges) const override {
    child_->ExportGauges(gauges);
  }

 private:
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::unique_ptr<RecordStore> spool_;
  std::unique_ptr<Operator> reader_;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_MATERIALIZE_H_
