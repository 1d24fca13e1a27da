#ifndef RELDIV_OBS_PROFILED_OPERATOR_H_
#define RELDIV_OBS_PROFILED_OPERATOR_H_

#include <memory>
#include <string>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "obs/metrics.h"

namespace reldiv {

/// Measuring wrapper inserted by the plan builders next to the existing
/// ContractCheckOperator when ExecContext::profiling() is on. Forwards every
/// protocol call to the wrapped operator and accounts, per call:
///
///   - wall time (steady clock), split by entry point;
///   - open/nextbatch/close call counts, tuples and batches emitted;
///   - the ExecContext CpuCounters delta of the call (Table 1 cost units);
///   - the simulated disk's DiskStats delta of the call.
///
/// All deltas are inclusive of the subtree beneath; the MetricsNode computes
/// exclusive figures by subtracting child nodes. At end-of-stream (and again
/// right before Close()) the wrapper collects the child's ExportGauges()
/// into its node — before, not after, Close() releases the state the gauges
/// describe.
///
/// When a trace is attached (ExecContext::set_trace), the wrapper
/// additionally emits chrome://tracing spans for the operator lifecycle:
/// one "open" span, one "drain" span covering first pull to end-of-stream,
/// and one "close" span, all in category "operator".
///
/// When profiling is off the wrapper is never inserted, so the off path has
/// zero overhead (asserted by tests/observability_test.cc and the
/// bench/batch_vs_tuple ±2% acceptance bound).
class ProfiledOperator : public Operator {
 public:
  /// `adopt_mark` bounds which metrics roots the new node adopts as
  /// children; see QueryProfile::CreateNode.
  ProfiledOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                   std::string label, size_t adopt_mark = 0);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;

  void ExportGauges(GaugeList* gauges) const override {
    child_->ExportGauges(gauges);
  }

  /// The metrics collected for the wrapped operator (owned by the context's
  /// QueryProfile; valid until QueryProfile::Clear()).
  const MetricsNode* node() const { return node_; }

 private:
  /// Snapshots counters + clock around one forwarded call and accumulates
  /// the deltas on destruction.
  class CallScope;

  void CollectGauges();

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::string label_;
  MetricsNode* node_;

  // Trace state for the drain span of the current open cycle.
  bool drain_started_ = false;
  bool gauges_collected_ = false;
  uint64_t open_start_us_ = 0;
  uint64_t drain_start_us_ = 0;
};

/// Wraps `op` in a ProfiledOperator when the context has profiling enabled;
/// returns it unchanged otherwise. Plan builders call this on every operator
/// worth a line in EXPLAIN ANALYZE. `adopt_mark` (from ProfileMark) bounds
/// the metrics-tree adoption for sibling input subtrees.
std::unique_ptr<Operator> MaybeProfile(ExecContext* ctx,
                                       std::unique_ptr<Operator> op,
                                       std::string label,
                                       size_t adopt_mark = 0);

/// The context profile's current adoption mark. Plan builders take it before
/// constructing a second (third, ...) input subtree and pass it to every
/// MaybeProfile call on that subtree's spine, so those wrappers do not adopt
/// the finished earlier siblings. 0 when profiling is off.
size_t ProfileMark(const ExecContext* ctx);

}  // namespace reldiv

#endif  // RELDIV_OBS_PROFILED_OPERATOR_H_
