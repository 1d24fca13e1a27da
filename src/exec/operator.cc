#include "exec/operator.h"

#include "common/metric_names.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"

namespace reldiv {

namespace {

/// A non-OK status surfacing at a query root is exactly the moment the
/// flight ring exists for: note it (with the failing stage) so a later
/// dump shows what the query died of, and count it process-wide.
void RecordRootFailure(const char* stage, const Status& status) {
  if (!Telemetry::counting()) return;
  static TelemetryCounter* failures =
      MetricRegistry::Global().FindOrCreateCounter(
          metric_names::kQueryFailuresTotal);
  failures->Add(1);
  EventLog::Flight().Record("status", stage, status.message());
}

/// CollectAll's body; `ctx` (may be null) is polled for cancellation.
Result<std::vector<Tuple>> Collect(Operator* op, size_t batch_capacity,
                                   const ExecContext* ctx) {
  std::vector<Tuple> out;
  const Status status =
      Drain(op, batch_capacity, ctx, [&](TupleBatch& batch) {
        for (Tuple& tuple : batch) out.push_back(std::move(tuple));
        return Status::OK();
      });
  if (!status.ok()) {
    RecordRootFailure("collect_all", status);
    return status;
  }
  return out;
}

}  // namespace

Result<std::vector<Tuple>> CollectAll(Operator* op, size_t batch_capacity) {
  return Collect(op, batch_capacity, nullptr);
}

Result<std::vector<Tuple>> CollectAll(ExecContext* ctx, Operator* op) {
  return Collect(op, ctx->batch_capacity(), ctx);
}

}  // namespace reldiv
