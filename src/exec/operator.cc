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

}  // namespace

Result<std::vector<Tuple>> CollectAll(Operator* op, size_t batch_capacity) {
  const auto drive = [&]() -> Result<std::vector<Tuple>> {
    std::vector<Tuple> out;
    RELDIV_RETURN_NOT_OK(op->Open());
    TupleBatch batch(batch_capacity);
    bool has_more = true;
    while (has_more) {
      RELDIV_RETURN_NOT_OK(op->NextBatch(&batch, &has_more));
      for (Tuple& tuple : batch) out.push_back(std::move(tuple));
    }
    RELDIV_RETURN_NOT_OK(op->Close());
    return out;
  };
  Result<std::vector<Tuple>> result = drive();
  if (!result.ok()) RecordRootFailure("collect_all", result.status());
  return result;
}

}  // namespace reldiv
