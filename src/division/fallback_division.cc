#include "division/fallback_division.h"

#include <utility>

#include "common/metric_names.h"
#include "division/hash_division.h"
#include "division/partitioned_hash_division.h"
#include "exec/scan.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"

namespace reldiv {

FallbackDivisionOperator::FallbackDivisionOperator(
    ExecContext* ctx, const ResolvedDivision& resolved,
    const DivisionOptions& options)
    : ctx_(ctx),
      resolved_(resolved),
      options_(options),
      schema_(resolved.quotient_schema) {}

Status FallbackDivisionOperator::Open() {
  fallback_taken_ = false;
  active_.reset();

  DivisionOptions tuned = options_;
  if (tuned.expected_divisor_cardinality == 0) {
    tuned.expected_divisor_cardinality =
        resolved_.divisor.store->num_records();
  }
  auto primary = std::make_unique<HashDivisionOperator>(
      ctx_, std::make_unique<ScanOperator>(ctx_, resolved_.dividend),
      std::make_unique<ScanOperator>(ctx_, resolved_.divisor),
      resolved_.match_attrs, resolved_.quotient_attrs, tuned);
  Status status = primary->Open();
  if (status.ok()) {
    active_ = std::move(primary);
    return Status::OK();
  }
  if (status.code() != StatusCode::kResourceExhausted) return status;

  // Memory grant denied: release the half-built tables and any input still
  // open, then restart as the partitioned variant. The close is best-effort
  // — the denial already decided the outcome.
  Status close_status = primary->Close();
  (void)close_status;
  primary.reset();

  fallback_taken_ = true;
  if (Telemetry::counting()) {
    static TelemetryCounter* fallbacks =
        MetricRegistry::Global().FindOrCreateCounter(
            metric_names::kFallbacksTotal);
    fallbacks->Add(1);
    EventLog::Flight().Record("fallback", "fallback_to_partitioned",
                              status.message());
  }
  auto secondary = std::make_unique<PartitionedHashDivisionOperator>(
      ctx_, resolved_, options_);
  RELDIV_RETURN_NOT_OK(secondary->Open());
  active_ = std::move(secondary);
  return Status::OK();
}

Status FallbackDivisionOperator::Next(Tuple* tuple, bool* has_next) {
  RELDIV_CHECK(active_ != nullptr) << "fallback division not open";
  return active_->Next(tuple, has_next);
}

Status FallbackDivisionOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  RELDIV_CHECK(active_ != nullptr) << "fallback division not open";
  return active_->NextBatch(batch, has_more);
}

Status FallbackDivisionOperator::Close() {
  if (active_ == nullptr) return Status::OK();
  Status status = active_->Close();
  active_.reset();
  return status;
}

void FallbackDivisionOperator::ExportGauges(GaugeList* gauges) const {
  gauges->emplace_back(metric_names::kGaugeFallbackTaken,
                       fallback_taken_ ? 1.0 : 0.0);
  if (active_ != nullptr) active_->ExportGauges(gauges);
}

}  // namespace reldiv
