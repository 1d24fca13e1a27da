#include "obs/profiled_operator.h"

#include <chrono>
#include <utility>

#include "obs/event_log.h"
#include "obs/telemetry.h"

namespace reldiv {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Operator lifecycle transitions are rare (two per operator per query), so
/// the flight ring notes them even in counting mode — a post-mortem dump
/// then shows how far the plan got before dying.
void RecordLifecycle(const char* transition, const std::string& label) {
  if (!Telemetry::counting()) return;
  EventLog::Flight().Record("operator", transition, label);
}

}  // namespace

/// Snapshots wall clock, CPU counters, and disk stats at construction and
/// adds the deltas to the target metrics on destruction, so every return
/// path of a forwarded call is accounted.
class ProfiledOperator::CallScope {
 public:
  CallScope(ExecContext* ctx, OperatorMetrics* metrics, uint64_t* ns_bucket)
      : ctx_(ctx),
        metrics_(metrics),
        ns_bucket_(ns_bucket),
        cpu_before_(*ctx->counters()),
        io_before_(ctx->disk()->stats()),
        start_ns_(NowNs()) {}

  ~CallScope() {
    *ns_bucket_ += NowNs() - start_ns_;
    metrics_->cpu += *ctx_->counters() - cpu_before_;
    metrics_->io += ctx_->disk()->stats() - io_before_;
  }

  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  ExecContext* ctx_;
  OperatorMetrics* metrics_;
  uint64_t* ns_bucket_;
  CpuCounters cpu_before_;
  DiskStats io_before_;
  uint64_t start_ns_;
};

ProfiledOperator::ProfiledOperator(ExecContext* ctx,
                                   std::unique_ptr<Operator> child,
                                   std::string label, size_t adopt_mark)
    : ctx_(ctx),
      child_(std::move(child)),
      label_(std::move(label)),
      node_(ctx->profile()->CreateNode(label_, adopt_mark)) {}

Status ProfiledOperator::Open() {
  OperatorMetrics& m = node_->metrics();
  m.opens++;
  m.gauges.clear();  // a re-opened plan replays; stale gauges would double
  drain_started_ = false;
  gauges_collected_ = false;
  RecordLifecycle("open", label_);
  EventLog* trace = ctx_->trace();
  if (trace != nullptr) open_start_us_ = NowMicros();
  Status status;
  {
    CallScope scope(ctx_, &m, &m.open_ns);
    status = child_->Open();
  }
  if (trace != nullptr) {
    trace->Complete("open " + label_, "operator", open_start_us_,
                    NowMicros() - open_start_us_);
  }
  return status;
}

Status ProfiledOperator::Next(Tuple* tuple, bool* has_next) {
  OperatorMetrics& m = node_->metrics();
  m.next_calls++;
  EventLog* trace = ctx_->trace();
  if (!drain_started_ && trace != nullptr) {
    drain_start_us_ = NowMicros();
  }
  drain_started_ = true;
  Status status;
  {
    CallScope scope(ctx_, &m, &m.next_ns);
    status = child_->Next(tuple, has_next);
  }
  if (status.ok() && *has_next) m.tuples_out++;
  if (status.ok() && !*has_next) {
    CollectGauges();
    if (trace != nullptr) {
      trace->Complete("drain " + label_, "operator", drain_start_us_,
                      NowMicros() - drain_start_us_,
                      /*tid=*/0, {{"tuples", m.tuples_out}});
    }
  }
  return status;
}

Status ProfiledOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  OperatorMetrics& m = node_->metrics();
  m.next_batch_calls++;
  EventLog* trace = ctx_->trace();
  if (!drain_started_ && trace != nullptr) {
    drain_start_us_ = NowMicros();
  }
  drain_started_ = true;
  Status status;
  {
    CallScope scope(ctx_, &m, &m.next_ns);
    status = child_->NextBatch(batch, has_more);
  }
  if (status.ok()) {
    m.tuples_out += batch->size();
    if (batch->size() > 0) m.batches_out++;
    if (!*has_more) {
      CollectGauges();
      if (trace != nullptr) {
        trace->Complete("drain " + label_, "operator", drain_start_us_,
                        NowMicros() - drain_start_us_,
                        /*tid=*/0, {{"tuples", m.tuples_out}});
      }
    }
  }
  return status;
}

Status ProfiledOperator::Close() {
  OperatorMetrics& m = node_->metrics();
  m.closes++;
  // A consumer may Close() before draining to end-of-stream (early-output
  // shortcuts); the child's state is still live here, so this is the last
  // chance to read its gauges.
  CollectGauges();
  RecordLifecycle("close", label_);
  EventLog* trace = ctx_->trace();
  const uint64_t start_us = trace != nullptr ? NowMicros() : 0;
  Status status;
  {
    CallScope scope(ctx_, &m, &m.close_ns);
    status = child_->Close();
  }
  if (trace != nullptr) {
    trace->Complete("close " + label_, "operator", start_us,
                    NowMicros() - start_us);
  }
  return status;
}

void ProfiledOperator::CollectGauges() {
  if (gauges_collected_) return;
  gauges_collected_ = true;
  child_->ExportGauges(&node_->metrics().gauges);
}

std::unique_ptr<Operator> MaybeProfile(ExecContext* ctx,
                                       std::unique_ptr<Operator> op,
                                       std::string label, size_t adopt_mark) {
  if (!ctx->profiling()) return op;
  return std::make_unique<ProfiledOperator>(ctx, std::move(op),
                                            std::move(label), adopt_mark);
}

size_t ProfileMark(const ExecContext* ctx) {
  return ctx->profiling() ? ctx->profile()->Mark() : 0;
}

}  // namespace reldiv
