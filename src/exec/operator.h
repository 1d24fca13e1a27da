#ifndef RELDIV_EXEC_OPERATOR_H_
#define RELDIV_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/tuple.h"
#include "exec/batch.h"
#include "exec/exec_context.h"

namespace reldiv {

/// Named numeric gauges exported by an operator for the observability layer
/// (obs/metrics.h): algorithm-specific facts such as hash-division's bitmap
/// fill ratio, a sort's run count, or a partitioned operator's phase count.
using GaugeList = std::vector<std::pair<std::string, double>>;

/// Demand-driven iterator interface implemented by every relational algebra
/// operator (§5.1: "all relational algebra operators are implemented as
/// iterators, i.e., they support a simple open-next-close protocol").
///
/// The "next" of that protocol is NextBatch(batch, has_more): it moves up to
/// `batch->capacity()` tuples per call, amortizing virtual dispatch and
/// reusing the batch's tuple slots. At capacity 1 it is exactly the paper's
/// tuple-at-a-time next. An operator whose algorithm produces one tuple per
/// step keeps that step private and fills batches with FillBatch() below; an
/// operator that consumes an input as it streams reads it through an
/// InputCursor; one that reads an input to its end (a build side, a sort's
/// input, a query root) does so with Drain().
///
/// Contract — end-of-stream rules are defined HERE and nowhere else:
///
///  - Open() before any NextBatch(); Close() releases resources and may be
///    called at most once after Open(); a closed operator may be re-Opened
///    and then replays its stream from the start.
///  - NextBatch() clears `*batch`, fills at most `batch->capacity()` tuples,
///    and sets `*has_more = false` when the stream is exhausted. The final
///    batch may be partially filled or empty; once `*has_more` is false,
///    NextBatch() must NOT be called again. A true `*has_more` makes no
///    promise that the next call yields tuples, only that calling is legal.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual const Schema& output_schema() const = 0;
  // Status is a [[nodiscard]] class, so these are enforced at every call
  // site already; the explicit attributes document the protocol's intent
  // at its definition point.
  [[nodiscard]] virtual Status Open() = 0;

  /// Batch-at-a-time pull. See the class comment for the contract.
  [[nodiscard]] virtual Status NextBatch(TupleBatch* batch,
                                         bool* has_more) = 0;

  /// Leftover of the removed tuple-at-a-time protocol, declared only because
  /// the frozen end-to-end benchmark (bench/e2e) still overrides it. No
  /// operator implements it and nothing calls it. Goes with the benchmark's
  /// next change (ROADMAP item 1).
  [[nodiscard]] virtual Status Next(Tuple* tuple, bool* has_next) {
    (void)tuple;
    (void)has_next;
    return Status::NotSupported("Operator::Next: use NextBatch");
  }

  /// Leftover like Next(): every operator is batch-native. Goes with it.
  virtual bool IsBatchNative() const { return true; }

  /// Observability hook: appends algorithm-specific gauges (hash-table fill,
  /// spill/run counts, early-output hits, peak memory) to `gauges`. Called
  /// by the profiling wrapper while the operator is still open — i.e. before
  /// Close() releases the state the gauges describe. Pure pass-through
  /// operators forward to their child; the default exports nothing.
  virtual void ExportGauges(GaugeList* gauges) const { (void)gauges; }

  [[nodiscard]] virtual Status Close() = 0;
};

/// The NextBatch() of an operator whose algorithm emits one tuple per step:
/// calls `(op->*kStep)(slot, &has_tuple)` until the batch is full or the step
/// reports end of stream.
template <auto kStep, typename Op>
Status FillBatch(Op* op, TupleBatch* batch, bool* has_more) {
  batch->Clear();
  while (!batch->full()) {
    Tuple* slot = batch->AddSlot();
    bool has_tuple = false;
    RELDIV_RETURN_NOT_OK((op->*kStep)(slot, &has_tuple));
    if (!has_tuple) {
      // The stream ended inside this batch, so per the contract this batch
      // is the last one; give the unused slot back.
      batch->PopBack();
      *has_more = false;
      return Status::OK();
    }
  }
  *has_more = true;
  return Status::OK();
}

/// Reads an input's NextBatch() stream one tuple at a time, for operators
/// that consume their input tuple by tuple as they produce output (merge
/// joins, a join's probe side, naive division's dividend). It is a
/// pipelined pull, not a drain: its owner may stop before the end of the
/// stream. The owner calls Reset() from Open() with
/// ExecContext::batch_capacity(): the cursor's batch size is how far a scan
/// underneath reads ahead of its consumer, which the storage layer observes
/// (the order of disk transfers, hence seeks), so it follows the session
/// knob.
class InputCursor {
 public:
  explicit InputCursor(Operator* input) : input_(input), batch_(1) {}

  void Reset(size_t capacity) {
    if (capacity != batch_.capacity()) batch_.ResetCapacity(capacity);
    batch_.Clear();
    pos_ = 0;
    done_ = false;
  }

  /// Moves the next input tuple into `*tuple`. `*has_tuple` is false at end
  /// of stream and on every pull after it.
  Status Pull(Tuple* tuple, bool* has_tuple) {
    // NOLINTNEXTLINE(reldiv/hand-drain): pipelined; the owner may stop early.
    while (pos_ >= batch_.size()) {
      if (done_) {
        *has_tuple = false;
        return Status::OK();
      }
      bool has_more = false;
      RELDIV_RETURN_NOT_OK(input_->NextBatch(&batch_, &has_more));
      done_ = !has_more;
      pos_ = 0;
    }
    *tuple = std::move(batch_.tuple(pos_++));
    *has_tuple = true;
    return Status::OK();
  }

 private:
  Operator* input_;
  TupleBatch batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// Drain()'s default end-of-stream step: nothing.
struct DrainNoFinish {
  Status operator()() const { return Status::OK(); }
};

namespace drain_internal {

template <typename Sink, typename Finish>
Status PullToEnd(Operator* input, TupleBatch* batch, const ExecContext* ctx,
                 Sink& sink, Finish& finish) {
  bool has_more = true;
  while (has_more) {
    if (ctx != nullptr) RELDIV_RETURN_NOT_OK(ctx->CheckCancelled());
    RELDIV_RETURN_NOT_OK(input->NextBatch(batch, &has_more));
    RELDIV_RETURN_NOT_OK(sink(*batch));
  }
  return finish();
}

/// Closes `input` and returns `status`, or the close status if `status` is
/// OK: the first error wins.
inline Status CloseAfter(Operator* input, const Status& status) {
  Status closed = input->Close();
  return status.ok() ? closed : status;
}

}  // namespace drain_internal

/// Reads `input` to its end: Open(), then NextBatch() until `*has_more` is
/// false, handing every batch (the last, possibly empty, one included) to
/// `sink(TupleBatch&) -> Status`, then `finish() -> Status` once while the
/// input is still open, then Close().
///
///  - No pull follows end of stream.
///  - After a good Open() the input is closed exactly once, on every path;
///    a failed Open() leaves it unclosed.
///  - An open, pull, sink, finish or cancellation error wins over a later
///    close error.
///  - Given a context, ctx->CheckCancelled() runs before every pull, so a
///    cancelled query stops at the next batch boundary of any drain.
///
/// This form pulls into a scratch batch of `capacity` slots that it owns
/// and charges to no pool. Plan-internal drains pass
/// ExecContext::batch_capacity(), the session's read-ahead.
template <typename Sink, typename Finish = DrainNoFinish>
Status Drain(Operator* input, size_t capacity, const ExecContext* ctx,
             Sink sink, Finish finish = Finish{}) {
  RELDIV_RETURN_NOT_OK(input->Open());
  TupleBatch batch(capacity);
  return drain_internal::CloseAfter(
      input, drain_internal::PullToEnd(input, &batch, ctx, sink, finish));
}

/// Drain() into an operator-owned input batch, which is charged to
/// ctx->pool(): after the input's Open() it is re-sized to
/// ctx->batch_capacity() if its capacity differs.
template <typename Sink>
Status Drain(Operator* input, TupleBatch* batch, ExecContext* ctx,
             Sink sink) {
  RELDIV_RETURN_NOT_OK(input->Open());
  if (batch->capacity() != ctx->batch_capacity()) {
    batch->ResetCapacity(ctx->batch_capacity(), ctx->pool());
  }
  DrainNoFinish finish;
  return drain_internal::CloseAfter(
      input, drain_internal::PullToEnd(input, batch, ctx, sink, finish));
}

/// Drains `op` into a vector. `batch_capacity` sets the drain's unit of
/// work; no cancellation is polled.
Result<std::vector<Tuple>> CollectAll(
    Operator* op, size_t batch_capacity = TupleBatch::kDefaultCapacity);

/// CollectAll for a query root run on `ctx`: batches of
/// ctx->batch_capacity(), polling the context's cancellation flag.
Result<std::vector<Tuple>> CollectAll(ExecContext* ctx, Operator* op);

}  // namespace reldiv

#endif  // RELDIV_EXEC_OPERATOR_H_
