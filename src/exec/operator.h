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
/// operator that consumes an input one tuple at a time reads it through an
/// InputCursor.
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
/// that consume their input tuple by tuple (sorts, merge joins, naive
/// division). The owner calls Reset() from Open() with
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

/// Drains `op` (Open/NextBatch*/Close) into a vector. `batch_capacity` sets
/// the drain's unit of work.
Result<std::vector<Tuple>> CollectAll(
    Operator* op, size_t batch_capacity = TupleBatch::kDefaultCapacity);

}  // namespace reldiv

#endif  // RELDIV_EXEC_OPERATOR_H_
