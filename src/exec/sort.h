#ifndef RELDIV_EXEC_SORT_H_
#define RELDIV_EXEC_SORT_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/metric_names.h"
#include "common/row_codec.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Configuration of a sort.
///
/// `lift` optionally transforms each input tuple into a working tuple before
/// sorting (e.g. Transcript(student, course) → (student, count=1) for
/// aggregation during sorting); `lifted_schema` then describes the working
/// tuples and `keys` index into them. With `collapse_equal_keys`, tuples
/// with equal sort keys are combined as early as possible — during run
/// formation and in every merge — via `merge` (default: keep the first
/// tuple, i.e. plain duplicate elimination). This mirrors the paper's sort,
/// which "performs aggregation and duplicate elimination as early as
/// possible, i.e., no intermediate run contains duplicate sort keys".
struct SortSpec {
  std::vector<size_t> keys;
  bool collapse_equal_keys = false;
  std::function<Tuple(const Tuple&)> lift;
  std::optional<Schema> lifted_schema;
  std::function<void(Tuple*, const Tuple&)> merge;
};

/// External merge sort (§2.1/§5.1): quicksort run formation bounded by the
/// context's sort space, runs written with 1 KB transfers for high fan-in,
/// intermediate merges until one merge step is left, and the final merge
/// performed on demand by NextBatch() (paper footnote 2). Inputs that fit in
/// the sort space are sorted entirely in memory with no I/O.
///
/// Run formation is morsel-parallel: spilled chunks are collected into a
/// window of up to ExecContext::dop() chunks, the window's chunks are
/// quicksorted (and collapsed) concurrently on the TaskScheduler, then the
/// runs are written serially in chunk order. Chunk boundaries come from the
/// sort-space accounting alone, so the run contents, every Table 1 counter
/// total, and the disk layout are identical at any worker count; dop only
/// bounds how many chunks are held (and sorted) at once, so peak memory is
/// up to dop sort spaces during formation.
class SortOperator : public Operator {
 public:
  SortOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
               SortSpec spec);
  ~SortOperator() override;

  const Schema& output_schema() const override { return working_schema_; }

  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&SortOperator::Step>(this, batch, has_more);
  }
  Status Close() override;

  /// Number of initial runs written to disk (0 = in-memory sort). Test hook.
  size_t initial_runs() const { return initial_runs_; }
  /// Number of intermediate merge passes performed in Open(). Test hook.
  size_t intermediate_merges() const { return intermediate_merges_; }

  /// Spill behavior: whether the input fit in the sort space, and if not,
  /// how many runs were written and how many intermediate merges ran.
  void ExportGauges(GaugeList* gauges) const override {
    gauges->emplace_back(metric_names::kGaugeInMemory,
                         in_memory_ ? 1.0 : 0.0);
    gauges->emplace_back(metric_names::kGaugeInitialRuns,
                         static_cast<double>(initial_runs_));
    gauges->emplace_back(metric_names::kGaugeIntermediateMerges,
                         static_cast<double>(intermediate_merges_));
  }

 private:
  class Run;
  class RunReader;

  /// Produces the next sorted (and collapsed) tuple.
  Status Step(Tuple* tuple, bool* has_next);

  int CompareKeys(const Tuple& a, const Tuple& b) const;
  /// CompareKeys charging an explicit context — the parallel run-formation
  /// path, where each chunk's comparisons go to a private fragment context.
  int CompareKeysOn(ExecContext* ctx, const Tuple& a, const Tuple& b) const;
  /// Order-preserving code of `t`'s first sort key (kernels::NormalizedKey);
  /// 0 when the sort has no keys. Computed once per tuple, uncounted — it is
  /// encoding, not a key comparison.
  uint64_t KeyCode(const Tuple& t) const;
  /// CompareKeysOn resolved through memoized codes: one counted Comp per
  /// invocation, the full key comparison only on code-equal pairs. By the
  /// NormalizedKey invariant this is extensionally equal to CompareKeysOn,
  /// so every sort/merge/collapse decision — and therefore every Table 1
  /// total — matches the uncoded comparator bit for bit.
  int CompareCodedOn(ExecContext* ctx, uint64_t code_a, const Tuple& a,
                     uint64_t code_b, const Tuple& b) const;
  void Combine(Tuple* acc, const Tuple& next) const;
  /// Quicksorts `chunk` in place and (with collapse) combines equal-key
  /// groups, charging all comparisons to `ctx`. Pure CPU — safe to run
  /// concurrently for distinct chunks.
  Status SortChunk(ExecContext* ctx, std::vector<Tuple>* chunk) const;
  /// Writes an already-sorted (and collapsed) chunk as a new run.
  Status WriteSortedRun(std::vector<Tuple>* chunk);
  /// Sorts the window's chunks concurrently, then writes their runs
  /// serially in chunk order. Clears the window.
  Status FlushChunkWindow(std::vector<std::vector<Tuple>>* window);
  /// Merges `inputs` into a single new run (with collapse).
  Status MergeRuns(std::vector<std::unique_ptr<Run>> inputs);
  Status OpenFinalMerge();
  /// Produces the next tuple of the final merge before collapse grouping,
  /// along with its memoized key code.
  Status RawMergeNext(Tuple* tuple, uint64_t* code, bool* has_next);

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  InputCursor input_;
  SortSpec spec_;
  Schema working_schema_;
  RowCodec codec_;
  size_t max_fan_in_;

  // In-memory path.
  bool in_memory_ = false;
  std::vector<Tuple> memory_tuples_;
  size_t memory_pos_ = 0;

  // External path.
  std::vector<std::unique_ptr<Run>> runs_;
  std::vector<std::unique_ptr<RunReader>> final_readers_;
  struct HeapEntry {
    Tuple tuple;
    uint64_t code = 0;  ///< KeyCode(tuple), computed once at decode time
    size_t reader;
  };
  std::vector<HeapEntry> heap_;
  bool HeapLess(const HeapEntry& a, const HeapEntry& b) const;
  void HeapPush(HeapEntry entry);
  HeapEntry HeapPop();

  // Collapse grouping state for the final merge.
  bool have_pending_ = false;
  Tuple pending_;
  uint64_t pending_code_ = 0;

  size_t initial_runs_ = 0;
  size_t intermediate_merges_ = 0;
  bool open_ = false;
  /// The child is opened and drained inside Open(); if Open() fails in
  /// between, Close() still owes the child its Close() call.
  bool child_open_ = false;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_SORT_H_
