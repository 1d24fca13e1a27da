#ifndef RELDIV_EXEC_SORT_H_
#define RELDIV_EXEC_SORT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metric_names.h"
#include "common/row_codec.h"
#include "exec/exec_context.h"
#include "exec/kernels/kernels.h"
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

/// Aggregation during sorting (§2.2.1): lifts each tuple of `input_schema`
/// to (its `group` columns..., count=1), sorts on the group columns, and
/// sums the counts of equal keys.
SortSpec CountingSortSpec(const Schema& input_schema,
                          std::vector<size_t> group);

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

  /// The whole-key code of `t` (kernels::EncodeSortKey): its int64 key
  /// columns in order, up to two, then at most one string's 8-byte prefix.
  /// Computed once per tuple, uncounted — it is encoding, not a key
  /// comparison. All-zero when the sort has no keys.
  kernels::SortKeyCode KeyCode(const Tuple& t) const;
  /// The sort's one key comparison, resolved through memoized codes and
  /// charged to `ctx` (a private fragment context during parallel run
  /// formation): one counted Comp per invocation, whatever decides it. A
  /// code difference decides; a tie decides equality when the code is
  /// complete (`code_complete_`: at most two key columns, all int64 — the
  /// naive dividend and divisor keys, sort-aggregate's group key) and
  /// otherwise falls back to `a.CompareAt(spec_.keys, b)`. It is
  /// extensionally equal to that uncoded comparison, so every
  /// sort/merge/collapse decision — and therefore every Table 1 total — is
  /// the uncoded sort's, bit for bit.
  int CompareCodedOn(ExecContext* ctx, const kernels::SortKeyCode& code_a,
                     const Tuple& a, const kernels::SortKeyCode& code_b,
                     const Tuple& b) const;
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
  /// Opens one reader per run, decodes each first record into its head
  /// tuple and heaps them.
  Status StartMerge(const std::vector<std::unique_ptr<Run>>& runs);
  /// Produces the merge's next tuple before collapse grouping, along with
  /// its memoized key code. `*tuple`'s old contents are reused: they are
  /// swapped in as the popped reader's head, and its next record is decoded
  /// over them.
  Status MergeNext(Tuple* tuple, kernels::SortKeyCode* code, bool* has_next);

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  SortSpec spec_;
  Schema working_schema_;
  RowCodec codec_;
  /// Whether a code tie proves a key tie (kernels::SortKeyCodeIsComplete
  /// over working_schema_); decided once, in the constructor.
  bool code_complete_;
  size_t max_fan_in_;

  // In-memory path.
  bool in_memory_ = false;
  std::vector<Tuple> memory_tuples_;
  size_t memory_pos_ = 0;

  // External path.
  std::vector<std::unique_ptr<Run>> runs_;
  // Merge state, shared by the intermediate merges in Open() and then the
  // final merge: one reader and one decoded head tuple per input run, and
  // a binary heap of small {code, reader} entries. Tuples stay in heads_;
  // the heap reads them only to break an incomplete-code tie.
  std::vector<std::unique_ptr<RunReader>> readers_;
  std::vector<Tuple> heads_;
  struct HeapEntry {
    kernels::SortKeyCode code;  ///< KeyCode(heads_[reader]), at decode time
    size_t reader;
  };
  std::vector<HeapEntry> heap_;
  std::string record_;  ///< the last record read, before its decode
  bool HeapLess(const HeapEntry& a, const HeapEntry& b) const;
  void HeapPush(HeapEntry entry);
  HeapEntry HeapPop();

  // Collapse grouping state for the final merge.
  bool have_pending_ = false;
  Tuple pending_;
  kernels::SortKeyCode pending_code_;
  Tuple next_;  ///< merge output awaiting its group decision

  size_t initial_runs_ = 0;
  size_t intermediate_merges_ = 0;
  bool open_ = false;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_SORT_H_
