#ifndef RELDIV_DIVISION_PARTITIONED_HASH_DIVISION_H_
#define RELDIV_DIVISION_PARTITIONED_HASH_DIVISION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "division/division.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

class HashDivisionCore;
class RecordFile;

/// The collection phase of divisor partitioning (§3.4) and of §6's
/// collection sites — "exactly the division problem again": divides
/// `tagged`, whose tuples are (quotient attrs..., tag) with an int64 tag,
/// over the set `tags`, and appends the quotient to `out`. Step 1 of
/// hash-division is skipped: the tags are seeded with dense divisor numbers
/// in the given order. `expected_cardinality` sizes the quotient table
/// (0 = the default size). All work is charged to `ctx`.
///
/// When the quotient table overflows, the tagged input is split in two on
/// the quotient attrs with a depth-salted hash (spooled to temporary files
/// on `ctx`'s disk) and each half is collected on its own, recursively:
/// every candidate's tags stay together, so the halves' quotients
/// concatenate. Each split adds one to `*repartitions`. A first attempt
/// that fits reads `tagged` once; a split reopens it.
Status CollectTaggedQuotients(ExecContext* ctx, Operator* tagged,
                              const std::vector<int64_t>& tags,
                              uint64_t expected_cardinality,
                              std::vector<Tuple>* out, size_t* repartitions);

/// Hash-division with hash-table-overflow management (§3.4): the inputs are
/// hash-partitioned into disjoint clusters spooled to temporary files and
/// processed one cluster per phase.
///
/// Quotient partitioning: the dividend is partitioned on the quotient
/// attrs; every phase divides one dividend cluster by the ENTIRE divisor,
/// whose table is built once and stays resident across phases. The final
/// quotient is the concatenation of the per-phase quotients.
///
/// Divisor partitioning: divisor and dividend are partitioned with the same
/// function on the divisor attrs. Each phase produces a quotient cluster
/// tagged with its phase number; a final collection phase divides the union
/// of the tagged clusters over the set of participating phase numbers —
/// "this problem is exactly the division problem again" — skipping step 1 of
/// hash-division because the phase tag directly indexes the bit map. Phases
/// whose divisor cluster is empty constrain nothing and are excluded from
/// the collection divisor.
///
/// Overflow recovery (§3.4's "overflow avoidance ... may fail"): the
/// partition count is a planning estimate, so a cluster can still outgrow
/// the memory budget at run time. Four recovery mechanisms compose:
///  - Quotient strategy: a dividend cluster whose quotient table overflows
///    is recursively split in two with a depth-salted hash and each half is
///    divided on its own (`repartitions` gauge).
///  - Quotient strategy: if the resident divisor table itself overflows,
///    quotient partitioning cannot help (the divisor table is per-phase
///    state it never shrinks), so the operator escalates to the combined
///    strategy (`escalations` gauge).
///  - Divisor / combined strategies: a per-phase overflow restarts the whole
///    run with twice the partitions (`restarts` gauge), bounded; clusters
///    halve in expectation each restart.
///  - Divisor / combined strategies: an overflowing collection phase splits
///    the tagged quotient file in two on the quotient attrs and collects
///    each half on its own (`repartitions` gauge; CollectTaggedQuotients).
///    More partitions could not help there: the collector holds one entry
///    per candidate that completed some cluster.
/// Only ResourceExhausted triggers recovery; any other failure (an I/O
/// fault, a corrupt page) propagates unchanged.
///
/// Intra-node parallelism: the per-cluster (quotient strategy) and per-phase
/// (divisor/combined strategies) loops run as morsels on the TaskScheduler,
/// one fragment per cluster/phase with a private ExecContext and
/// HashDivisionCore; quotient-strategy fragments borrow the one resident
/// divisor table read-only. The decomposition is the §3.4 partitioning
/// itself — fixed by num_partitions, never by worker count — and results
/// and counters are merged in cluster/phase order, so the quotient and all
/// Table 1 CPU counter totals of a SUCCESSFUL run are identical at any
/// RELDIV_THREADS. (When a run fails and restarts, the counted work of the
/// failed attempt depends on which fragments progressed before the error
/// won — only successful attempts are counter-reproducible.)
class PartitionedHashDivisionOperator : public Operator {
 public:
  PartitionedHashDivisionOperator(ExecContext* ctx,
                                  const ResolvedDivision& resolved,
                                  const DivisionOptions& options);
  ~PartitionedHashDivisionOperator() override;

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status Next(Tuple* tuple, bool* has_next) override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  /// All phases run inside Open(); the output side just drains the buffered
  /// quotient, which is batch-native by construction.
  bool IsBatchNative() const override { return true; }
  Status Close() override;

  /// Number of phases actually executed (test hook).
  size_t phases_run() const { return phases_run_; }
  /// Recursive cluster splits taken by the quotient strategy (test hook).
  size_t repartitions() const { return repartitions_; }
  /// Full restarts with a doubled partition count (test hook).
  size_t restarts() const { return restarts_; }

  /// Partition passes executed over the spooled clusters, plus the overflow
  /// recovery counters (see the class comment).
  void ExportGauges(GaugeList* gauges) const override {
    gauges->emplace_back(metric_names::kGaugePhasesRun,
                         static_cast<double>(phases_run_));
    gauges->emplace_back(metric_names::kGaugeRepartitions,
                         static_cast<double>(repartitions_));
    gauges->emplace_back(metric_names::kGaugeEscalations,
                         static_cast<double>(escalations_));
    gauges->emplace_back(metric_names::kGaugeRestarts,
                         static_cast<double>(restarts_));
  }

 private:
  /// What one §3.4 phase (a cluster of the quotient strategy, a divisor
  /// cluster of the divisor/combined strategies) produced.
  struct PhaseOutput {
    std::vector<Tuple> quotient;
    size_t phases = 0;        ///< phases completed, recursive splits included
    size_t repartitions = 0;  ///< recursive cluster splits taken
  };
  /// Runs phase `i` with all work charged to `ctx`. With
  /// `allow_repartition` false the first overflow surfaces as
  /// ResourceExhausted instead of being recovered from.
  using PhaseBody = std::function<Status(
      size_t i, ExecContext* ctx, bool allow_repartition, PhaseOutput* out)>;

  Status RunQuotientPartitioned();
  /// The divisor and combined strategies: partition divisor and dividend on
  /// the divisor attrs, run one phase per non-empty divisor cluster, tag
  /// and spool the phase quotients in phase order, and collect them. The
  /// strategies differ only in the phase body.
  Status RunDivisorPartitioned(PartitionStrategy strategy,
                               size_t num_partitions);

  /// Runs `num_phases` independent phases as one RunFragments region, with
  /// overflow recovery disallowed. An in-region ResourceExhausted may be an
  /// artifact of the schedule (concurrent phases share the memory budget),
  /// and recovery decisions must not depend on the worker count: the
  /// attempt is discarded wholesale and the phase reruns serially on ctx_
  /// with recovery allowed. Fills `outputs` in phase order and folds their
  /// tallies into the operator gauges.
  Status RunPhaseRegion(size_t num_phases, const PhaseBody& body,
                        std::vector<PhaseOutput>* outputs);

  /// Divides one dividend cluster against `core`'s (possibly borrowed)
  /// divisor table, recursively splitting the cluster when its quotient
  /// table overflows the memory budget. `depth` salts the split hash so a
  /// re-split does not reproduce the parent partitioning. All work is
  /// charged to `ctx` and quotient tuples and phase/split tallies go to
  /// `out`. `label` prefixes the temporary spill files of recursive splits
  /// — it must be unique per concurrent caller. With `allow_repartition`
  /// false the first overflow surfaces as ResourceExhausted instead of
  /// splitting (see RunPhaseRegion).
  Status DivideQuotientCluster(ExecContext* ctx, HashDivisionCore* core,
                               RecordFile* cluster, size_t depth,
                               const std::string& label,
                               bool allow_repartition, PhaseOutput* out);

  ExecContext* ctx_;
  ResolvedDivision resolved_;
  DivisionOptions options_;
  Schema schema_;

  std::vector<Tuple> results_;
  size_t emit_pos_ = 0;
  size_t phases_run_ = 0;
  size_t repartitions_ = 0;
  size_t escalations_ = 0;
  size_t restarts_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_DIVISION_PARTITIONED_HASH_DIVISION_H_
