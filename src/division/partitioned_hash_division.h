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
/// function on the divisor attrs. Each phase tags its quotient cluster; a
/// final collection phase divides the union of the tagged clusters over the
/// set of tags — "this problem is exactly the division problem again" —
/// skipping step 1 of hash-division because the tag directly indexes the
/// bit map. An empty divisor cluster constrains nothing and gets no tag.
///
/// Overflow recovery (§3.4's "overflow avoidance ... may fail"; for two
/// tables too large the paper only says to "resort to combinations of the
/// techniques") is one recursive rule: the cluster that overflowed splits
/// in two, with a depth-salted hash, on the attrs of the table that
/// overflowed.
///  - Quotient table: the dividend cluster (or the collection phase's
///    tagged file) splits on the quotient attrs (`repartitions` gauge).
///  - Divisor table of a divisor-strategy phase, or a quotient split that
///    bottoms out: divisor and dividend cluster split on the divisor attrs,
///    each non-empty divisor half a phase with its own collection tag
///    (`divisor_splits` gauge).
///  - The quotient strategy's resident divisor table: the run falls to the
///    divisor strategy at the same partition count (`escalations` gauge).
/// Only ResourceExhausted triggers recovery; any other failure (an I/O
/// fault, a corrupt page) propagates unchanged.
///
/// Intra-node parallelism: the per-cluster (quotient strategy) and
/// per-phase (divisor strategy) loops run as morsels on the TaskScheduler,
/// one fragment per cluster/phase with a private ExecContext and
/// HashDivisionCore; quotient-strategy fragments borrow the one resident
/// divisor table read-only. The decomposition is the §3.4 partitioning
/// itself — fixed by num_partitions, never by worker count — nothing splits
/// inside a concurrent region (RunPhaseRegion), and results and counters
/// are merged in cluster/phase order, so the quotient and all Table 1 CPU
/// counter totals are identical at any RELDIV_THREADS.
class PartitionedHashDivisionOperator : public Operator {
 public:
  PartitionedHashDivisionOperator(ExecContext* ctx,
                                  const ResolvedDivision& resolved,
                                  const DivisionOptions& options);
  ~PartitionedHashDivisionOperator() override;

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  /// All phases run inside Open(); this just drains the buffered quotient.
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;

  /// Number of phases actually executed (test hook).
  size_t phases_run() const { return phases_run_; }
  /// Cluster splits on the quotient attrs (test hook).
  size_t repartitions() const { return repartitions_; }
  /// Divisor-cluster splits on the divisor attrs (test hook).
  size_t divisor_splits() const { return divisor_splits_; }
  /// Falls from the quotient to the divisor strategy (test hook).
  size_t escalations() const { return escalations_; }

  /// Partition passes executed over the spooled clusters, plus the overflow
  /// recovery counters (see the class comment).
  void ExportGauges(GaugeList* gauges) const override {
    gauges->emplace_back(metric_names::kGaugePhasesRun,
                         static_cast<double>(phases_run_));
    gauges->emplace_back(metric_names::kGaugeRepartitions,
                         static_cast<double>(repartitions_));
    gauges->emplace_back(metric_names::kGaugeEscalations,
                         static_cast<double>(escalations_));
    gauges->emplace_back(metric_names::kGaugeDivisorSplits,
                         static_cast<double>(divisor_splits_));
  }

 private:
  /// What one §3.4 phase (a cluster of the quotient strategy, a divisor
  /// cluster of the divisor strategy) produced.
  struct PhaseOutput {
    std::vector<Tuple> quotient;
    /// Divisor strategy: where each collection tag's quotient ends in
    /// `quotient`, in split order (one entry unless the phase split).
    std::vector<size_t> tag_ends;
    size_t phases = 0;          ///< phases completed, recursive splits included
    size_t repartitions = 0;    ///< cluster splits on the quotient attrs
    size_t divisor_splits = 0;  ///< cluster splits on the divisor attrs
  };
  /// Runs phase `i`, charging `ctx`; with `allow_split` false the first
  /// overflow surfaces as ResourceExhausted instead of being recovered.
  using PhaseBody = std::function<Status(size_t i, ExecContext* ctx,
                                         bool allow_split, PhaseOutput* out)>;

  Status RunQuotientPartitioned();
  /// Partitions both inputs on the divisor attrs, runs one phase per
  /// non-empty divisor cluster and collects the tagged phase quotients.
  Status RunDivisorPartitioned();

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
  /// divisor table (DivideCluster hint `expected_cardinality`), recursively
  /// splitting the cluster when its quotient table overflows the memory
  /// budget. `depth` salts the split hash so a re-split does not reproduce
  /// the parent partitioning. All work is charged to `ctx`; quotient tuples
  /// and phase/split tallies go to `out`. `label` prefixes the spill files
  /// of recursive splits and must be unique per concurrent caller. With
  /// `allow_split` false the first overflow surfaces as ResourceExhausted
  /// instead of splitting (see RunPhaseRegion).
  Status DivideQuotientCluster(ExecContext* ctx, HashDivisionCore* core,
                               RecordFile* cluster,
                               uint64_t expected_cardinality, size_t depth,
                               const std::string& label, bool allow_split,
                               PhaseOutput* out);

  /// One divisor-strategy phase: builds `divisor`'s table, divides
  /// `dividend` with DivideQuotientCluster and closes a tag in
  /// `out->tag_ends`. If that still overflows and `divisor` has more than
  /// one row, the attempt's quotient is dropped and both clusters split in
  /// two on the divisor attrs (salted by `depth`), each half with a
  /// non-empty divisor a phase of its own. Other arguments as above.
  Status DivideDivisorCluster(ExecContext* ctx, RecordFile* divisor,
                              RecordFile* dividend, size_t depth,
                              const std::string& label, bool allow_split,
                              PhaseOutput* out);

  ExecContext* ctx_;
  ResolvedDivision resolved_;
  DivisionOptions options_;
  Schema schema_;

  std::vector<Tuple> results_;
  size_t emit_pos_ = 0;
  size_t phases_run_ = 0;
  size_t repartitions_ = 0;
  size_t escalations_ = 0;
  size_t divisor_splits_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_DIVISION_PARTITIONED_HASH_DIVISION_H_
