#ifndef RELDIV_OBS_METRICS_H_
#define RELDIV_OBS_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/disk.h"

namespace reldiv {

/// Measured behavior of one operator in a profiled plan, recorded by the
/// ProfiledOperator wrapper (obs/profiled_operator.h). Wall times, CPU
/// counter deltas, and I/O deltas are INCLUSIVE of everything pulled through
/// the operator — i.e. the whole subtree below it. Exclusive ("self")
/// figures are derived by subtracting the children on the MetricsNode.
struct OperatorMetrics {
  uint64_t opens = 0;
  uint64_t closes = 0;
  uint64_t next_batch_calls = 0;
  uint64_t tuples_out = 0;   ///< tuples emitted
  uint64_t batches_out = 0;  ///< non-empty batches emitted via NextBatch

  uint64_t open_ns = 0;   ///< wall time inside Open()
  uint64_t next_ns = 0;   ///< wall time inside NextBatch()
  uint64_t close_ns = 0;  ///< wall time inside Close()

  CpuCounters cpu;  ///< Table 1 cost-unit deltas (Comp/Hash/Move/Bit)
  DiskStats io;     ///< simulated-disk deltas (transfers/seeks/KB)

  /// Algorithm-specific gauges exported by the wrapped operator via
  /// Operator::ExportGauges — hash-division bitmap fill ratio and
  /// early-output hits, sort run/merge counts, partition phase counts,
  /// peak hash/sort memory, and so on.
  std::vector<std::pair<std::string, double>> gauges;

  uint64_t total_ns() const { return open_ns + next_ns + close_ns; }
};

/// One node of the per-query metrics tree; shape mirrors the operator tree
/// of the profiled plan. Owned by a QueryProfile.
class MetricsNode {
 public:
  explicit MetricsNode(std::string label) : label_(std::move(label)) {}

  const std::string& label() const { return label_; }
  OperatorMetrics& metrics() { return metrics_; }
  const OperatorMetrics& metrics() const { return metrics_; }
  const std::vector<MetricsNode*>& children() const { return children_; }

  /// Exclusive wall time: inclusive minus the children's inclusive time.
  uint64_t self_ns() const;
  /// Exclusive CPU cost units.
  CpuCounters self_cpu() const;
  /// Exclusive I/O counts.
  DiskStats self_io() const;

 private:
  friend class QueryProfile;

  std::string label_;
  OperatorMetrics metrics_;
  std::vector<MetricsNode*> children_;
};

/// Per-query metrics collection attached to an ExecContext by
/// ExecContext::set_profiling(true). Plan builders wrap the operators they
/// construct in ProfiledOperator, each of which registers one MetricsNode
/// here.
///
/// Tree construction exploits that plans are built bottom-up: when a node is
/// created, every currently unadopted root is a subtree of the operator now
/// being wrapped, so CreateNode() adopts them all as children. SealRoots()
/// (called by plan builders once a plan root is wrapped) freezes the
/// finished tree so a later plan on the same context becomes a sibling root
/// instead of adopting it.
///
/// Structural mutation (CreateNode/Mark/SealRoots/Clear) is mutex-guarded so
/// parallel sections may register nodes concurrently. Reading the tree
/// (roots/ToString/ToJson) and mutating a node's OperatorMetrics are NOT
/// synchronized here: reads happen after execution quiesces, and each
/// MetricsNode has a single writer (its ProfiledOperator wrapper, or the
/// one exchange fragment that owns the lane node — see exec/exchange.h).
class QueryProfile {
 public:
  QueryProfile() = default;

  QueryProfile(const QueryProfile&) = delete;
  QueryProfile& operator=(const QueryProfile&) = delete;

  /// Registers a node for a newly wrapped operator, adopting as children the
  /// unsealed roots created at or after `mark` (they were built below it).
  /// The default mark 0 adopts every unsealed root — correct for linear
  /// chains and for an operator combining everything built so far. When a
  /// plan has sibling input subtrees, the builder takes Mark() before
  /// constructing each later sibling and passes it to the wrappers along
  /// that sibling's spine, so they do not adopt the finished earlier
  /// siblings. Returns a pointer that stays valid until Clear().
  MetricsNode* CreateNode(std::string label, size_t mark = 0);

  /// Position token for CreateNode's `mark` (the current root count).
  size_t Mark() const {
    MutexLock lock(mu_);
    return roots_.size();
  }

  /// Marks every current root as a finished tree: future CreateNode() calls
  /// will not adopt them.
  void SealRoots();

  /// All tree roots, in creation order. Typically one per profiled query.
  /// Outside the analysis: hands out a reference to guarded structure, which
  /// is only legal under the class's quiesced-read contract (callers read
  /// the tree after execution ends; see the class comment).
  const std::vector<MetricsNode*>& roots() const NO_THREAD_SAFETY_ANALYSIS {
    return roots_;
  }

  /// Drops every node (invalidates all MetricsNode pointers).
  void Clear();

  /// Human-readable tree: per operator the call counts, emitted tuples and
  /// batches, inclusive/self wall time, self cost units, self I/O, and
  /// gauges.
  std::string ToString() const;

  /// Machine-readable mirror of ToString() (nested JSON objects).
  std::string ToJson() const;

 private:
  /// Guards nodes_/roots_/sealed_roots_ (structural state; class comment).
  mutable Mutex mu_;
  std::vector<std::unique_ptr<MetricsNode>> nodes_ GUARDED_BY(mu_);
  std::vector<MetricsNode*> roots_ GUARDED_BY(mu_);
  /// roots_[0 .. sealed_roots_) are frozen.
  size_t sealed_roots_ GUARDED_BY(mu_) = 0;
};

}  // namespace reldiv

#endif  // RELDIV_OBS_METRICS_H_
