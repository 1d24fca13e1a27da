#ifndef RELDIV_PARALLEL_PARALLEL_HASH_DIVISION_H_
#define RELDIV_PARALLEL_PARALLEL_HASH_DIVISION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"
#include "division/division.h"
#include "parallel/network.h"
#include "parallel/node.h"

namespace reldiv {

/// Configuration of a shared-nothing hash-division run (§6).
struct ParallelDivisionOptions {
  size_t num_nodes = 4;

  /// Quotient partitioning replicates the divisor table into every node's
  /// memory, after which the local operators work completely independently.
  /// Divisor partitioning processes divisor clusters in parallel and routes
  /// the tagged quotient clusters to a collection site that divides them
  /// over the set of node addresses.
  PartitionStrategy strategy = PartitionStrategy::kQuotient;

  /// Babb bit-vector filtering (§6): avoid shipping dividend tuples for
  /// which no divisor record exists.
  bool use_bit_vector_filter = false;
  size_t bit_vector_bits = 4096;

  /// §6: "in the unlikely case that the central collection site becomes a
  /// bottleneck, it is possible to decentralize the collection step using
  /// quotient partitioning" — tagged quotient tuples are routed to
  /// hash(quotient attrs) mod n instead of one site, and every node runs a
  /// collection division over its share. Divisor partitioning only.
  bool decentralized_collection = false;

  /// Hash-division tuning forwarded to each node's local division. Execute
  /// refuses, with InvalidArgument, `parallel_fragments > 0` and whatever
  /// ValidateDivisionOptions refuses for kHashDivision. `partition_strategy`
  /// and `num_partitions` belong to partitioned hash-division, so they are
  /// not validated and have no effect here: the strategy that applies is
  /// `strategy` above.
  DivisionOptions division;

  /// Optional trace (obs/event_log.h): the engine attaches it to the
  /// interconnect (per-shipment events on the sender's timeline lane) and
  /// emits one "local-division" span per worker node. Not owned; must
  /// outlive the engine's Execute() calls.
  EventLog* trace = nullptr;
};

/// Measured behavior of one worker node's local division section.
struct NodeExecutionMetrics {
  size_t node_id = 0;
  uint64_t dividend_tuples = 0;  ///< tuples routed to this node
  uint64_t quotient_tuples = 0;  ///< quotient tuples the node produced
  double local_ms = 0;           ///< wall time of the local section
  double cpu_model_ms = 0;       ///< Table 1 cost of the section's counters
  CpuCounters cpu;               ///< the section's counter deltas
};

/// Outcome of one parallel division, including the interconnect accounting
/// the §6 benchmarks report.
struct ParallelDivisionResult {
  std::vector<Tuple> quotient;
  uint64_t network_messages = 0;
  uint64_t network_bytes = 0;
  uint64_t tuples_filtered = 0;  ///< dividend tuples dropped by the filter
  uint64_t tuples_shipped = 0;   ///< dividend tuples sent to a remote node
  double wall_ms = 0;            ///< elapsed time of the parallel section
  double max_node_ms = 0;        ///< slowest node's local wall time
  /// Slowest node's local division cost from its operation counters under
  /// the Table 1 unit times — the machine-independent critical path of the
  /// parallel section (host thread scheduling does not distort it).
  double max_node_cpu_ms = 0;
  /// One entry per node that ran a local division, in node order — the
  /// per-node skew picture behind the two maxima above.
  std::vector<NodeExecutionMetrics> node_metrics;
};

/// Simulated shared-nothing execution of hash-division: worker threads with
/// private memory, an accounting interconnect, and the two §6 partitioning
/// strategies with optional bit-vector filtering. Base relations start
/// round-robin declustered across the nodes, as in GAMMA. Both strategies
/// move data the way the in-process exchange does (exec/exchange.h): every
/// routed tuple is appended to its receiver's EncodedPartition, and the
/// shipment's byte count is that encoded row.
class ParallelHashDivisionEngine {
 public:
  explicit ParallelHashDivisionEngine(const ParallelDivisionOptions& options);
  ~ParallelHashDivisionEngine();

  /// Runs dividend ÷ divisor. `match_attrs` are the dividend columns matched
  /// positionally against all divisor columns. The interconnect is reset
  /// first, so interconnect() describes the last run only.
  Result<ParallelDivisionResult> Execute(
      const Schema& dividend_schema, const Schema& divisor_schema,
      const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
      const std::vector<size_t>& match_attrs);

  const Interconnect& interconnect() const { return interconnect_; }

 private:
  ParallelDivisionOptions options_;
  std::vector<std::unique_ptr<WorkerNode>> nodes_;
  Interconnect interconnect_;
};

}  // namespace reldiv

#endif  // RELDIV_PARALLEL_PARALLEL_HASH_DIVISION_H_
