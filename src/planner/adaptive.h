#ifndef RELDIV_PLANNER_ADAPTIVE_H_
#define RELDIV_PLANNER_ADAPTIVE_H_

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "division/division.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "planner/physical_planner.h"

namespace reldiv {

class HashDivisionCore;

/// Why the adaptive operator abandoned or adjusted its running plan.
enum class ReplanTrigger {
  kNone = 0,
  /// Checkpoint 0 (pre-execution): the cached dividend cardinality the
  /// chooser planned from diverges from the store's exact count.
  kDividendCardinality,
  /// Post-build checkpoint: the distinct divisor count observed while
  /// building the divisor table diverges from the planned cardinality.
  kDivisorCardinality,
  /// Mid-consume checkpoint: the quotient-candidate count observed so far —
  /// a hard lower bound on the final quotient width — already exceeds the
  /// planned estimate by the divergence threshold. (The corrected stats use
  /// a forward extrapolation; the trigger itself never does, so an honest
  /// estimate cannot fire it on the concave distinct-discovery curve.)
  kQuotientGrowth,
  /// The in-memory build was denied memory (pool grant or the
  /// hash_memory_bytes budget returned ResourceExhausted).
  kMemoryPressure,
};

/// Stable label for metrics/flight-ring events
/// ("dividend-cardinality", "memory-pressure", ...).
const char* ReplanTriggerName(ReplanTrigger trigger);

/// One re-planning decision. `to == from` records a checkpoint that fired
/// its divergence test but re-chose the same algorithm (decision: stay).
struct ReplanEvent {
  ReplanTrigger trigger = ReplanTrigger::kNone;
  DivisionAlgorithm from = DivisionAlgorithm::kHashDivision;
  DivisionAlgorithm to = DivisionAlgorithm::kHashDivision;
  double expected = 0;  ///< the planned value the checkpoint tested
  double observed = 0;  ///< the measured/extrapolated value
  uint64_t dividend_tuples_seen = 0;
};

/// Process-wide cache of observed division cardinalities, keyed by the
/// stored inputs and match attributes of a query. Per-query feedback
/// (AdaptiveDivisionOperator writes observations back on success) makes
/// repeated queries converge: the second run plans from measured values,
/// not the R = Q × S heuristic. EWMA merge so a one-off skewed run cannot
/// dominate. Thread-safe; all entry points are per-query cold paths.
///
/// Residency is bounded: entries beyond max_entries() are evicted least-
/// recently-used (Lookup and RecordObservation both refresh recency), with
/// evictions counted in reldiv_stats_cache_evictions. Unbounded growth was
/// a leak once a service loop sees millions of distinct (store, attrs)
/// keys — each dropped temp store left a dead entry behind forever.
class DivisionStatsCache {
 public:
  /// Default residency bound. Generous for any single workload (the whole
  /// differential corpus uses dozens of keys) while capping the structure
  /// at a few hundred KB however many distinct queries a server loop sees.
  static constexpr size_t kDefaultMaxEntries = 1024;

  struct Entry {
    double dividend_tuples = 0;
    double divisor_distinct = 0;
    double quotient_candidates = 0;
    uint64_t runs = 0;
  };

  static DivisionStatsCache& Global();

  std::optional<Entry> Lookup(const ResolvedDivision& resolved);

  /// EWMA-merges one run's observed values (alpha 0.5; the first
  /// observation is stored verbatim).
  void RecordObservation(const ResolvedDivision& resolved,
                         double dividend_tuples, double divisor_distinct,
                         double quotient_candidates);

  /// Plants an entry verbatim — the lying-stats fixtures force each re-plan
  /// trigger by injecting estimates the execution then contradicts.
  void InjectForTest(const ResolvedDivision& resolved, Entry entry);

  void Clear();
  size_t size() const;

  /// Caps resident entries, evicting LRU immediately if over the new bound.
  /// 0 is pinned to 1 (an unbounded cache is exactly the leak this exists
  /// to fix). Tests shrink it; the global default is kDefaultMaxEntries.
  void set_max_entries(size_t max_entries);
  size_t max_entries() const;

  /// Lifetime LRU evictions (mirrors reldiv_stats_cache_evictions).
  uint64_t evictions() const;

 private:
  DivisionStatsCache() = default;

  /// Stores have no names; identity is the store pointers plus the match
  /// columns (two queries over the same tables with different match attrs
  /// have different quotients).
  struct Key {
    const void* dividend;
    const void* divisor;
    std::vector<size_t> match_attrs;
    bool operator<(const Key& other) const {
      if (dividend != other.dividend) return dividend < other.dividend;
      if (divisor != other.divisor) return divisor < other.divisor;
      return match_attrs < other.match_attrs;
    }
  };
  static Key KeyFor(const ResolvedDivision& resolved);

  struct Node {
    Entry entry;
    std::list<Key>::iterator lru_pos;
  };

  /// Moves `it` to the MRU end and returns its node.
  Node& Touch(std::map<Key, Node>::iterator it) REQUIRES(mu_);
  /// Evicts LRU entries until the bound holds, counting each eviction.
  void EnforceBound() REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<Key, Node> entries_ GUARDED_BY(mu_);
  /// Recency order, most recent first; holds exactly the keys of entries_.
  std::list<Key> lru_ GUARDED_BY(mu_);
  size_t max_entries_ GUARDED_BY(mu_) = kDefaultMaxEntries;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

/// Tuning for adaptive execution.
struct AdaptiveOptions {
  /// Execution options forwarded to the chosen plan. The adaptive operator
  /// forces parallel_fragments/early_output off on the instrumented
  /// hash-division path (it owns that machinery itself).
  DivisionOptions division;
  /// Table 1 unit times for the chooser.
  CostUnits units;
  /// Consult DivisionStatsCache::Global() before choosing and write the
  /// observed cardinalities back on success.
  bool use_stats_cache = true;
  /// Non-zero replaces DivisionStats::memory_pages: tests pin the planner's
  /// memory picture independently of the pool/hash budgets that enforce it.
  double memory_pages_override = 0;
  /// Optimizer-hint pin of the initial algorithm (skips the chooser's
  /// argmin but keeps its predictions); checkpoints may still re-plan away.
  std::optional<DivisionAlgorithm> forced_initial;
};

/// Everything EXPLAIN ANALYZE and the differential tests need to know about
/// one adaptive execution.
struct AdaptiveReport {
  AlgorithmChoice initial;
  DivisionAlgorithm final_algorithm = DivisionAlgorithm::kHashDivision;
  std::vector<ReplanEvent> events;
  /// The stats the initial choice was made from (after any cache merge).
  DivisionStats planning_stats;
  uint64_t checkpoints_run = 0;
  bool stats_cache_hit = false;

  /// The EXPLAIN ANALYZE "replan:" line (without the "replan:" prefix or a
  /// trailing newline): initial choice, trigger chain, final algorithm —
  /// e.g. "hash-division -> hash-division-partitioned (divisor-cardinality
  /// at 0 tuples; expected 2, observed 600)" or "none (hash-division)".
  std::string ToLine() const;
};

/// Division under cardinality-checkpoint instrumentation: chooses with
/// ChooseDivisionAlgorithm (seeded from the stats cache), then executes the
/// choice while comparing observed cardinalities — dividend count, distinct
/// divisor count, quotient-candidate growth, hash-table memory — against
/// the planned DivisionStats. Divergence beyond kDivergenceThreshold
/// abandons or degrades mid-query:
///
///   - dividend-cardinality (checkpoint 0): sort-aggregation degrades to
///     its hash-aggregation sibling before any merge pass; other choices
///     are re-chosen outright;
///   - divisor-cardinality / quotient-growth: hash-division re-chooses from
///     corrected stats and abandons to the partitioned form when the
///     corrected tables no longer fit;
///   - memory-pressure: ResourceExhausted degrades straight into
///     partitioned hash-division with the caller's DivisionOptions.
///
/// Every decision lands in the flight ring and the reldiv_replan_*
/// metric family; successful runs feed observations back into the stats
/// cache. A run whose checkpoints never fire performs exactly the counted
/// operations of the equivalent static plan (the differential corpus
/// asserts Table 1 parity).
class AdaptiveDivisionOperator : public Operator {
 public:
  AdaptiveDivisionOperator(ExecContext* ctx, DivisionQuery query,
                           ResolvedDivision resolved,
                           const AdaptiveOptions& options);
  ~AdaptiveDivisionOperator() override;  // HashDivisionCore is incomplete here

  /// Observed/planned ratio (either direction) at which a checkpoint
  /// declares the estimate wrong and re-plans.
  static constexpr double kDivergenceThreshold = 4.0;
  /// Dividend tuples between mid-consume quotient-growth checkpoints.
  static constexpr uint64_t kCheckpointInterval = 256;

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&AdaptiveDivisionOperator::Step>(this, batch, has_more);
  }
  Status Close() override;

  /// `replans` (events recorded) and `replan_checkpoints` for the run.
  void ExportGauges(GaugeList* gauges) const override;

  /// Valid after Open(); reset by the next Open().
  const AdaptiveReport& report() const { return report_; }

 private:
  /// Records one decision in the report, the metric family, and the flight
  /// ring (the latter two only under Telemetry::counting()).
  void RecordDecision(ReplanEvent event);
  /// Emits the next buffered quotient tuple.
  Status Step(Tuple* tuple, bool* has_next);
  void CountCheckpoint();

  /// Runs `algorithm` as a static plan into results_ (the abandon path and
  /// every non-hash-division initial choice). A partitioned plan runs with
  /// `num_partitions` clusters (AlgorithmChoice::num_partitions).
  Status RunStatic(DivisionAlgorithm algorithm, size_t num_partitions);

  /// The instrumented hash-division drive: mirrors the serial
  /// HashDivisionOperator::Open counted operations exactly, adding only
  /// metadata checkpoints.
  Status RunHashDivision(DivisionStats stats);

  /// ResourceExhausted recovery: records the decision and runs the
  /// partitioned plan with the caller's DivisionOptions.
  Status DegradeOnMemoryPressure(uint64_t tuples_seen);

  void RecordFeedback();

  ExecContext* ctx_;
  DivisionQuery query_;
  ResolvedDivision resolved_;
  AdaptiveOptions options_;
  Schema schema_;

  AdaptiveReport report_;
  std::unique_ptr<HashDivisionCore> core_;
  double observed_divisor_distinct_ = 0;
  double observed_quotient_candidates_ = 0;
  std::vector<Tuple> results_;
  TupleBatch input_batch_{1};
  size_t emit_pos_ = 0;
};

/// Front end: resolve, then build the adaptive operator. Returned as the
/// concrete type so callers (EXPLAIN ANALYZE, tests) can read the report
/// after running it.
Result<std::unique_ptr<AdaptiveDivisionOperator>> PlanAdaptiveDivision(
    ExecContext* ctx, const DivisionQuery& query,
    const AdaptiveOptions& options = {});

}  // namespace reldiv

#endif  // RELDIV_PLANNER_ADAPTIVE_H_
