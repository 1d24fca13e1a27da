#ifndef RELDIV_DIVISION_DIVISION_H_
#define RELDIV_DIVISION_DIVISION_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/relation.h"

namespace reldiv {

/// The four division algorithms of the paper (aggregation-based ones in both
/// the plain form and the form with a preceding semi-join, §2), plus the
/// partitioned variant of hash-division for hash table overflow (§3.4).
enum class DivisionAlgorithm {
  kNaive,                  ///< §2.1 sort-based merging scan
  kSortAggregate,          ///< §2.2.1 counting via sorting
  kSortAggregateWithJoin,  ///< §2.2.1 with preceding merge semi-join
  kHashAggregate,          ///< §2.2.2 counting via hashing
  kHashAggregateWithJoin,  ///< §2.2.2 with preceding hash semi-join
  kHashDivision,           ///< §3, the paper's new algorithm
  kHashDivisionPartitioned,  ///< §3.4 overflow-resolving variant
};

/// Human-readable algorithm name for reports.
const char* DivisionAlgorithmName(DivisionAlgorithm algorithm);

/// §3.4 partitioning strategies.
enum class PartitionStrategy {
  kQuotient,  ///< partition dividend on quotient attrs; divisor stays resident
  kDivisor,   ///< partition both on divisor attrs; needs a collection phase
  /// Both tables too large (§3.4's closing question / §6 "combinations of
  /// the techniques"): divisor partitioning on the outside, quotient
  /// partitioning of each divisor cluster's dividend on the inside, then
  /// the usual collection phase over the divisor-cluster tags.
  kCombined,
};

/// Tuning and semantics options shared by the algorithm entry points.
struct DivisionOptions {
  /// Pre-process both inputs with duplicate elimination. Hash-division never
  /// needs this (divisor duplicates are eliminated on the fly and dividend
  /// duplicates map to the same bit); the other algorithms require
  /// duplicate-free inputs for correct counts (§2, §4).
  bool eliminate_duplicates = false;

  /// Footnote 1's alternative to the pre-pass: the aggregation strategies
  /// "explicitly request uniqueness of the ... counted" — per-group DISTINCT
  /// counts and a distinct divisor cardinality — making them robust to
  /// duplicate inputs without materializing de-duplicated copies. Only
  /// affects the aggregation-based algorithms; currently supported for
  /// single-column divisors.
  bool count_distinct = false;

  /// Hash-division §3.3: attach a counter to each quotient candidate and
  /// emit quotient tuples as soon as their bit map fills, making the
  /// operator a non-blocking producer.
  bool early_output = false;

  /// Hash-division §3.3 (sixth point): replace divisor numbers + bit maps
  /// with plain counters. Smaller state, but dividend duplicates are then
  /// double-counted — only valid on duplicate-free dividends.
  bool counters_instead_of_bitmaps = false;

  /// Cardinality hints used to size hash tables (0 = derive from inputs).
  uint64_t expected_divisor_cardinality = 0;
  uint64_t expected_quotient_cardinality = 0;

  /// Partitioned hash-division (§3.4).
  PartitionStrategy partition_strategy = PartitionStrategy::kQuotient;
  size_t num_partitions = 4;

  /// kCombined only: quotient sub-partitions within each divisor cluster
  /// (0 = same as num_partitions).
  size_t num_quotient_subpartitions = 0;

  /// kHashDivision only: in-process quotient partitioning (§6 applied to
  /// intra-node parallelism). 0 = serial (the default). When > 0 the
  /// operator builds the divisor table once, hash-partitions the dividend
  /// on the quotient attributes into this many fragments, and divides the
  /// fragments concurrently on the morsel scheduler, each against a private
  /// quotient table and the shared read-only divisor table. Correct for any
  /// value because tuples of one quotient candidate always land in the same
  /// fragment. The fragment decomposition — and therefore every Table 1
  /// counter total — depends only on this count, never on how many worker
  /// threads execute the fragments. (Totals differ from the serial plan by
  /// the repartitioning hash per dividend tuple.) Incompatible with
  /// early_output, whose eager emission is ordered by dividend arrival.
  size_t parallel_fragments = 0;
};

/// A division query: dividend ÷ divisor. The dividend columns named in
/// `match_attrs` are matched positionally against ALL divisor columns; the
/// remaining dividend columns form the quotient. Example (§2):
///   dividend  = Transcript(student_id, course_no)
///   divisor   = Courses(course_no)
///   match_attrs = {"course_no"}  →  quotient schema (student_id).
///
/// Empty-divisor convention: the quotient is empty (a quotient candidate
/// must match at least one divisor tuple), consistently across all
/// algorithms (see DESIGN.md §6).
struct DivisionQuery {
  Relation dividend;
  Relation divisor;
  std::vector<std::string> match_attrs;
};

/// Resolved form of a DivisionQuery (column indices instead of names).
struct ResolvedDivision {
  Relation dividend;
  Relation divisor;
  std::vector<size_t> match_attrs;     ///< divisor attrs within the dividend
  std::vector<size_t> quotient_attrs;  ///< complement, in declaration order
  Schema quotient_schema;
};

/// Validates the query: match arity equals divisor arity, types line up.
Result<ResolvedDivision> ResolveDivision(const DivisionQuery& query);

/// Builds an executable plan for `algorithm`. The plan reads the stored
/// relations; its output schema is the quotient schema.
Result<std::unique_ptr<Operator>> MakeDivisionPlan(
    ExecContext* ctx, const DivisionQuery& query, DivisionAlgorithm algorithm,
    const DivisionOptions& options = {});

/// One-call convenience: builds the plan, runs it, returns the quotient.
Result<std::vector<Tuple>> Divide(ExecContext* ctx,
                                  const DivisionQuery& query,
                                  DivisionAlgorithm algorithm,
                                  const DivisionOptions& options = {});

}  // namespace reldiv

#endif  // RELDIV_DIVISION_DIVISION_H_
