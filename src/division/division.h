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
};

/// Tuning and semantics options shared by the algorithm entry points.
///
/// Each field states which algorithms read it. ValidateDivisionOptions
/// refuses a field set for an algorithm that cannot honour it, so no plan
/// silently ignores or clears an option. `eliminate_duplicates` and the
/// cardinality hints are accepted everywhere.
struct DivisionOptions {
  /// States that the inputs may hold duplicates. Every algorithm honours
  /// it, so it is accepted everywhere: the aggregation algorithms, which
  /// count tuples and need duplicate-free inputs for correct counts (§2,
  /// §4), de-duplicate both inputs in a pre-pass; naive division collapses
  /// duplicates in its sorts and hash-division maps a dividend duplicate to
  /// the same bit and drops divisor duplicates while numbering them (§3.3),
  /// so both are exact without a pre-pass.
  bool eliminate_duplicates = false;

  /// kHashDivision only: emit each quotient tuple as soon as its bit map
  /// fills (a counter per candidate, §3.3), making the operator a
  /// non-blocking producer. Refused with any other algorithm (partitioned
  /// hash-division finishes every phase before it emits) and together with
  /// parallel_fragments.
  bool early_output = false;

  /// Cardinality hints used to size hash tables (0 = derive from inputs).
  /// Accepted everywhere; an algorithm without a hash table ignores them.
  uint64_t expected_divisor_cardinality = 0;
  uint64_t expected_quotient_cardinality = 0;

  /// Partitioned hash-division (§3.4): the strategy and the starting
  /// partition count (an overflowing cluster splits). The planners write
  /// both for every algorithm; kHashDivisionPartitioned alone reads them
  /// and refuses a strategy outside the enum and a zero count.
  PartitionStrategy partition_strategy = PartitionStrategy::kQuotient;
  size_t num_partitions = 4;

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
  /// the repartitioning hash per dividend tuple.) Refused with any other
  /// algorithm and together with early_output, whose eager emission is
  /// ordered by dividend arrival.
  size_t parallel_fragments = 0;
};

/// InvalidArgument when `options` sets a field that `algorithm` cannot
/// honour: early_output or parallel_fragments > 0 with anything but
/// kHashDivision, both of them together, or, for kHashDivisionPartitioned,
/// num_partitions == 0 or a partition_strategy that names no strategy.
/// MakeDivisionPlan and the two hash-division operators' Open call it; the
/// planners call it for every algorithm they may run before they run any.
Status ValidateDivisionOptions(DivisionAlgorithm algorithm,
                               const DivisionOptions& options);

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
