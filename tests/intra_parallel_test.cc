// Lane-equivalence suite: every division algorithm must produce a
// bit-identical quotient AND bit-identical Table 1 counter totals at every
// worker count (ExecContext::dop 1, 4, 8). The parallel operators guarantee
// this by keeping the work DECOMPOSITION (fragments, sort chunks, §3.4
// clusters/phases) independent of the worker count — dop only changes which
// scheduler lane executes a piece — and by merging per-fragment counters in
// a fixed order. tools/check_all.sh re-runs this binary under TSan at
// RELDIV_THREADS=1,4,8.

#include <string>
#include <vector>

#include "common/metric_names.h"
#include "division/division.h"
#include "exec/database.h"
#include "gtest/gtest.h"
#include "obs/telemetry.h"
#include "testing/failpoint.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

struct RunOutcome {
  std::vector<Tuple> quotient;  ///< in emission order, NOT sorted
  CpuCounters cpu;
};

/// Workload with non-matching tuples, incomplete candidates, and duplicates
/// so the duplicate-handling and spill paths all execute; sized to overflow
/// the default sort space, which makes the sort-based algorithms exercise
/// the morsel-parallel run formation.
class IntraParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec;
    spec.divisor_cardinality = 24;
    spec.quotient_candidates = 400;
    spec.candidate_completeness = 0.65;
    spec.nonmatching_tuples = 800;
    spec.dividend_duplicates = 300;
    spec.divisor_duplicates = 8;
    spec.seed = 17;
    workload_ = GenerateWorkload(spec);
    ASSERT_OK_AND_ASSIGN(db_, Database::Open());
    ASSERT_OK(
        LoadWorkload(db_.get(), workload_, "lane", &dividend_, &divisor_));
  }

  DivisionQuery Query() { return {dividend_, divisor_, {"divisor_id"}}; }

  /// One cold run at the given worker count: buffer pool purged first so
  /// every run starts from the same storage state.
  Result<RunOutcome> RunAt(size_t dop, DivisionAlgorithm algorithm,
                           const DivisionOptions& options) {
    ExecContext* ctx = db_->ctx();
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->FlushAll());
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->DropAll());
    ctx->set_dop(dop);
    // Discard the sub-page Move residue of whatever ran before, so two
    // identical runs report identical Move deltas (see CountMoveBytes).
    ctx->ResetMoveAccumulator();
    const CpuCounters before = *ctx->counters();
    Result<std::vector<Tuple>> quotient =
        Divide(ctx, Query(), algorithm, options);
    const CpuCounters after = *ctx->counters();
    ctx->set_dop(1);
    RELDIV_RETURN_NOT_OK(quotient.status());
    RunOutcome outcome;
    outcome.quotient = quotient.MoveValue();
    outcome.cpu = after - before;
    return outcome;
  }

  static void ExpectIdentical(const RunOutcome& base, const RunOutcome& run,
                              const std::string& what) {
    EXPECT_EQ(run.quotient, base.quotient) << what << ": quotient drifted";
    EXPECT_EQ(run.cpu.comparisons, base.cpu.comparisons) << what;
    EXPECT_EQ(run.cpu.hashes, base.cpu.hashes) << what;
    EXPECT_EQ(run.cpu.moves, base.cpu.moves) << what;
    EXPECT_EQ(run.cpu.bit_ops, base.cpu.bit_ops) << what;
  }

  GeneratedWorkload workload_;
  std::unique_ptr<Database> db_;
  Relation dividend_;
  Relation divisor_;
};

TEST_F(IntraParallelTest, AllAlgorithmsAreLaneEquivalentAcrossWorkerCounts) {
  const DivisionAlgorithm algorithms[] = {
      DivisionAlgorithm::kNaive,
      DivisionAlgorithm::kSortAggregate,
      DivisionAlgorithm::kSortAggregateWithJoin,
      DivisionAlgorithm::kHashAggregate,
      DivisionAlgorithm::kHashAggregateWithJoin,
      DivisionAlgorithm::kHashDivision,
      DivisionAlgorithm::kHashDivisionPartitioned,
  };
  DivisionOptions options;
  options.eliminate_duplicates = true;  // the inputs carry duplicates
  for (DivisionAlgorithm algorithm : algorithms) {
    const std::string name = DivisionAlgorithmName(algorithm);
    ASSERT_OK_AND_ASSIGN(RunOutcome base, RunAt(1, algorithm, options));
    // The no-join aggregation strategies assume referential integrity
    // (§2.2); the workload's foreign tuples violate that by design, so
    // their quotient is checked only for lane equivalence, not content.
    const bool no_join_aggregation =
        algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate;
    if (!no_join_aggregation) {
      EXPECT_EQ(Sorted(base.quotient), workload_.expected_quotient) << name;
    }
    for (size_t dop : {4u, 8u}) {
      ASSERT_OK_AND_ASSIGN(RunOutcome run, RunAt(dop, algorithm, options));
      ExpectIdentical(base, run, name + " at dop " + std::to_string(dop));
    }
  }
}

TEST_F(IntraParallelTest, ParallelFragmentsAreLaneEquivalentPerFragmentCount) {
  ASSERT_OK_AND_ASSIGN(
      RunOutcome serial,
      RunAt(1, DivisionAlgorithm::kHashDivision, DivisionOptions{}));
  EXPECT_EQ(Sorted(serial.quotient), workload_.expected_quotient);
  for (size_t fragments : {1u, 3u, 8u}) {
    DivisionOptions options;
    options.parallel_fragments = fragments;
    // The fragment count fixes the decomposition (and with it the exact
    // counter totals); the worker count must not move either.
    ASSERT_OK_AND_ASSIGN(
        RunOutcome base, RunAt(1, DivisionAlgorithm::kHashDivision, options));
    EXPECT_EQ(Sorted(base.quotient), workload_.expected_quotient)
        << fragments << " fragments";
    for (size_t dop : {4u, 8u}) {
      ASSERT_OK_AND_ASSIGN(
          RunOutcome run,
          RunAt(dop, DivisionAlgorithm::kHashDivision, options));
      ExpectIdentical(base, run,
                      std::to_string(fragments) + " fragments at dop " +
                          std::to_string(dop));
    }
  }
}

TEST_F(IntraParallelTest, PartitionedStrategiesAreLaneEquivalent) {
  // hash_memory_bytes 0 is unbounded. The 8 KiB budget makes in-region
  // phases overflow, so the defer-and-rerun path runs at every worker count
  // (and, for the combined strategy, the collection split as well).
  constexpr size_t kTight = 8 * 1024;
  const struct {
    PartitionStrategy strategy;
    size_t hash_memory_bytes;
  } cases[] = {{PartitionStrategy::kQuotient, 0},
               {PartitionStrategy::kDivisor, 0},
               {PartitionStrategy::kCombined, 0},
               {PartitionStrategy::kQuotient, kTight},
               {PartitionStrategy::kCombined, kTight}};
  TelemetryCounter* repartitions_total =
      MetricRegistry::Global().FindOrCreateCounter(
          metric_names::kRepartitionsTotal);
  for (const auto& c : cases) {
    DivisionOptions options;
    options.partition_strategy = c.strategy;
    options.num_partitions = 3;
    options.num_quotient_subpartitions = 2;
    const std::string name =
        std::string(c.strategy == PartitionStrategy::kQuotient
                        ? "quotient"
                        : (c.strategy == PartitionStrategy::kDivisor
                               ? "divisor"
                               : "combined")) +
        " with hash_memory_bytes " + std::to_string(c.hash_memory_bytes);
    db_->ctx()->set_hash_memory_bytes(c.hash_memory_bytes);
    const uint64_t repartitions_before = repartitions_total->value();
    ASSERT_OK_AND_ASSIGN(
        RunOutcome base,
        RunAt(1, DivisionAlgorithm::kHashDivisionPartitioned, options));
    EXPECT_EQ(Sorted(base.quotient), workload_.expected_quotient) << name;
    if (c.hash_memory_bytes != 0) {
      EXPECT_GT(repartitions_total->value(), repartitions_before) << name;
    }
    for (size_t dop : {4u, 8u}) {
      ASSERT_OK_AND_ASSIGN(
          RunOutcome run,
          RunAt(dop, DivisionAlgorithm::kHashDivisionPartitioned, options));
      ExpectIdentical(base, run, name + " at dop " + std::to_string(dop));
    }
  }
}

TEST_F(IntraParallelTest, ParallelFragmentsRejectEarlyOutput) {
  DivisionOptions options;
  options.parallel_fragments = 4;
  options.early_output = true;
  Result<std::vector<Tuple>> result =
      Divide(db_->ctx(), Query(), DivisionAlgorithm::kHashDivision, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IntraParallelTest, InjectedFaultSurfacesCleanlyFromAParallelPlan) {
  DivisionOptions options;
  options.parallel_fragments = 8;
  db_->ctx()->set_dop(4);
  {
    ScopedFailpoint fp("memory/reserve", FailpointPolicy::Always());
    Result<std::vector<Tuple>> result = Divide(
        db_->ctx(), Query(), DivisionAlgorithm::kHashDivision, options);
    EXPECT_FALSE(result.ok());
  }
  // The failed run left nothing behind: the same parallel plan succeeds.
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> quotient,
      Divide(db_->ctx(), Query(), DivisionAlgorithm::kHashDivision, options));
  db_->ctx()->set_dop(1);
  EXPECT_EQ(Sorted(std::move(quotient)), workload_.expected_quotient);
}

}  // namespace
}  // namespace reldiv
