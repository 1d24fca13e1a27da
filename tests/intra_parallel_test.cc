// Lane-equivalence suite: every division algorithm must produce a
// bit-identical quotient AND bit-identical Table 1 counter totals at every
// worker count (ExecContext::dop 1, 4, 8). The parallel operators guarantee
// this by keeping the work DECOMPOSITION (fragments, sort chunks, §3.4
// clusters/phases) independent of the worker count — dop only changes which
// scheduler lane executes a piece — and by merging per-fragment counters in
// a fixed order. tools/check_all.sh re-runs this binary under TSan at
// RELDIV_THREADS=1,4,8.

#include <atomic>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "division/division.h"
#include "division/hash_division.h"
#include "division/partitioned_hash_division.h"
#include "exec/database.h"
#include "exec/exchange.h"
#include "exec/scan.h"
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
  DiskStats disk;
  BufferStats buffer;
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
    return ColdRun(dop, [&](ExecContext* ctx, std::vector<Tuple>* out) {
      RELDIV_ASSIGN_OR_RETURN(*out,
                              Divide(ctx, Query(), algorithm, options));
      return Status::OK();
    });
  }

  /// Runs `run` cold at the given worker count and measures its quotient
  /// and its counter, disk and buffer deltas.
  template <typename Run>
  Result<RunOutcome> ColdRun(size_t dop, const Run& run) {
    ExecContext* ctx = db_->ctx();
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->FlushAll());
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->DropAll());
    ctx->set_dop(dop);
    // Discard the sub-page Move residue of whatever ran before, so two
    // identical runs report identical Move deltas (see CountMoveBytes).
    ctx->ResetMoveAccumulator();
    const CpuCounters before = *ctx->counters();
    const DiskStats disk_before = db_->disk()->stats();
    const BufferStats buffer_before = db_->buffer_manager()->stats();
    RunOutcome outcome;
    const Status status = run(ctx, &outcome.quotient);
    ctx->set_dop(1);
    RELDIV_RETURN_NOT_OK(status);
    outcome.cpu = *ctx->counters() - before;
    outcome.disk = db_->disk()->stats() - disk_before;
    const BufferStats buffer_after = db_->buffer_manager()->stats();
    outcome.buffer.fixes = buffer_after.fixes - buffer_before.fixes;
    outcome.buffer.hits = buffer_after.hits - buffer_before.hits;
    outcome.buffer.misses = buffer_after.misses - buffer_before.misses;
    outcome.buffer.evictions =
        buffer_after.evictions - buffer_before.evictions;
    return outcome;
  }

  /// Divide(kHashDivision) with `fragments` parallel fragments, rebuilt from
  /// the public entry points the way bench/e2e's traced run rebuilds it:
  /// the same steps, inputs and cardinality hints.
  static Status RebuiltParallelHashDivision(ExecContext* ctx,
                                            const DivisionQuery& query,
                                            size_t fragments,
                                            std::vector<Tuple>* out) {
    RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved,
                            ResolveDivision(query));
    DivisionOptions options;
    options.parallel_fragments = fragments;
    options.expected_divisor_cardinality =
        resolved.divisor.store->num_records();
    HashDivisionCore core(ctx, resolved.match_attrs, resolved.quotient_attrs,
                          options);
    ScanOperator divisor(ctx, resolved.divisor);
    RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor));
    ScanOperator dividend(ctx, resolved.dividend);
    RELDIV_ASSIGN_OR_RETURN(
        std::vector<std::vector<Tuple>> buckets,
        DrainAndHashRepartition(ctx, &dividend, resolved.quotient_attrs,
                                fragments));
    return RunDivisionFragments(ctx, resolved.match_attrs,
                                resolved.quotient_attrs, options, core,
                                buckets, out);
  }

  /// The workload's dividend with its int64 quotient column replaced by a
  /// variable-length string, loaded as table "lane_strings"; `rows` gets
  /// its tuples.
  Result<Relation> StringDividend(std::vector<Tuple>* rows) {
    const Schema schema{Field{"student", ValueType::kString},
                        Field{"divisor_id", ValueType::kInt64}};
    RELDIV_ASSIGN_OR_RETURN(Relation relation,
                            db_->CreateTable("lane_strings", schema));
    for (const Tuple& tuple : workload_.dividend) {
      const int64_t id = tuple.value(0).int64();
      rows->push_back(Tuple{Value::String("s" + std::string(id % 7, '#') +
                                           std::to_string(id)),
                            tuple.value(1)});
      RELDIV_RETURN_NOT_OK(db_->Insert("lane_strings", rows->back()));
    }
    return relation;
  }

  static void ExpectIdentical(const RunOutcome& base, const RunOutcome& run,
                              const std::string& what) {
    EXPECT_EQ(run.quotient, base.quotient) << what << ": quotient drifted";
    EXPECT_EQ(run.cpu.comparisons, base.cpu.comparisons) << what;
    EXPECT_EQ(run.cpu.hashes, base.cpu.hashes) << what;
    EXPECT_EQ(run.cpu.moves, base.cpu.moves) << what;
    EXPECT_EQ(run.cpu.bit_ops, base.cpu.bit_ops) << what;
  }

  static void ExpectSameStorage(const RunOutcome& base, const RunOutcome& run,
                                const std::string& what) {
    EXPECT_EQ(run.disk.transfers, base.disk.transfers) << what;
    EXPECT_EQ(run.disk.seeks, base.disk.seeks) << what;
    EXPECT_EQ(run.disk.sectors_transferred, base.disk.sectors_transferred)
        << what;
    EXPECT_EQ(run.buffer.fixes, base.buffer.fixes) << what;
    EXPECT_EQ(run.buffer.hits, base.buffer.hits) << what;
    EXPECT_EQ(run.buffer.misses, base.buffer.misses) << what;
    EXPECT_EQ(run.buffer.evictions, base.buffer.evictions) << what;
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
  // phases overflow, so the defer-and-rerun path and the quotient splits
  // run at every worker count; 600 bytes is below a divisor cluster's
  // table plus one candidate, so divisor clusters split as well (and the
  // quotient strategy falls to the divisor strategy).
  constexpr size_t kTight = 8 * 1024;
  constexpr size_t kTighter = 600;
  const struct {
    PartitionStrategy strategy;
    size_t hash_memory_bytes;
  } cases[] = {{PartitionStrategy::kQuotient, 0},
               {PartitionStrategy::kDivisor, 0},
               {PartitionStrategy::kQuotient, kTight},
               {PartitionStrategy::kDivisor, kTight},
               {PartitionStrategy::kQuotient, kTighter},
               {PartitionStrategy::kDivisor, kTighter}};
  TelemetryCounter* repartitions_total =
      MetricRegistry::Global().FindOrCreateCounter(
          metric_names::kRepartitionsTotal);
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(Query()));
  for (const auto& c : cases) {
    DivisionOptions options;
    options.partition_strategy = c.strategy;
    options.num_partitions = 3;
    const std::string name =
        std::string(c.strategy == PartitionStrategy::kQuotient ? "quotient"
                                                               : "divisor") +
        " with hash_memory_bytes " + std::to_string(c.hash_memory_bytes);
    db_->ctx()->set_hash_memory_bytes(c.hash_memory_bytes);
    size_t divisor_splits = 0;
    auto run_at = [&](size_t dop) {
      return ColdRun(dop, [&](ExecContext* ctx, std::vector<Tuple>* out) {
        PartitionedHashDivisionOperator op(ctx, resolved, options);
        RELDIV_ASSIGN_OR_RETURN(*out, CollectAll(ctx, &op));
        divisor_splits = op.divisor_splits();
        return Status::OK();
      });
    };
    const uint64_t repartitions_before = repartitions_total->value();
    ASSERT_OK_AND_ASSIGN(RunOutcome base, run_at(1));
    EXPECT_EQ(Sorted(base.quotient), workload_.expected_quotient) << name;
    const size_t base_divisor_splits = divisor_splits;
    if (c.hash_memory_bytes != 0) {
      EXPECT_GT(repartitions_total->value(), repartitions_before) << name;
    }
    EXPECT_EQ(base_divisor_splits > 0, c.hash_memory_bytes == kTighter)
        << name;
    for (size_t dop : {3u, 4u, 8u}) {
      ASSERT_OK_AND_ASSIGN(RunOutcome run, run_at(dop));
      ExpectIdentical(base, run, name + " at dop " + std::to_string(dop));
      ExpectSameStorage(base, run, name + " at dop " + std::to_string(dop));
      EXPECT_EQ(divisor_splits, base_divisor_splits) << name << " at dop "
                                                     << dop;
    }
  }
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

TEST_F(IntraParallelTest, GenericFragmentPathIsLaneEquivalent) {
  // A string quotient column: the fragments cannot take the int64 probe, so
  // each decodes its rows into batches for ConsumeBatch. That path, too,
  // must not let the worker count move a counter, a transfer, a buffer
  // statistic or the emission order.
  std::vector<Tuple> rows;
  ASSERT_OK_AND_ASSIGN(Relation string_dividend, StringDividend(&rows));
  const DivisionQuery query{string_dividend, divisor_, {"divisor_id"}};
  DivisionOptions options;
  options.parallel_fragments = 8;
  const auto run_at = [&](size_t dop) {
    return ColdRun(dop, [&](ExecContext* ctx, std::vector<Tuple>* out) {
      RELDIV_ASSIGN_OR_RETURN(
          *out, Divide(ctx, query, DivisionAlgorithm::kHashDivision, options));
      return Status::OK();
    });
  };
  ASSERT_OK_AND_ASSIGN(RunOutcome base, run_at(1));
  EXPECT_EQ(Sorted(base.quotient),
            Sorted(ReferenceDivision(rows, workload_.divisor, {1}, {0})));
  for (size_t dop : {3u, 8u}) {
    const std::string what = "string dividend at dop " + std::to_string(dop);
    ASSERT_OK_AND_ASSIGN(RunOutcome run, run_at(dop));
    ExpectIdentical(base, run, what);  // the quotient in emission order
    ExpectSameStorage(base, run, what);
  }
}

TEST_F(IntraParallelTest, ParallelDivideEqualsThePublicRebuild) {
  // The dividend again with a variable-length string quotient column, so
  // the exchange's pages carry rows of different sizes.
  std::vector<Tuple> rows;
  ASSERT_OK_AND_ASSIGN(Relation string_dividend, StringDividend(&rows));
  const struct {
    DivisionQuery query;
    std::vector<Tuple> expected;
    const char* name;
  } cases[] = {{Query(), workload_.expected_quotient, "int64"},
               {{string_dividend, divisor_, {"divisor_id"}},
                Sorted(ReferenceDivision(rows, workload_.divisor, {1}, {0})),
                "string"}};
  for (const auto& c : cases) {
    for (size_t fragments : {1u, 3u, 16u}) {
      DivisionOptions options;
      options.parallel_fragments = fragments;
      for (size_t dop : {1u, 3u}) {
        const std::string what = std::string(c.name) + ", " +
                                 std::to_string(fragments) +
                                 " fragments at dop " + std::to_string(dop);
        ASSERT_OK_AND_ASSIGN(
            RunOutcome divided,
            ColdRun(dop, [&](ExecContext* ctx, std::vector<Tuple>* out) {
              RELDIV_ASSIGN_OR_RETURN(
                  *out, Divide(ctx, c.query, DivisionAlgorithm::kHashDivision,
                               options));
              return Status::OK();
            }));
        EXPECT_EQ(Sorted(divided.quotient), c.expected) << what;
        ASSERT_OK_AND_ASSIGN(
            RunOutcome rebuilt,
            ColdRun(dop, [&](ExecContext* ctx, std::vector<Tuple>* out) {
              return RebuiltParallelHashDivision(ctx, c.query, fragments,
                                                 out);
            }));
        ExpectIdentical(divided, rebuilt, what);
        ExpectSameStorage(divided, rebuilt, what);
      }
    }
  }
}

TEST_F(IntraParallelTest, FragmentsSeeTheQueryCancellationFlag) {
  std::atomic<bool> cancel{true};
  ExecContext* ctx = db_->ctx();
  ctx->set_cancellation_flag(&cancel);
  ctx->set_dop(3);
  const Status region =
      RunFragments(ctx, 4, [](size_t, ExecContext* fragment_ctx) {
        return fragment_ctx->CheckCancelled();
      });
  EXPECT_EQ(region.code(), StatusCode::kCancelled) << region.ToString();

  DivisionOptions options;
  options.parallel_fragments = 8;
  const Status divided =
      Divide(ctx, Query(), DivisionAlgorithm::kHashDivision, options)
          .status();
  EXPECT_EQ(divided.code(), StatusCode::kCancelled) << divided.ToString();
  ctx->set_cancellation_flag(nullptr);
  ASSERT_OK(db_->buffer_manager()->FlushAll());
  ASSERT_OK(db_->buffer_manager()->DropAll());
  EXPECT_EQ(db_->pool()->used(), 0u) << "the cancelled run leaked memory";

  // The flag raised only once the dividend is repartitioned: the fragments'
  // batch checkpoints must stop the region.
  ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(Query()));
  HashDivisionCore core(ctx, resolved.match_attrs, resolved.quotient_attrs,
                        options);
  ScanOperator divisor(ctx, resolved.divisor);
  ASSERT_OK(core.BuildDivisorTable(&divisor));
  ScanOperator dividend(ctx, resolved.dividend);
  ASSERT_OK_AND_ASSIGN(
      std::vector<std::vector<Tuple>> buckets,
      DrainAndHashRepartition(ctx, &dividend, resolved.quotient_attrs, 8));
  ctx->set_cancellation_flag(&cancel);
  std::vector<Tuple> partial;
  const Status fragments =
      RunDivisionFragments(ctx, resolved.match_attrs, resolved.quotient_attrs,
                           options, core, buckets, &partial);
  EXPECT_EQ(fragments.code(), StatusCode::kCancelled) << fragments.ToString();
  ctx->set_cancellation_flag(nullptr);
  ctx->set_dop(1);

  // Nothing was left behind: the same parallel plan succeeds.
  ASSERT_OK_AND_ASSIGN(RunOutcome run,
                       RunAt(3, DivisionAlgorithm::kHashDivision, options));
  EXPECT_EQ(Sorted(run.quotient), workload_.expected_quotient);
}

}  // namespace
}  // namespace reldiv
