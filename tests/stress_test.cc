// Large randomized end-to-end runs exercising the full stack under a
// constrained memory budget: external sorts spill, the buffer pool evicts,
// hash tables share the pool with frames, and every algorithm still has to
// agree with brute force.

#include <cstdlib>
#include <memory>
#include <string>

#include "common/rng.h"
#include "division/division.h"
#include "exec/database.h"
#include "gtest/gtest.h"
#include "planner/adaptive.h"
#include "testing/failpoint.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

struct StressCase {
  uint64_t divisor;
  uint64_t candidates;
  double completeness;
  uint64_t foreign;
  uint64_t dups;
  size_t pool_kb;  ///< 0 = unbounded
  uint64_t seed;
};

class StressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(StressTest, AllAlgorithmsAgreeUnderMemoryPressure) {
  const StressCase& c = GetParam();
  WorkloadSpec spec;
  spec.divisor_cardinality = c.divisor;
  spec.quotient_candidates = c.candidates;
  spec.candidate_completeness = c.completeness;
  spec.nonmatching_tuples = c.foreign;
  spec.dividend_duplicates = c.dups;
  spec.divisor_duplicates = c.dups / 10;
  spec.seed = c.seed;
  GeneratedWorkload workload = GenerateWorkload(spec);

  DatabaseOptions options;
  options.pool_bytes = c.pool_kb * 1024;
  options.sort_space_bytes = 24 * 1024;  // force external sorts
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "stress", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};

  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kNaive, DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregateWithJoin,
        DivisionAlgorithm::kHashDivisionPartitioned}) {
    DivisionOptions div_options;
    div_options.eliminate_duplicates =
        algorithm == DivisionAlgorithm::kSortAggregateWithJoin ||
        algorithm == DivisionAlgorithm::kHashAggregateWithJoin;
    div_options.num_partitions = 16;
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db->ctx(), query, algorithm, div_options));
    EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient)
        << DivisionAlgorithmName(algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StressTest,
    ::testing::Values(
        StressCase{60, 1500, 0.5, 20000, 5000, 0, 201},
        StressCase{200, 500, 0.3, 50000, 0, 0, 202},
        StressCase{30, 3000, 0.7, 0, 10000, 512, 203},
        StressCase{500, 100, 0.5, 30000, 2000, 512, 204}),
    [](const ::testing::TestParamInfo<StressCase>& param_info) {
      const StressCase& c = param_info.param;
      return "S" + std::to_string(c.divisor) + "_C" +
             std::to_string(c.candidates) + "_f" + std::to_string(c.foreign) +
             "_d" + std::to_string(c.dups) + "_m" +
             std::to_string(c.pool_kb);
    });

TEST(StressSingle, FileBackedDiskEndToEnd) {
  // Same pipeline on a Unix-file-backed simulated disk (§5.1 supports both
  // backings).
  DatabaseOptions options;
  options.pool_bytes = 256 * 1024;
  options.file_backed_disk = true;
  options.disk_path = "/tmp/reldiv-stress-disk.bin";
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  GeneratedWorkload workload = GenerateWorkload(PaperCell(50, 200));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "file", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kNaive, DivisionAlgorithm::kHashDivision}) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db->ctx(), query, algorithm));
    EXPECT_EQ(Sorted(std::move(quotient)), workload.expected_quotient)
        << DivisionAlgorithmName(algorithm);
  }
}

TEST(StressSingle, RepeatedQueriesReuseTheSameDatabase) {
  // Plans must not leak pins or pool memory: run many divisions back to
  // back on one instance with a finite budget and verify the pool drains.
  DatabaseOptions options;
  options.pool_bytes = 512 * 1024;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(options));
  GeneratedWorkload workload = GenerateWorkload(PaperCell(40, 100));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db.get(), workload, "loop", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  for (int round = 0; round < 20; ++round) {
    const DivisionAlgorithm algorithm =
        round % 2 == 0 ? DivisionAlgorithm::kHashDivision
                       : DivisionAlgorithm::kHashAggregateWithJoin;
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> quotient,
                         Divide(db->ctx(), query, algorithm));
    ASSERT_EQ(quotient.size(), workload.expected_quotient.size())
        << "round " << round;
  }
  // After draining the buffer pool, only frame memory may remain reserved.
  ASSERT_OK(db->buffer_manager()->FlushAll());
  ASSERT_OK(db->buffer_manager()->DropAll());
  EXPECT_EQ(db->pool()->used(), 0u);
}

/// Hash-division under the adaptive planner, whose memory-pressure
/// checkpoint degrades a denied build to partitioned hash-division (§3.4).
Result<std::vector<Tuple>> DivideAdaptively(ExecContext* ctx,
                                            const DivisionQuery& query,
                                            const DivisionOptions& options) {
  AdaptiveOptions adaptive;
  adaptive.division = options;
  adaptive.forced_initial = DivisionAlgorithm::kHashDivision;
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<AdaptiveDivisionOperator> op,
                          PlanAdaptiveDivision(ctx, query, adaptive));
  return CollectAll(op.get(), ctx->batch_capacity());
}

// Randomized failpoint-schedule fuzzer: each iteration draws a schedule
// (which sites, which trigger policies, which error codes) and one of the
// seven algorithms from a seeded Rng, then demands the differential
// contract — either the exact reference quotient (the faults were absorbed
// by eviction, the memory-pressure degrade, or a cluster split) or a clean
// non-OK Status at the root.
// The faults stage of tools/check_all.sh reruns this under ASan/TSan, which
// upgrades "clean" to "no leak, no use-after-free, no race". Iteration
// count can be raised via RELDIV_STRESS_ITERS; the seed of a failing
// schedule is in the trace, and pinning it back reproduces the run exactly.
TEST(FailpointFuzz, RandomSchedulesEndInExactQuotientOrCleanError) {
  uint64_t iters = 12;
  if (const char* env = std::getenv("RELDIV_STRESS_ITERS")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) iters = parsed;
  }

  WorkloadSpec spec;
  spec.divisor_cardinality = 10;
  spec.quotient_candidates = 60;
  spec.candidate_completeness = 0.5;
  spec.nonmatching_tuples = 0;  // keep the no-join aggregations valid
  spec.dividend_duplicates = 15;
  spec.seed = 31;
  const GeneratedWorkload workload = GenerateWorkload(spec);

  constexpr DivisionAlgorithm kAlgorithms[] = {
      DivisionAlgorithm::kNaive,
      DivisionAlgorithm::kSortAggregate,
      DivisionAlgorithm::kSortAggregateWithJoin,
      DivisionAlgorithm::kHashAggregate,
      DivisionAlgorithm::kHashAggregateWithJoin,
      DivisionAlgorithm::kHashDivision,
      DivisionAlgorithm::kHashDivisionPartitioned,
  };

  for (uint64_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = 0xfa170000u + iter;
    SCOPED_TRACE("failpoint fuzz seed " + std::to_string(seed));
    Rng rng(seed);

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         Database::Open(DatabaseOptions{}));
    Relation dividend, divisor;
    ASSERT_OK(LoadWorkload(db.get(), workload, "fuzz", &dividend, &divisor));
    // Evict the loaded pages so read faults are reachable too.
    ASSERT_OK(db->buffer_manager()->FlushAll());
    ASSERT_OK(db->buffer_manager()->DropAll());

    const size_t num_sites =
        sizeof(kFailpointSites) / sizeof(kFailpointSites[0]);
    const size_t armed = 1 + rng.Uniform(3);
    for (size_t i = 0; i < armed; ++i) {
      const char* site = kFailpointSites[rng.Uniform(num_sites)];
      constexpr StatusCode kCodes[] = {StatusCode::kIOError,
                                       StatusCode::kResourceExhausted,
                                       StatusCode::kCorruption};
      const StatusCode code = kCodes[rng.Uniform(3)];
      FailpointPolicy policy;
      switch (rng.Uniform(3)) {
        case 0:
          policy = FailpointPolicy::Always(code, "fuzz");
          break;
        case 1:
          policy = FailpointPolicy::OnNthHit(1 + rng.Uniform(20), code,
                                             "fuzz");
          break;
        default:
          policy = FailpointPolicy::WithProbability(
              1 + static_cast<uint32_t>(rng.Uniform(30)), rng.Next(), code,
              "fuzz");
          break;
      }
      FailpointRegistry::Global().Arm(site, policy);
    }

    const DivisionAlgorithm algorithm = kAlgorithms[rng.Uniform(7)];
    DivisionOptions div_options;
    div_options.eliminate_duplicates =
        algorithm == DivisionAlgorithm::kSortAggregate ||
        algorithm == DivisionAlgorithm::kHashAggregate ||
        algorithm == DivisionAlgorithm::kSortAggregateWithJoin ||
        algorithm == DivisionAlgorithm::kHashAggregateWithJoin;
    div_options.num_partitions = 4;
    // On the coin, hash-division runs under the adaptive planner, whose
    // memory-pressure checkpoint degrades to the §3.4 partitioned plan,
    // instead of the plain plan. Its stats cache is keyed by store
    // addresses, which a fresh database may reuse: cleared, a seed
    // reproduces when run alone.
    const bool adaptive = rng.Chance(50);
    DivisionStatsCache::Global().Clear();
    const DivisionQuery query{dividend, divisor, {"divisor_id"}};
    Result<std::vector<Tuple>> result =
        adaptive && algorithm == DivisionAlgorithm::kHashDivision
            ? DivideAdaptively(db->ctx(), query, div_options)
            : Divide(db->ctx(), query, algorithm, div_options);
    FailpointRegistry::Global().DisarmAll();

    if (result.ok()) {
      EXPECT_EQ(Sorted(result.MoveValue()), workload.expected_quotient)
          << DivisionAlgorithmName(algorithm)
          << ": a run that absorbs its faults must still be exact";
    } else {
      EXPECT_FALSE(result.status().message().empty())
          << DivisionAlgorithmName(algorithm);
    }
  }
}

}  // namespace
}  // namespace reldiv
