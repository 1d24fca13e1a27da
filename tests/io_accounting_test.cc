// Deterministic I/O-accounting assertions: the simulated disk's statistics
// are exact, so tests can pin down each algorithm's I/O behaviour without
// any wall-clock flakiness — the same property the paper's experimental
// methodology relies on (§5.1).

#include <memory>
#include <vector>

#include "cost/io_cost.h"
#include "division/division.h"
#include "exec/database.h"
#include "exec/exchange.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

class IoAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(bench_options()));
  }

  static DatabaseOptions bench_options() {
    DatabaseOptions options;
    options.pool_bytes = kDefaultBufferPoolBytes;  // the paper's 256 KB
    options.sort_space_bytes = kDefaultSortSpaceBytes;
    return options;
  }

  /// Runs `algorithm` cold and returns the disk statistics it incurred.
  Result<DiskStats> Run(const DivisionQuery& query,
                        DivisionAlgorithm algorithm) {
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->FlushAll());
    RELDIV_RETURN_NOT_OK(db_->buffer_manager()->DropAll());
    const DiskStats before = db_->disk()->stats();
    RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> plan,
                            MakeDivisionPlan(db_->ctx(), query, algorithm));
    RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> out, CollectAll(plan.get()));
    (void)out;
    return db_->disk()->stats() - before;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(IoAccountingTest, HashDivisionReadsEachInputExactlyOnce) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(100, 400));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "once", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(DiskStats stats,
                       Run(query, DivisionAlgorithm::kHashDivision));
  // One 8 KB read per data page of the two inputs, nothing else: no
  // temporary files, no writes, no re-reads.
  const uint64_t input_pages =
      dividend.store->num_pages() + divisor.store->num_pages();
  EXPECT_EQ(stats.read_transfers, input_pages);
  EXPECT_EQ(stats.write_transfers, 0u);
  EXPECT_EQ(stats.sectors_transferred, input_pages * kSectorsPerPage);
}

TEST_F(IoAccountingTest, SortBasedAlgorithmsWriteTemporaryRuns) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(100, 400));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "runs", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(DiskStats naive,
                       Run(query, DivisionAlgorithm::kNaive));
  // The 40,000-tuple dividend exceeds the 100 KB sort space: runs are
  // written and read back.
  EXPECT_GT(naive.write_transfers, 0u);
  // Run transfers use the 1 KB unit (§5.1): the average transfer is
  // strictly below a full 8 KB page.
  EXPECT_LT(naive.sectors_transferred,
            naive.transfers * kSectorsPerPage);
  // And the with-join variant sorts the dividend twice, so it moves more.
  ASSERT_OK_AND_ASSIGN(DiskStats with_join,
                       Run(query, DivisionAlgorithm::kSortAggregateWithJoin));
  EXPECT_GT(with_join.sectors_transferred, naive.sectors_transferred);
}

TEST_F(IoAccountingTest, HashAggregationJoinSpoolsTheSemiJoinOutput) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(100, 400));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "spool", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(DiskStats no_join,
                       Run(query, DivisionAlgorithm::kHashAggregate));
  ASSERT_OK_AND_ASSIGN(DiskStats with_join,
                       Run(query, DivisionAlgorithm::kHashAggregateWithJoin));
  EXPECT_EQ(no_join.write_transfers, 0u);
  EXPECT_GT(with_join.write_transfers, 0u);  // the spool
  EXPECT_GT(with_join.sectors_transferred,
            2 * no_join.sectors_transferred);  // write + re-read ≈ +2r
}

TEST_F(IoAccountingTest, IoCostOrderingMatchesTheAnalyticalRanking) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(100, 100));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "rank", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(DiskStats naive, Run(query, DivisionAlgorithm::kNaive));
  ASSERT_OK_AND_ASSIGN(DiskStats hash_div,
                       Run(query, DivisionAlgorithm::kHashDivision));
  EXPECT_GT(IoCostMs(naive), IoCostMs(hash_div));
}

TEST_F(IoAccountingTest, SequentialInputScansDoNotSeekPerPage) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(25, 400));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "seq", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(DiskStats stats,
                       Run(query, DivisionAlgorithm::kHashDivision));
  // Extent-based placement keeps the two input scans nearly seek-free: far
  // fewer seeks than transfers (at most one per extent boundary + the
  // switch between the relations).
  EXPECT_LT(stats.seeks, stats.transfers / 4 + 2);
}

TEST_F(IoAccountingTest, ConcurrentScansReadEachPageExactlyOnce) {
  // Four fragments scan the SAME stored relation concurrently on scheduler
  // lanes. The buffer manager serializes Fix, so the first toucher of a
  // page pays one 8 KB read and everyone else hits the resident frame: the
  // Table 1 accounting must show each data page read EXACTLY once — no
  // double-counted transfers from racing cache misses, no lost updates.
  GeneratedWorkload workload = GenerateWorkload(PaperCell(25, 100));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "conc", &dividend, &divisor));
  ASSERT_OK(db_->buffer_manager()->FlushAll());
  ASSERT_OK(db_->buffer_manager()->DropAll());
  const DiskStats before = db_->disk()->stats();

  constexpr size_t kScans = 4;
  db_->ctx()->set_dop(kScans);
  std::vector<size_t> rows_seen(kScans, 0);
  ASSERT_OK(RunFragments(
      db_->ctx(), kScans, [&](size_t i, ExecContext* fragment_ctx) -> Status {
        ScanOperator scan(fragment_ctx, dividend);
        RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                                CollectAll(&scan));
        rows_seen[i] = rows.size();
        return Status::OK();
      }));

  for (size_t i = 0; i < kScans; ++i) {
    EXPECT_EQ(rows_seen[i], workload.dividend.size()) << "scan " << i;
  }
  const DiskStats cold = db_->disk()->stats() - before;
  EXPECT_EQ(cold.read_transfers, dividend.store->num_pages());
  EXPECT_EQ(cold.write_transfers, 0u);
  EXPECT_EQ(cold.sectors_transferred,
            dividend.store->num_pages() * kSectorsPerPage);

  // Warm repeat: every page is resident, so the counters must not move at
  // all — monotone totals with nothing double-counted on hits.
  const DiskStats warm_before = db_->disk()->stats();
  ASSERT_OK(RunFragments(
      db_->ctx(), kScans, [&](size_t, ExecContext* fragment_ctx) -> Status {
        ScanOperator scan(fragment_ctx, dividend);
        RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> rows, CollectAll(&scan));
        return rows.size() == workload.dividend.size()
                   ? Status::OK()
                   : Status::Internal("warm scan lost tuples");
      }));
  const DiskStats warm_delta = db_->disk()->stats() - warm_before;
  EXPECT_EQ(warm_delta.transfers, 0u);
  EXPECT_EQ(warm_delta.sectors_transferred, 0u);
}

TEST_F(IoAccountingTest, RerunningTheSameQueryIsIoDeterministic) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(25, 100));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "det", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(DiskStats first,
                       Run(query, DivisionAlgorithm::kHashDivision));
  ASSERT_OK_AND_ASSIGN(DiskStats second,
                       Run(query, DivisionAlgorithm::kHashDivision));
  EXPECT_EQ(first.transfers, second.transfers);
  EXPECT_EQ(first.seeks, second.seeks);
  EXPECT_EQ(first.sectors_transferred, second.sectors_transferred);
}

}  // namespace
}  // namespace reldiv
