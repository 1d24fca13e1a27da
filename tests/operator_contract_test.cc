// Cross-cutting operator-contract tests: re-openability, mid-stream close,
// error propagation, and the helper operators (Spool, OwningOperator) that
// glue plans together.

#include <memory>

#include "division/count_filter.h"
#include "division/division.h"
#include "exec/database.h"
#include "exec/exchange.h"
#include "exec/hash_join.h"
#include "exec/materialize.h"
#include "exec/mem_source.h"
#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "gtest/gtest.h"
#include "storage/record_file.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

class OperatorContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  Schema TwoCol() {
    return Schema{Field{"a", ValueType::kInt64},
                  Field{"b", ValueType::kInt64}};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(OperatorContractTest, ScanReopensFromTheStart) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTable("t", TwoCol()));
  for (int i = 0; i < 10; ++i) ASSERT_OK(db_->Insert("t", T(i, i)));
  ScanOperator scan(db_->ctx(), rel);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> first, CollectAll(&scan));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> second, CollectAll(&scan));
  EXPECT_EQ(first, second);
}

TEST_F(OperatorContractTest, SortReopensFromTheStart) {
  std::vector<Tuple> input = {T(3, 0), T(1, 0), T(2, 0)};
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input),
                      spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> first, CollectAll(&sorter));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> second, CollectAll(&sorter));
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.front(), T(1, 0));
}

TEST_F(OperatorContractTest, PartitionSourceReopensAndAgreesAcrossBatchSizes) {
  const RowCodec codec(Schema{Field{"name", ValueType::kString},
                              Field{"b", ValueType::kInt64}});
  std::vector<Tuple> input;
  EncodedPartition partition;
  for (int i = 0; i < 5; ++i) {
    input.push_back(Tuple{Value::String(std::string(i, 'x')), Value::Int64(i)});
    ASSERT_OK(partition.Append(codec, input.back()));
  }
  PartitionSourceOperator source(&codec, &partition);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> pairs, CollectAll(&source, 2));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> singles, CollectAll(&source, 1));
  EXPECT_EQ(pairs, input);
  EXPECT_EQ(singles, input);
}

TEST_F(OperatorContractTest, DivisionPlanReopens) {
  GeneratedWorkload workload = GenerateWorkload(PaperCell(5, 6));
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "re", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> first, CollectAll(plan.get()));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> second, CollectAll(plan.get()));
  EXPECT_EQ(Sorted(std::move(first)), Sorted(std::move(second)));
}

TEST_F(OperatorContractTest, CloseWithoutDrainingReleasesPins) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTable("t", TwoCol()));
  for (int i = 0; i < 5000; ++i) ASSERT_OK(db_->Insert("t", T(i, i)));
  ScanOperator scan(db_->ctx(), rel);
  ASSERT_OK(scan.Open());
  TupleBatch batch(1);
  bool has_more = false;
  ASSERT_OK(scan.NextBatch(&batch, &has_more));
  ASSERT_TRUE(has_more);
  ASSERT_OK(scan.Close());  // page pinned by the scan must be released
  ASSERT_OK(db_->buffer_manager()->FlushAll());
  ASSERT_OK(db_->buffer_manager()->DropAll());  // fails if a pin leaked
}

TEST_F(OperatorContractTest, SpoolOperatorReopensByRespooling) {
  std::vector<Tuple> input = {T(1, 1), T(2, 2)};
  SpoolOperator spool(db_->ctx(),
                      std::make_unique<MemSourceOperator>(TwoCol(), input));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> first, CollectAll(&spool));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> second, CollectAll(&spool));
  EXPECT_EQ(first, second);
}

TEST_F(OperatorContractTest, OwningOperatorKeepsStoresAlive) {
  // Build a store, wrap a scan of it in OwningOperator, drop every other
  // reference, and drain: the data must still be there.
  auto store = std::make_unique<RecordFile>(db_->disk(),
                                            db_->buffer_manager(), "owned");
  Relation rel{TwoCol(), store.get()};
  ASSERT_OK(AppendAll(rel, {T(9, 9)}));
  std::vector<std::unique_ptr<RecordStore>> owned;
  owned.push_back(std::move(store));
  OwningOperator plan(std::make_unique<ScanOperator>(db_->ctx(), rel),
                      std::move(owned));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&plan));
  EXPECT_EQ(out, std::vector<Tuple>{T(9, 9)});
}

TEST_F(OperatorContractTest, GroupCountFilterRejectsNonIntCountColumn) {
  Schema bad{Field{"g", ValueType::kInt64}, Field{"count", ValueType::kString}};
  std::vector<Tuple> rows = {Tuple{Value::Int64(1), Value::String("x")}};
  ASSERT_OK_AND_ASSIGN(Relation divisor,
                       db_->CreateTable("divisor",
                                        Schema{Field{"d", ValueType::kInt64}}));
  GroupCountFilterOperator filter(
      db_->ctx(), std::make_unique<MemSourceOperator>(bad, rows), divisor);
  ASSERT_OK(filter.Open());
  TupleBatch batch(4);
  bool has_more = false;
  EXPECT_TRUE(filter.NextBatch(&batch, &has_more).IsInvalidArgument());
  ASSERT_OK(filter.Close());
}

TEST_F(OperatorContractTest, MaterializeIntoVirtualDeviceAndBack) {
  std::vector<Tuple> input;
  for (int i = 0; i < 1000; ++i) input.push_back(T(i, -i));
  ASSERT_OK_AND_ASSIGN(Relation tmp, db_->CreateTempTable("vd", TwoCol()));
  MemSourceOperator src(TwoCol(), input);
  ASSERT_OK_AND_ASSIGN(uint64_t n, Materialize(&src, tmp.store));
  EXPECT_EQ(n, 1000u);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, ReadAll(db_->ctx(), tmp));
  EXPECT_EQ(out, input);
}

TEST_F(OperatorContractTest, EmptyRelationThroughEveryUnaryOperator) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTable("empty", TwoCol()));
  {
    ScanOperator scan(db_->ctx(), rel);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&scan));
    EXPECT_TRUE(out.empty());
  }
  {
    SortSpec spec;
    spec.keys = {0};
    SortOperator sorter(db_->ctx(),
                        std::make_unique<ScanOperator>(db_->ctx(), rel),
                        spec);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&sorter));
    EXPECT_TRUE(out.empty());
  }
  {
    SpoolOperator spool(db_->ctx(),
                        std::make_unique<ScanOperator>(db_->ctx(), rel));
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&spool));
    EXPECT_TRUE(out.empty());
  }
}

TEST_F(OperatorContractTest, TupleBatchSlotReuseAndRetain) {
  TupleBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  for (int i = 0; i < 4; ++i) batch.PushBack(T(i, i));
  EXPECT_TRUE(batch.full());
  batch.Retain([](const Tuple& t) { return t.value(0).int64() % 2 == 0; });
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.tuple(0), T(0, 0));
  EXPECT_EQ(batch.tuple(1), T(2, 2));
  batch.PopBack();
  EXPECT_EQ(batch.size(), 1u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  // AddSlot hands back a cleared, reusable slot.
  Tuple* slot = batch.AddSlot();
  EXPECT_EQ(slot->size(), 0u);
  slot->Append(Value::Int64(7));
  EXPECT_EQ(batch.tuple(0), T(7));
}

/// Satellite property test: for every division algorithm and a set of
/// randomized workloads, every batch capacity must produce the quotient and
/// the Table 1 cost-counter deltas of capacity 1, the paper's
/// tuple-at-a-time iterator.
TEST_F(OperatorContractTest, BatchSizesAgreeOnEveryAlgorithm) {
  const DivisionAlgorithm kAlgorithms[] = {
      DivisionAlgorithm::kNaive,
      DivisionAlgorithm::kSortAggregate,
      DivisionAlgorithm::kSortAggregateWithJoin,
      DivisionAlgorithm::kHashAggregate,
      DivisionAlgorithm::kHashAggregateWithJoin,
      DivisionAlgorithm::kHashDivision,
      DivisionAlgorithm::kHashDivisionPartitioned,
  };

  std::vector<WorkloadSpec> specs;
  specs.push_back(PaperCell(5, 8));
  {
    WorkloadSpec spec;  // §4.6 speculation: misses and incomplete candidates
    spec.divisor_cardinality = 9;
    spec.quotient_candidates = 14;
    spec.candidate_completeness = 0.5;
    spec.nonmatching_tuples = 23;
    spec.seed = 11;
    specs.push_back(spec);
  }
  {
    WorkloadSpec spec;  // duplicate-laden inputs
    spec.divisor_cardinality = 6;
    spec.quotient_candidates = 10;
    spec.candidate_completeness = 0.7;
    spec.dividend_duplicates = 17;
    spec.divisor_duplicates = 5;
    spec.seed = 23;
    specs.push_back(spec);
  }

  for (size_t s = 0; s < specs.size(); ++s) {
    const WorkloadSpec& spec = specs[s];
    GeneratedWorkload workload = GenerateWorkload(spec);
    Relation dividend, divisor;
    ASSERT_OK(LoadWorkload(db_.get(), workload, "eq" + std::to_string(s),
                           &dividend, &divisor));
    DivisionQuery query{dividend, divisor, {"divisor_id"}};
    const bool has_duplicates =
        spec.dividend_duplicates + spec.divisor_duplicates > 0;

    for (DivisionAlgorithm algorithm : kAlgorithms) {
      SCOPED_TRACE(std::string(DivisionAlgorithmName(algorithm)) + " spec " +
                   std::to_string(s));
      DivisionOptions options;
      options.eliminate_duplicates = has_duplicates;

      // Each run starts from identical state: cold buffers, zeroed Move
      // remainder, and a counter snapshot taken just before the run.
      auto run = [&](size_t capacity, std::vector<Tuple>* quotient,
                     CpuCounters* delta) {
        db_->ctx()->set_batch_capacity(capacity);
        ASSERT_OK(db_->buffer_manager()->FlushAll());
        ASSERT_OK(db_->buffer_manager()->DropAll());
        db_->ctx()->ResetMoveAccumulator();
        const CpuCounters before = *db_->ctx()->counters();
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<Operator> plan,
                             MakeDivisionPlan(db_->ctx(), query, algorithm,
                                              options));
        ASSERT_OK_AND_ASSIGN(*quotient, CollectAll(plan.get(), capacity));
        const CpuCounters& after = *db_->ctx()->counters();
        delta->comparisons = after.comparisons - before.comparisons;
        delta->hashes = after.hashes - before.hashes;
        delta->moves = after.moves - before.moves;
        delta->bit_ops = after.bit_ops - before.bit_ops;
      };

      std::vector<Tuple> reference;
      CpuCounters reference_delta;
      run(/*capacity=*/1, &reference, &reference_delta);
      ASSERT_FALSE(HasFatalFailure());
      // The no-join aggregation variants require every dividend tuple to
      // match some divisor tuple (§2.2); on workloads violating that they
      // still must be capacity-consistent, just not ground-truth correct.
      const bool no_join_aggregation =
          algorithm == DivisionAlgorithm::kSortAggregate ||
          algorithm == DivisionAlgorithm::kHashAggregate;
      if (!(no_join_aggregation && spec.nonmatching_tuples > 0)) {
        EXPECT_EQ(Sorted(reference), workload.expected_quotient);
      }

      for (size_t capacity : {size_t{7}, size_t{1024}}) {
        SCOPED_TRACE("batch capacity " + std::to_string(capacity));
        std::vector<Tuple> batched;
        CpuCounters batched_delta;
        run(capacity, &batched, &batched_delta);
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_EQ(Sorted(batched), Sorted(reference));
        EXPECT_EQ(batched_delta.comparisons, reference_delta.comparisons);
        EXPECT_EQ(batched_delta.hashes, reference_delta.hashes);
        EXPECT_EQ(batched_delta.moves, reference_delta.moves);
        EXPECT_EQ(batched_delta.bit_ops, reference_delta.bit_ops);
      }
    }
    db_->ctx()->set_batch_capacity(kDefaultBatchCapacity);
  }
}

/// Child probe for the Open()/Close() pairing contract: replays a fixed
/// tuple stream one row per batch, optionally fails its own Open() or the
/// Nth NextBatch() (so the Nth row), and records how often each protocol
/// entry ran so a test can assert that a parent's Close() settled every
/// child it had opened — and only those.
class ProbeOperator : public Operator {
 public:
  ProbeOperator(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  void FailOpen() { fail_open_ = true; }
  void FailOnNthBatch(size_t n) { fail_batch_at_ = n; }
  void FailClose() { fail_close_ = true; }

  int opens() const { return opens_; }
  int closes() const { return closes_; }

  const Schema& output_schema() const override { return schema_; }

  Status Open() override {
    if (fail_open_) return Status::Internal("probe open failed");
    opens_++;
    pos_ = 0;
    batches_ = 0;
    return Status::OK();
  }

  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    batches_++;
    if (fail_batch_at_ != 0 && batches_ >= fail_batch_at_) {
      return Status::IOError("probe batch failed");
    }
    batch->Clear();
    if (pos_ < rows_.size()) batch->PushBack(rows_[pos_++]);
    *has_more = pos_ < rows_.size();
    return Status::OK();
  }

  Status Close() override {
    closes_++;
    if (fail_close_) return Status::IOError("probe close failed");
    return Status::OK();
  }

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
  size_t batches_ = 0;
  size_t fail_batch_at_ = 0;
  bool fail_open_ = false;
  bool fail_close_ = false;
  int opens_ = 0;
  int closes_ = 0;
};

// Regression: SortOperator::Open() drains its child and closes it before
// returning; when that drain fails mid-stream, the later Close() must still
// settle the child instead of leaking its pins.
TEST_F(OperatorContractTest, SortClosesChildAfterFailedOpenDrain) {
  auto probe = std::make_unique<ProbeOperator>(
      TwoCol(), std::vector<Tuple>{T(3, 0), T(1, 0), T(2, 0)});
  ProbeOperator* child = probe.get();
  child->FailOnNthBatch(2);
  SortSpec spec;
  spec.keys = {0};
  SortOperator sorter(db_->ctx(), std::move(probe), spec);
  EXPECT_TRUE(sorter.Open().IsIOError());
  EXPECT_EQ(child->opens(), 1);
  EXPECT_EQ(child->closes(), 0);
  ASSERT_OK(sorter.Close());
  EXPECT_EQ(child->closes(), 1);
  // A clean cycle afterwards must not double-close.
  child->FailOnNthBatch(0);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&sorter));
  EXPECT_EQ(out.front(), T(1, 0));
  EXPECT_EQ(child->opens(), 2);
  EXPECT_EQ(child->closes(), 2);
}

// Regression: HashJoinOperator::Open() fails while draining the build side
// (probe side not yet opened). Close() must close the build child exactly
// once and must NOT touch the never-opened probe child.
TEST_F(OperatorContractTest, HashJoinClosesOnlyTheChildrenItOpened) {
  auto probe_side = std::make_unique<ProbeOperator>(
      TwoCol(), std::vector<Tuple>{T(1, 1)});
  auto build_side = std::make_unique<ProbeOperator>(
      TwoCol(), std::vector<Tuple>{T(1, 1), T(2, 2)});
  ProbeOperator* probe = probe_side.get();
  ProbeOperator* build = build_side.get();
  build->FailOnNthBatch(2);
  HashJoinOperator join(db_->ctx(), std::move(probe_side),
                        std::move(build_side), {0}, {0},
                        HashJoinMode::kLeftSemi);
  EXPECT_TRUE(join.Open().IsIOError());
  ASSERT_OK(join.Close());
  EXPECT_EQ(build->opens(), 1);
  EXPECT_EQ(build->closes(), 1);
  EXPECT_EQ(probe->opens(), 0);
  EXPECT_EQ(probe->closes(), 0);
  // Recovered cycle: both children open and close exactly once.
  build->FailOnNthBatch(0);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out, CollectAll(&join));
  EXPECT_EQ(out, std::vector<Tuple>{T(1, 1)});
  EXPECT_EQ(build->closes(), 2);
  EXPECT_EQ(probe->opens(), 1);
  EXPECT_EQ(probe->closes(), 1);
}

// Regression: MergeJoinOperator::Close() used to skip the right child when
// the left child's Close() failed. Both must always be attempted, with the
// left child's (first) error propagated.
TEST_F(OperatorContractTest, MergeJoinClosesBothChildrenEvenWhenLeftFails) {
  auto left_side = std::make_unique<ProbeOperator>(
      TwoCol(), std::vector<Tuple>{T(1, 0)});
  auto right_side = std::make_unique<ProbeOperator>(
      TwoCol(), std::vector<Tuple>{T(1, 0)});
  ProbeOperator* left = left_side.get();
  ProbeOperator* right = right_side.get();
  left->FailClose();
  MergeJoinOperator join(db_->ctx(), std::move(left_side),
                         std::move(right_side), {0}, {0},
                         MergeJoinMode::kLeftSemi);
  ASSERT_OK(join.Open());
  TupleBatch batch(1);
  bool has_more = false;
  ASSERT_OK(join.NextBatch(&batch, &has_more));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(join.Close().IsIOError());
  EXPECT_EQ(left->closes(), 1);
  EXPECT_EQ(right->closes(), 1) << "right child must be closed regardless";
}

TEST_F(OperatorContractTest, EarlyOutputHashDivisionAgreesAcrossBatchSizes) {
  WorkloadSpec spec = PaperCell(7, 12);
  spec.seed = 5;
  GeneratedWorkload workload = GenerateWorkload(spec);
  Relation dividend, divisor;
  ASSERT_OK(LoadWorkload(db_.get(), workload, "eo", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  DivisionOptions options;
  options.early_output = true;

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Operator> plan,
                       MakeDivisionPlan(db_->ctx(), query,
                                        DivisionAlgorithm::kHashDivision,
                                        options));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> singles, CollectAll(plan.get(), 1));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> triples, CollectAll(plan.get(), 3));
  EXPECT_EQ(Sorted(singles), workload.expected_quotient);
  EXPECT_EQ(Sorted(triples), workload.expected_quotient);
}

}  // namespace
}  // namespace reldiv
