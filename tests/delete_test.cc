#include <memory>

#include "common/row_codec.h"
#include "division/division.h"
#include "exec/database.h"
#include "exec/materialize.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "storage/record_file.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

class DeleteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
  }

  Schema TwoCol() {
    return Schema{Field{"k", ValueType::kInt64},
                  Field{"v", ValueType::kInt64}};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DeleteTest, RecordFileDeleteSkipsInScans) {
  SimDisk disk;
  BufferManager bm(&disk, nullptr);
  RecordFile file(&disk, &bm, "t");
  std::vector<Rid> rids;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid,
                         file.Append(Slice("r" + std::to_string(i))));
    rids.push_back(rid);
  }
  ASSERT_OK(file.Delete(rids[10]));
  ASSERT_OK(file.Delete(rids[99]));
  EXPECT_EQ(file.num_records(), 98u);
  // Double delete reports NotFound.
  EXPECT_TRUE(file.Delete(rids[10]).IsNotFound());
  // Scan sees the 98 survivors, in order, without the deleted ones.
  const std::vector<ScannedRecord> survivors = ScanRecords(&file);
  for (const ScannedRecord& record : survivors) {
    EXPECT_NE(record.rid, rids[10]);
    EXPECT_NE(record.rid, rids[99]);
  }
  EXPECT_EQ(survivors.size(), 98u);
}

TEST_F(DeleteTest, DeleteWhere) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTable("t", TwoCol()));
  (void)rel;
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(db_->Insert("t", T(i, i % 7)));
  }
  ASSERT_OK_AND_ASSIGN(
      uint64_t deleted,
      db_->DeleteWhere("t", [](const Tuple& t) {
        return t.value(1).int64() == 3;
      }));
  EXPECT_EQ(deleted, 71u);  // i % 7 == 3 for 71 of 0..499
  // The table scan sees exactly the survivors.
  ASSERT_OK_AND_ASSIGN(Relation rel2, db_->GetTable("t"));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, ReadAll(db_->ctx(), rel2));
  EXPECT_EQ(rows.size(), 500u - deleted);
  for (const Tuple& row : rows) {
    EXPECT_NE(row.value(1).int64(), 3);
  }
}

TEST_F(DeleteTest, DivisionSeesDeletesImmediately) {
  // Delete one course from the divisor's base table mid-stream: the next
  // division runs over the smaller divisor.
  ASSERT_OK_AND_ASSIGN(
      Relation dividend,
      db_->CreateTable("r", Schema{Field{"q", ValueType::kInt64},
                                   Field{"d", ValueType::kInt64}}));
  ASSERT_OK_AND_ASSIGN(
      Relation divisor,
      db_->CreateTable("s", Schema{Field{"d", ValueType::kInt64}}));
  ASSERT_OK(db_->Insert("r", T(1, 0)));
  ASSERT_OK(db_->Insert("r", T(1, 1)));
  ASSERT_OK(db_->Insert("r", T(2, 0)));
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("s", T(1)));
  DivisionQuery query{dividend, divisor, {"d"}};
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> before,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  EXPECT_EQ(before, std::vector<Tuple>{T(1)});
  ASSERT_OK_AND_ASSIGN(uint64_t deleted,
                       db_->DeleteWhere("s", [](const Tuple& t) {
                         return t.value(0).int64() == 1;
                       }));
  EXPECT_EQ(deleted, 1u);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> after,
      Divide(db_->ctx(), query, DivisionAlgorithm::kHashDivision));
  EXPECT_EQ(Sorted(std::move(after)), (std::vector<Tuple>{T(1), T(2)}));
}

TEST_F(DeleteTest, DeleteWhereOnTempTableUnsupported) {
  ASSERT_OK_AND_ASSIGN(Relation rel, db_->CreateTempTable("tmp", TwoCol()));
  (void)rel;
  auto result = db_->DeleteWhere("tmp", [](const Tuple&) { return true; });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotSupported());
}

}  // namespace
}  // namespace reldiv
