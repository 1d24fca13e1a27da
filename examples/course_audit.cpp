// The paper's second example query: "find the students who have taken all
// DATABASE courses" — the divisor is restricted by a selection on the course
// title. This is the case where division-by-aggregation needs a preceding
// semi-join (only valid Transcript tuples may be counted) while direct
// division algorithms do not. The example runs the applicable algorithm
// variants, shows that they agree, and reports their paper-style costs. It
// finishes with the early-output form of hash-division streaming the first
// answers before the Transcript scan completes.

#include <cstdio>

#include "bench/bench_util.h"
#include "reldiv/reldiv.h"

using namespace reldiv;

namespace {

Status Run() {
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  UniversitySpec spec;
  spec.num_students = 400;
  spec.num_courses = 20;
  spec.num_database_courses = 4;
  spec.all_courses_students = 3;
  spec.db_students = 17;
  RELDIV_ASSIGN_OR_RETURN(UniversityTables tables,
                          LoadUniversity(db.get(), spec));

  // σ(title LIKE '%Database%')(Courses) projected to course_no → divisor.
  RELDIV_ASSIGN_OR_RETURN(
      Relation db_courses,
      db->CreateTempTable("db_courses",
                          Schema{Field{"course_no", ValueType::kInt64}}));
  {
    auto select = std::make_unique<FilterOperator>(
        std::make_unique<ScanOperator>(db->ctx(), tables.courses),
        [](const Tuple& course) {
          return course.value(1).string_value().find("Database") !=
                 std::string::npos;
        });
    ProjectOperator project(std::move(select), {0});
    RELDIV_ASSIGN_OR_RETURN(uint64_t n,
                            Materialize(&project, db_courses.store));
    std::printf("Divisor: %llu database courses (of %llu total).\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(spec.num_courses));
  }

  // π(student_id, course_no)(Transcript) → dividend. Note that it contains
  // tuples for non-database courses; the division algorithms must discard
  // them (hash-division does so after one probe of the divisor table).
  RELDIV_ASSIGN_OR_RETURN(
      Relation dividend,
      db->CreateTempTable("dividend",
                          Schema{Field{"student_id", ValueType::kInt64},
                                 Field{"course_no", ValueType::kInt64}}));
  {
    ProjectOperator project(
        std::make_unique<ScanOperator>(db->ctx(), tables.transcript), {0, 1});
    RELDIV_ASSIGN_OR_RETURN(uint64_t n, Materialize(&project,
                                                    dividend.store));
    std::printf("Dividend: %llu (student, course) pairs.\n\n",
                static_cast<unsigned long long>(n));
  }

  DivisionQuery query{dividend, db_courses, {"course_no"}};

  // The no-join aggregation variants are NOT applicable here — they would
  // count Transcript tuples of non-database courses (§2.2). Every other
  // variant must agree.
  std::printf("%-26s %10s %10s %10s %8s\n", "algorithm", "cpu ms", "io ms",
              "total ms", "|Q|");
  bench::Rule(70);
  size_t expected = 0;
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kNaive, DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregateWithJoin,
        DivisionAlgorithm::kHashDivision}) {
    uint64_t quotient_size = 0;
    RELDIV_ASSIGN_OR_RETURN(
        ExperimentalCost cost,
        bench::RunDivision(db.get(), query, algorithm, DivisionOptions{},
                           &quotient_size));
    std::printf("%-26s %10.1f %10.1f %10.1f %8llu\n",
                DivisionAlgorithmName(algorithm), cost.cpu_ms, cost.io_ms,
                cost.total_ms(),
                static_cast<unsigned long long>(quotient_size));
    if (expected == 0) expected = quotient_size;
    if (quotient_size != expected) {
      return Status::Internal("algorithms disagree on the quotient");
    }
  }

  // Early output: stream the first answers while the Transcript is still
  // being consumed (§3.3).
  std::printf("\nEarly-output hash-division (first answers streamed):\n");
  DivisionOptions early;
  early.early_output = true;
  RELDIV_ASSIGN_OR_RETURN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(db->ctx(), query, DivisionAlgorithm::kHashDivision,
                       early));
  RELDIV_RETURN_NOT_OK(plan->Open());
  size_t produced = 0;
  TupleBatch batch(db->ctx()->batch_capacity());
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(plan->NextBatch(&batch, &has_more));
    for (const Tuple& student : batch) {
      produced++;
      if (produced <= 5) {
        std::printf("  student %lld has taken all database courses\n",
                    static_cast<long long>(student.value(0).int64()));
      }
    }
  }
  RELDIV_RETURN_NOT_OK(plan->Close());
  std::printf("  ... %zu students in total.\n", produced);
  return Status::OK();
}

}  // namespace

int main() {
  Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "course_audit failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
