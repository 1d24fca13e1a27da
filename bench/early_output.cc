// Experiment E6 (§3.3): the early-output modification. Hash-division is by
// default a stop-and-go operator — only after both inputs are consumed does
// it produce the quotient. With a counter per quotient candidate it can
// emit each quotient tuple the moment its bit map fills, which makes it a
// usable producer in a dataflow system. This bench measures how many
// dividend tuples the operator consumed before the first k quotient tuples
// were available, for the blocking and the early-output form.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "division/hash_division.h"
#include "exec/mem_source.h"
#include "exec/operator.h"

namespace reldiv {
namespace {

/// Pass-through operator counting how many tuples flowed through it. Read at
/// batch capacity 1, its count is exact at every quotient tuple.
class CountingOperator : public Operator {
 public:
  explicit CountingOperator(std::unique_ptr<Operator> child)
      : child_(std::move(child)) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override { return child_->Open(); }
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    RELDIV_RETURN_NOT_OK(child_->NextBatch(batch, has_more));
    consumed_ += batch->size();
    return Status::OK();
  }
  Status Close() override { return child_->Close(); }

  uint64_t consumed() const { return consumed_; }

 private:
  std::unique_ptr<Operator> child_;
  uint64_t consumed_ = 0;
};

Status RunOne(const char* label, const GeneratedWorkload& workload,
              bench::BenchReporter* report);

Status Run(bench::BenchReporter* report) {
  std::printf("=== Experiment E6: early output (§3.3, dataflow producer) "
              "===\n\n");
  WorkloadSpec spec;
  spec.divisor_cardinality = 50;
  spec.quotient_candidates = bench::SmokeMode() ? 200 : 1000;
  spec.candidate_completeness = 0.5;
  spec.nonmatching_tuples = bench::SmokeMode() ? 1000 : 5000;
  spec.seed = 44;
  GeneratedWorkload shuffled = GenerateWorkload(spec);
  RELDIV_RETURN_NOT_OK(RunOne("random dividend order", shuffled, report));

  spec.shuffle = false;  // dividend arrives clustered by quotient value
  GeneratedWorkload clustered = GenerateWorkload(spec);
  RELDIV_RETURN_NOT_OK(RunOne("dividend clustered on the quotient attribute",
                              clustered, report));

  std::printf(
      "The blocking form consumes 100%% of the dividend before the first\n"
      "quotient tuple; the early-output form produces each quotient tuple\n"
      "as soon as its counter reaches the divisor count (§3.3). On input\n"
      "clustered by quotient value a candidate completes after ~|S|\n"
      "consecutive tuples, so the first quotient tuple appears almost\n"
      "immediately — the property that makes hash-division usable as a\n"
      "producer in a dataflow query processing system.\n");
  return Status::OK();
}

Status RunOne(const char* label, const GeneratedWorkload& workload,
              bench::BenchReporter* report) {
  const size_t total = workload.dividend.size();
  const size_t quotient_size = workload.expected_quotient.size();
  std::printf("--- %s: |R|=%zu tuples, |Q|=%zu ---\n", label, total,
              quotient_size);

  std::printf("%-14s | %26s %26s %26s\n", "mode", "input consumed @1st tuple",
              "@|Q|/2 tuples", "@last tuple");
  bench::Rule(100);
  for (bool early : {false, true}) {
    DatabaseOptions db_options;
    db_options.pool_bytes = 0;
    RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                            Database::Open(db_options));
    // First-answer latency is the point: every pull moves one tuple.
    db->ctx()->set_batch_capacity(1);
    DivisionOptions options;
    options.early_output = early;
    auto counter = std::make_unique<CountingOperator>(
        std::make_unique<MemSourceOperator>(workload.dividend_schema,
                                            workload.dividend));
    CountingOperator* counter_ptr = counter.get();
    HashDivisionOperator op(
        db->ctx(), std::move(counter),
        std::make_unique<MemSourceOperator>(workload.divisor_schema,
                                            workload.divisor),
        {1}, {0}, options);
    RELDIV_RETURN_NOT_OK(op.Open());
    uint64_t at_first = 0, at_half = 0, at_last = 0;
    size_t produced = 0;
    TupleBatch batch(1);
    bool has_more = true;
    while (has_more) {
      RELDIV_RETURN_NOT_OK(op.NextBatch(&batch, &has_more));
      if (batch.empty()) continue;
      produced++;
      if (produced == 1) at_first = counter_ptr->consumed();
      if (produced == quotient_size / 2) at_half = counter_ptr->consumed();
      at_last = counter_ptr->consumed();
    }
    RELDIV_RETURN_NOT_OK(op.Close());
    if (produced != quotient_size) {
      return Status::Internal("early-output run produced a wrong quotient");
    }
    std::printf("%-14s | %15llu (%5.1f%%) %18llu (%5.1f%%) %18llu (%5.1f%%)\n",
                early ? "early output" : "stop-and-go",
                static_cast<unsigned long long>(at_first),
                100.0 * static_cast<double>(at_first) /
                    static_cast<double>(total),
                static_cast<unsigned long long>(at_half),
                100.0 * static_cast<double>(at_half) /
                    static_cast<double>(total),
                static_cast<unsigned long long>(at_last),
                100.0 * static_cast<double>(at_last) /
                    static_cast<double>(total));
    bench::BenchRow* row = report->AddRow(
        std::string(label) + " " + (early ? "early-output" : "stop-and-go"));
    row->AddValue("dividend_tuples", static_cast<double>(total));
    row->AddValue("consumed_at_first", static_cast<double>(at_first));
    row->AddValue("consumed_at_half", static_cast<double>(at_half));
    row->AddValue("consumed_at_last", static_cast<double>(at_last));
  }
  std::printf("\n");
  return Status::OK();
}

}  // namespace
}  // namespace reldiv

int main() {
  reldiv::bench::BenchReporter report("early_output");
  report.AddParam("smoke", reldiv::bench::SmokeMode() ? 1 : 0);
  reldiv::Status status = reldiv::Run(&report);
  if (!status.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", status.ToString().c_str());
    return 1;
  }
  return report.WriteFile() ? 0 : 1;
}
