// Batch-vs-tuple execution: throughput of the
// scan → filter → hash-division pipeline as a function of the batch size.
//
// The batch-size-1 row is the tuple lane: the plan is drained through
// NextBatch() at capacity 1 (CollectAll(plan, 1), execution batch capacity
// 1), paying one virtual-call round trip through the whole operator chain
// per tuple — the paper's §5.1 Volcano next. The remaining rows drain the
// same plan at increasing batch capacities.
// Batching amortizes the iteration protocol and overlaps the memory stalls
// of independent hash probes without changing any of the per-tuple work, so
// the quotient and the Table 1 operation counts must be identical in every
// row; the bench fails if they are not.
//
// The workload is scan-heavy on purpose: five sixths of the dividend fails
// the filter predicate, so most tuples pay the iteration protocol and only
// the surviving sixth pays the division probes. That is the regime the
// refactor targets — per-tuple interpretation overhead dominating cheap
// per-tuple work — and it is where tuple-at-a-time execution loses the most.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "division/hash_division.h"
#include "exec/filter.h"
#include "exec/scan.h"

namespace reldiv {
namespace {

constexpr size_t kBatchSizes[] = {1, 64, 256, 1024, 4096};

struct Measurement {
  size_t batch_size = 0;
  bool tuple_lane = false;
  double wall_ms = 0;
  double cpu_ms = 0;
  std::vector<double> wall_samples_ms;
  CpuCounters counters;
  uint64_t quotient_tuples = 0;
  std::vector<Tuple> quotient;
};

Status Run(bench::BenchReporter* report) {
  const int kRepetitions = bench::SmokeMode() ? 2 : 5;
  // Dividend: 100k matching tuples (2000 candidates × 50 divisor tuples)
  // plus 500k foreign ones the filter removes (selectivity ~17%).
  // Smoke mode shrinks both sides ~25x.
  WorkloadSpec spec;
  spec.divisor_cardinality = 50;
  spec.quotient_candidates = bench::SmokeMode() ? 80 : 2000;
  spec.candidate_completeness = 1.0;
  spec.nonmatching_tuples = bench::SmokeMode() ? 20000 : 500000;
  spec.seed = 77;
  GeneratedWorkload workload = GenerateWorkload(spec);
  const uint64_t dividend_tuples = workload.dividend.size();

  DatabaseOptions db_options;
  db_options.pool_bytes = 0;  // unbounded pool: keep the pipeline CPU-bound
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(db_options));
  Relation dividend, divisor;
  RELDIV_RETURN_NOT_OK(
      LoadWorkload(db.get(), workload, "bt", &dividend, &divisor));
  const int64_t divisor_count =
      static_cast<int64_t>(spec.divisor_cardinality);

  auto make_plan = [&]() -> std::unique_ptr<Operator> {
    // Dividend is (quotient_id, divisor_id); valid divisor values are
    // [0, |S|), foreign ones lie above.
    auto scan = std::make_unique<ScanOperator>(db->ctx(), dividend);
    auto filter = std::make_unique<FilterOperator>(
        std::move(scan), [divisor_count](const Tuple& t) {
          return t.value(1).int64() < divisor_count;
        });
    DivisionOptions options;
    options.expected_divisor_cardinality = spec.divisor_cardinality;
    options.expected_quotient_cardinality = spec.quotient_candidates;
    options.early_output = true;  // fully pipelined in both lanes (§3.3)
    return std::make_unique<HashDivisionOperator>(
        db->ctx(), std::move(filter),
        std::make_unique<ScanOperator>(db->ctx(), divisor),
        std::vector<size_t>{1}, std::vector<size_t>{0}, options);
  };

  std::printf("=== Batch-vs-tuple execution: scan -> filter(17%%) -> "
              "hash-division (early output) ===\n\n");
  std::printf("dividend %llu tuples, divisor %llu, quotient %llu; best of %d "
              "runs per size\n",
              static_cast<unsigned long long>(dividend_tuples),
              static_cast<unsigned long long>(spec.divisor_cardinality),
              static_cast<unsigned long long>(spec.quotient_candidates),
              kRepetitions);
  std::printf("batch size 1 = Volcano Next() drain (tuple-at-a-time "
              "protocol)\n\n");
  std::printf("  %10s | %10s %12s %14s %10s\n", "batch size", "wall ms",
              "cpu-model ms", "tuples/sec", "speedup");
  bench::Rule(66);

  std::vector<Measurement> measurements;
  for (size_t batch_size : kBatchSizes) {
    Measurement m;
    m.batch_size = batch_size;
    m.tuple_lane = batch_size == 1;
    m.wall_ms = 1e300;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      db->ctx()->set_batch_capacity(batch_size);
      RELDIV_RETURN_NOT_OK(db->buffer_manager()->FlushAll());
      RELDIV_RETURN_NOT_OK(db->buffer_manager()->DropAll());
      db->ctx()->ResetMoveAccumulator();
      const CpuCounters before = *db->counters();
      auto plan = make_plan();
      const auto t0 = std::chrono::steady_clock::now();
      RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> quotient,
                              CollectAll(plan.get(), batch_size));
      const auto t1 = std::chrono::steady_clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      CpuCounters delta = *db->counters();
      delta.comparisons -= before.comparisons;
      delta.hashes -= before.hashes;
      delta.moves -= before.moves;
      delta.bit_ops -= before.bit_ops;
      if (rep == 0) {
        m.counters = delta;
        m.quotient_tuples = quotient.size();
        std::sort(quotient.begin(), quotient.end());
        m.quotient = std::move(quotient);
        m.cpu_ms = CpuCostMs(delta);
      } else if (delta.comparisons != m.counters.comparisons ||
                 delta.hashes != m.counters.hashes ||
                 delta.moves != m.counters.moves ||
                 delta.bit_ops != m.counters.bit_ops) {
        return Status::Internal("cost counters drifted between repetitions");
      }
      m.wall_ms = std::min(m.wall_ms, wall_ms);
      m.wall_samples_ms.push_back(wall_ms);
    }
    measurements.push_back(std::move(m));
  }
  db->ctx()->set_batch_capacity(kDefaultBatchCapacity);

  // Cross-lane invariants: the tuple lane and every batch size must produce
  // the identical quotient and identical Table 1 operation counts.
  const Measurement& base = measurements.front();
  for (const Measurement& m : measurements) {
    if (m.quotient != base.quotient) {
      return Status::Internal("quotient differs across batch sizes");
    }
    if (m.counters.comparisons != base.counters.comparisons ||
        m.counters.hashes != base.counters.hashes ||
        m.counters.moves != base.counters.moves ||
        m.counters.bit_ops != base.counters.bit_ops) {
      return Status::Internal("cost counters differ across batch sizes");
    }
  }

  for (const Measurement& m : measurements) {
    const double tuples_per_sec =
        static_cast<double>(dividend_tuples) / (m.wall_ms / 1000.0);
    const double speedup = base.wall_ms / m.wall_ms;
    std::printf("  %10zu | %10.2f %12.2f %14.0f %9.2fx\n", m.batch_size,
                m.wall_ms, m.cpu_ms, tuples_per_sec, speedup);
  }
  std::printf("\nquotient and Table 1 counters identical across the tuple "
              "lane and all batch sizes\n(Comp %llu, Hash %llu, Move %llu, "
              "Bit %llu)\n\n",
              static_cast<unsigned long long>(base.counters.comparisons),
              static_cast<unsigned long long>(base.counters.hashes),
              static_cast<unsigned long long>(base.counters.moves),
              static_cast<unsigned long long>(base.counters.bit_ops));

  // Machine-readable mirror of the table above, one JSON record per size.
  for (const Measurement& m : measurements) {
    const double tuples_per_sec =
        static_cast<double>(dividend_tuples) / (m.wall_ms / 1000.0);
    std::printf(
        "{\"bench\":\"batch_vs_tuple\",\"batch_size\":%zu,"
        "\"lane\":\"%s\",\"wall_ms\":%.3f,\"cpu_ms\":%.3f,"
        "\"comparisons\":%llu,\"hashes\":%llu,\"moves\":%llu,"
        "\"bit_ops\":%llu,\"dividend_tuples\":%llu,"
        "\"quotient_tuples\":%llu,\"tuples_per_sec\":%.0f,"
        "\"speedup_vs_batch_1\":%.3f}\n",
        m.batch_size, m.tuple_lane ? "tuple" : "batch", m.wall_ms, m.cpu_ms,
        static_cast<unsigned long long>(m.counters.comparisons),
        static_cast<unsigned long long>(m.counters.hashes),
        static_cast<unsigned long long>(m.counters.moves),
        static_cast<unsigned long long>(m.counters.bit_ops),
        static_cast<unsigned long long>(dividend_tuples),
        static_cast<unsigned long long>(m.quotient_tuples), tuples_per_sec,
        base.wall_ms / m.wall_ms);
    bench::BenchRow* row = report->AddRow(
        (m.tuple_lane ? std::string("tuple-lane batch=")
                      : std::string("batch-lane batch=")) +
        std::to_string(m.batch_size));
    row->wall_ns.reserve(m.wall_samples_ms.size());
    for (double sample : m.wall_samples_ms) row->AddWallMs(sample);
    row->counters = m.counters;
    row->AddValue("best_wall_ms", m.wall_ms);
    row->AddValue("cpu_ms", m.cpu_ms);
    row->AddValue("tuples_per_sec", tuples_per_sec);
    row->AddValue("speedup_vs_batch_1", base.wall_ms / m.wall_ms);
    row->AddValue("quotient_tuples", static_cast<double>(m.quotient_tuples));
  }
  return Status::OK();
}

}  // namespace
}  // namespace reldiv

int main() {
  reldiv::bench::BenchReporter report("batch_vs_tuple");
  report.AddParam("smoke", reldiv::bench::SmokeMode() ? 1 : 0);
  const reldiv::Status status = reldiv::Run(&report);
  if (!status.ok()) {
    std::fprintf(stderr, "batch_vs_tuple failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return report.WriteFile() ? 0 : 1;
}
