// Experiment E4 (§6): hash-division on a simulated shared-nothing machine.
// Sweeps the number of nodes for both partitioning strategies and reports
// the slowest node's local division cost (the parallel section's critical
// path, modeled and measured), interconnect traffic, and the effect of Babb
// bit-vector filtering on the number of dividend tuples shipped. §6 is
// qualitative in the paper; this bench quantifies its claims here.
//
// The second section applies the same §6 quotient-partitioning idea INSIDE
// one node: the dividend is hash-fragmented on the quotient attributes and
// the fragments are divided concurrently on the morsel scheduler's worker
// lanes against one shared read-only divisor table. Speedup is reported two
// ways — wall clock (bounded by the host's core count) and the critical
// path under the Table 1 unit times (the busiest lane's priced work, which
// is machine-independent). Counter totals are asserted bit-identical across
// worker counts: lanes may only change WHO does the work, never the work.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "division/hash_division.h"
#include "exec/exchange.h"
#include "exec/mem_source.h"
#include "exec/scheduler.h"
#include "parallel/parallel_hash_division.h"

namespace reldiv {
namespace {

Status Run(bench::BenchReporter* report) {
  std::printf("=== Experiment E4: multi-processor hash-division (§6) "
              "===\n\n");
  // Smoke mode: ~20x smaller dividend, same sweep structure.
  const uint64_t shrink = bench::SmokeMode() ? 20 : 1;
  WorkloadSpec spec;
  spec.divisor_cardinality = 100;
  spec.quotient_candidates = 5000 / shrink;
  spec.candidate_completeness = 0.6;
  spec.nonmatching_tuples = 200000 / shrink;  // §6: filtering pays off
  spec.seed = 66;
  GeneratedWorkload workload = GenerateWorkload(spec);
  std::printf("Workload: |S|=%llu, |R|=%zu tuples (%llu non-matching), "
              "|Q|=%zu\n\n",
              static_cast<unsigned long long>(spec.divisor_cardinality),
              workload.dividend.size(),
              static_cast<unsigned long long>(spec.nonmatching_tuples),
              workload.expected_quotient.size());

  // Each row runs kReps times on one engine: the §6 accounting must repeat
  // exactly, and the wall columns are medians.
  const size_t kReps = bench::SmokeMode() ? 1 : 5;
  std::printf("%-10s %5s %7s | %12s %13s %11s %12s %10s %9s\n", "strategy",
              "nodes", "filter", "node cpu ms", "model speedup",
              "max node ms", "net bytes", "net msgs", "filtered");
  bench::Rule(104);

  double single_node_ms = 0;
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    for (size_t nodes : {1, 2, 4, 8}) {
      for (bool filter : {false, true}) {
        ParallelDivisionOptions options;
        options.num_nodes = nodes;
        options.strategy = strategy;
        options.use_bit_vector_filter = filter;
        options.bit_vector_bits = 64 * 1024;
        ParallelHashDivisionEngine engine(options);
        const char* name =
            strategy == PartitionStrategy::kQuotient ? "quotient" : "divisor";
        bench::BenchRow* row = report->AddRow(
            std::string(name) + " nodes=" + std::to_string(nodes) +
            (filter ? " filter=on" : " filter=off"));
        ParallelDivisionResult first;
        std::vector<double> max_node_ms;
        for (size_t rep = 0; rep < kReps; ++rep) {
          RELDIV_ASSIGN_OR_RETURN(
              ParallelDivisionResult result,
              engine.Execute(workload.dividend_schema,
                             workload.divisor_schema, workload.dividend,
                             workload.divisor, {1}));
          if (result.quotient.size() != workload.expected_quotient.size()) {
            return Status::Internal("parallel division produced a "
                                    "wrong-sized quotient");
          }
          if (rep == 0) first = result;
          if (result.network_bytes != first.network_bytes ||
              result.network_messages != first.network_messages ||
              result.max_node_cpu_ms != first.max_node_cpu_ms) {
            return Status::Internal("§6 accounting moved between runs");
          }
          row->AddWallMs(result.wall_ms);
          max_node_ms.push_back(result.max_node_ms);
        }
        if (strategy == PartitionStrategy::kQuotient && nodes == 1 &&
            !filter) {
          single_node_ms = first.max_node_cpu_ms;
        }
        const double speedup =
            single_node_ms > 0 ? single_node_ms / first.max_node_cpu_ms : 0.0;
        const double median_node_ms = bench::PercentileNs(max_node_ms, 50);
        std::printf("%-10s %5zu %7s | %12.1f %12.2fx %11.1f %12llu %10llu "
                    "%9llu\n",
                    name, nodes, filter ? "on" : "off", first.max_node_cpu_ms,
                    speedup, median_node_ms,
                    static_cast<unsigned long long>(first.network_bytes),
                    static_cast<unsigned long long>(first.network_messages),
                    static_cast<unsigned long long>(first.tuples_filtered));
        for (const NodeExecutionMetrics& node : first.node_metrics) {
          row->counters += node.cpu;
        }
        row->AddValue("max_node_cpu_ms", first.max_node_cpu_ms);
        row->AddValue("max_node_ms", median_node_ms);
        row->AddValue("network_bytes",
                      static_cast<double>(first.network_bytes));
        row->AddValue("network_messages",
                      static_cast<double>(first.network_messages));
        row->AddValue("tuples_filtered",
                      static_cast<double>(first.tuples_filtered));
        row->AddValue("tuples_shipped",
                      static_cast<double>(first.tuples_shipped));
        row->AddValue("speedup", speedup);
      }
    }
  }

  std::printf("\nModel speedup: the slowest node's Table 1 cost against the "
              "single node's %.1f ms; host scheduling cannot distort it.\n"
              "Max node ms: the slowest node's measured wall time, median of "
              "%zu run(s) on %u hardware thread(s).\n",
              single_node_ms, kReps, std::thread::hardware_concurrency());
  std::printf("Bit-vector filtering drops dividend tuples with no divisor "
              "record before they are shipped; with %llu foreign tuples the "
              "network byte column shrinks accordingly (§6, Babb 1979).\n",
              static_cast<unsigned long long>(spec.nonmatching_tuples));
  return Status::OK();
}

Status RunIntraNode(bench::BenchReporter* report) {
  std::printf("\n=== Intra-node morsel scale-up: hash-division across "
              "worker lanes ===\n\n");
  // Table 4's heaviest column (|S|=250, |Q|=2500, R = Q x S); smoke mode
  // shrinks the quotient column, keeping the sweep structure.
  const uint64_t shrink = bench::SmokeMode() ? 20 : 1;
  GeneratedWorkload workload = GenerateWorkload(PaperCell(250, 2500 / shrink));
  constexpr size_t kFragments = 16;
  const std::vector<size_t> match_attrs = {1};     // divisor_id
  const std::vector<size_t> quotient_attrs = {0};  // quotient key

  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(bench::PaperDatabaseOptions()));
  ExecContext* ctx = db->ctx();

  // Divisor table built ONCE; every fragment probes it read-only — §6's
  // quotient partitioning keeps the divisor table resident across phases.
  DivisionOptions division_options;
  HashDivisionCore base(ctx, match_attrs, quotient_attrs, division_options);
  {
    MemSourceOperator divisor_source(workload.divisor_schema,
                                     workload.divisor);
    RELDIV_RETURN_NOT_OK(
        base.BuildDivisorTable(&divisor_source, workload.divisor.size()));
  }

  // Decompose the dividend once, before the sweep, into one batch per
  // fragment: fragment contents depend only on the data and kFragments,
  // never on the worker count.
  std::vector<std::vector<Tuple>> fragment_rows(kFragments);
  for (const Tuple& tuple : workload.dividend) {
    fragment_rows[HashPartitionOf(tuple, quotient_attrs, kFragments)]
        .push_back(tuple);
  }
  std::vector<TupleBatch> fragments_in;
  for (std::vector<Tuple>& rows : fragment_rows) {
    TupleBatch& batch =
        fragments_in.emplace_back(std::max<size_t>(rows.size(), 1));
    for (Tuple& tuple : rows) batch.PushBack(std::move(tuple));
  }

  std::printf("Workload: |S|=%zu, |R|=%zu, |Q|=%zu, %zu quotient "
              "fragments\n\n",
              workload.divisor.size(), workload.dividend.size(),
              workload.expected_quotient.size(), kFragments);
  std::printf("%7s | %9s %13s %13s %12s %6s\n", "threads", "wall ms",
              "crit path ms", "model speedup", "wall speedup", "lanes");
  bench::Rule(70);

  double crit1 = 0;
  double wall1 = 0;
  CpuCounters totals1;
  size_t quotient1 = 0;
  double speedup_at_4 = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    std::vector<std::vector<Tuple>> outs(kFragments);
    std::vector<CpuCounters> fragment_cpu(kFragments);
    std::vector<size_t> lane_of(kFragments, 0);
    ctx->set_dop(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = RunFragments(
        ctx, kFragments, [&](size_t f, ExecContext* fctx) -> Status {
          HashDivisionCore core(fctx, match_attrs, quotient_attrs,
                                division_options);
          core.BorrowDivisorTable(base);
          RELDIV_RETURN_NOT_OK(core.ResetQuotientTable(
              fragments_in[f].empty() ? 1 : fragments_in[f].size()));
          RELDIV_RETURN_NOT_OK(core.ConsumeBatch(fragments_in[f], nullptr));
          RELDIV_RETURN_NOT_OK(core.EmitComplete(&outs[f]));
          fragment_cpu[f] = *fctx->counters();
          lane_of[f] = TaskScheduler::CurrentLane();
          return Status::OK();
        });
    const double wall = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    ctx->set_dop(1);

    // Critical path under the Table 1 unit times for the static round-robin
    // fragment-to-lane assignment — the intra-node analogue of E4's
    // max_node_cpu_ms, deterministic and machine-independent. The
    // work-stealing runtime can only do better than this assignment (on a
    // host with fewer cores than lanes the OBSERVED assignment collapses
    // toward lane 0, which says something about the host, not the plan).
    double lane_ms[TaskScheduler::kMaxLanes] = {0};
    CpuCounters totals;
    size_t quotient_size = 0;
    RELDIV_RETURN_NOT_OK(status);
    for (size_t f = 0; f < kFragments; ++f) {
      lane_ms[f % threads] += CpuCostMs(fragment_cpu[f]);
      totals += fragment_cpu[f];
      quotient_size += outs[f].size();
    }
    double crit = 0;
    for (double ms : lane_ms) crit = std::max(crit, ms);
    size_t lanes_used = 1;
    {
      std::vector<bool> seen(TaskScheduler::kMaxLanes, false);
      for (size_t f = 0; f < kFragments; ++f) seen[lane_of[f]] = true;
      lanes_used = static_cast<size_t>(
          std::count(seen.begin(), seen.end(), true));
    }

    if (quotient_size != workload.expected_quotient.size()) {
      return Status::Internal("intra-node division produced a wrong-sized "
                              "quotient");
    }
    if (threads == 1) {
      crit1 = crit;
      wall1 = wall;
      totals1 = totals;
      quotient1 = quotient_size;
    }
    if (totals.comparisons != totals1.comparisons ||
        totals.hashes != totals1.hashes || totals.moves != totals1.moves ||
        totals.bit_ops != totals1.bit_ops || quotient_size != quotient1) {
      return Status::Internal(
          "lane equivalence violated: counter totals moved with the worker "
          "count");
    }
    const double model_speedup = crit > 0 ? crit1 / crit : 0;
    const double wall_speedup = wall > 0 ? wall1 / wall : 0;
    if (threads == 4) speedup_at_4 = model_speedup;
    std::printf("%7zu | %9.1f %13.1f %12.2fx %11.2fx %6zu\n", threads, wall,
                crit, model_speedup, wall_speedup, lanes_used);

    bench::BenchRow* row =
        report->AddRow("intra threads=" + std::to_string(threads));
    row->AddWallMs(wall);
    row->counters += totals;
    row->AddValue("fragments", static_cast<double>(kFragments));
    row->AddValue("crit_path_cpu_ms", crit);
    row->AddValue("speedup", model_speedup);
    row->AddValue("wall_speedup", wall_speedup);
    row->AddValue("lanes_used", static_cast<double>(lanes_used));
    row->AddValue("quotient_tuples", static_cast<double>(quotient_size));
  }
  if (speedup_at_4 < 2.5) {
    return Status::Internal("critical-path speedup at 4 threads fell below "
                            "2.5x — fragment load is badly skewed");
  }

  // End-to-end operator path: the same plan driven through
  // DivisionOptions::parallel_fragments + ExecContext::dop. The repartition
  // adds one Hash per dividend tuple over the section above, but the totals
  // must again be identical at every worker count.
  std::printf("\nOperator path (DivisionOptions::parallel_fragments=%zu):\n",
              kFragments);
  Relation dividend, divisor;
  RELDIV_RETURN_NOT_OK(
      LoadWorkload(db.get(), workload, "intra", &dividend, &divisor));
  DivisionQuery query{dividend, divisor, {"divisor_id"}};
  DivisionOptions parallel_options;
  parallel_options.parallel_fragments = kFragments;
  // Each dop runs kReps cold queries, like the §6 rows: the counters must
  // repeat exactly, and the wall column is their median.
  const size_t kReps = bench::SmokeMode() ? 1 : 5;
  CpuCounters op_totals1;
  uint64_t op_quotient1 = 0;
  for (size_t threads : {1, 4, 8}) {
    bench::BenchRow* row =
        report->AddRow("operator dop=" + std::to_string(threads));
    ExperimentalCost first;
    std::vector<double> wall_ms;
    for (size_t rep = 0; rep < kReps; ++rep) {
      ctx->set_dop(threads);
      uint64_t quotient_size = 0;
      Result<ExperimentalCost> cost = bench::RunDivision(
          db.get(), query, DivisionAlgorithm::kHashDivision, parallel_options,
          &quotient_size);
      ctx->set_dop(1);
      RELDIV_RETURN_NOT_OK(cost.status());
      if (quotient_size != workload.expected_quotient.size()) {
        return Status::Internal("operator-path quotient has the wrong size");
      }
      if (threads == 1 && rep == 0) {
        op_totals1 = cost.value().cpu_counters;
        op_quotient1 = quotient_size;
      }
      if (rep == 0) first = cost.value();
      if (cost.value().cpu_counters.comparisons != op_totals1.comparisons ||
          cost.value().cpu_counters.hashes != op_totals1.hashes ||
          cost.value().cpu_counters.moves != op_totals1.moves ||
          cost.value().cpu_counters.bit_ops != op_totals1.bit_ops ||
          quotient_size != op_quotient1) {
        return Status::Internal("operator-path counters moved with dop");
      }
      if (cost.value().io_stats.transfers != first.io_stats.transfers ||
          cost.value().io_stats.seeks != first.io_stats.seeks) {
        return Status::Internal("operator-path I/O moved between runs");
      }
      row->AddWallMs(cost.value().wall_ms);
      wall_ms.push_back(cost.value().wall_ms);
    }
    std::printf("  dop=%zu: wall %.1f ms (median of %zu), cpu %.1f ms, io "
                "%.1f ms, %llu rows (counters identical to dop=1)\n",
                threads, bench::PercentileNs(wall_ms, 50), kReps,
                first.cpu_ms, first.io_ms,
                static_cast<unsigned long long>(op_quotient1));
    row->counters += first.cpu_counters;
    row->io = first.io_stats;
    row->AddValue("cpu_ms", first.cpu_ms);
    row->AddValue("io_ms", first.io_ms);
    row->AddValue("quotient_tuples", static_cast<double>(op_quotient1));
  }

  std::printf(
      "\nHost has %u hardware thread(s): wall-clock speedup saturates there, "
      "so the acceptance figure is the critical-path column —\na round-robin "
      "fragment-to-lane assignment priced with the Table 1 unit times "
      "(work stealing can only beat it). Counter totals\nare asserted "
      "bit-identical across worker counts: only lane ASSIGNMENT varies with "
      "threads; decomposition never does.\n",
      std::thread::hardware_concurrency());
  return Status::OK();
}

}  // namespace
}  // namespace reldiv

int main() {
  reldiv::bench::BenchReporter report("parallel_scaleup");
  report.AddParam("smoke", reldiv::bench::SmokeMode() ? 1 : 0);
  reldiv::Status status = reldiv::Run(&report);
  if (status.ok()) status = reldiv::RunIntraNode(&report);
  if (!status.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", status.ToString().c_str());
    return 1;
  }
  return report.WriteFile() ? 0 : 1;
}
