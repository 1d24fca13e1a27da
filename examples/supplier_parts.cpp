// Codd's classic universal-quantification query: "find the suppliers who
// supply ALL parts of a given kind" over Supplies(supplier_id, part_id) and
// Parts(part_id). This example shows three library capabilities beyond the
// quickstart:
//   1. the inputs contain duplicates (multiple shipments of the same part):
//      hash-division runs on the raw data, the aggregation strategies use
//      DivisionOptions::eliminate_duplicates;
//   2. every algorithm variant produces the same supplier set;
//   3. when memory is capped, the partitioned form of hash-division (§3.4)
//      computes the same result where the plain operator reports overflow;
//   4. the observability layer: EXPLAIN ANALYZE prints the §4 cost-model
//      predictions beside measured per-operator metrics (with the
//      cost-drift line comparing this run against the model), and an
//      EventLog trace writes a chrome://tracing timeline to
//      supplier_parts_trace.json;
//   5. the process-telemetry layer (DESIGN.md §14): the metric registry
//      dumped in Prometheus exposition format, and the flight ring
//      replaying the structured events around an injected disk fault.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "reldiv/reldiv.h"
#include "testing/failpoint.h"

using namespace reldiv;

namespace {

constexpr uint64_t kParts = 30;
constexpr uint64_t kSuppliers = 3000;
constexpr uint64_t kFullRangeSuppliers = 120;  // supply every part

Status LoadCatalog(Database* db, Relation* supplies, Relation* parts) {
  RELDIV_ASSIGN_OR_RETURN(
      *supplies,
      db->CreateTable("supplies",
                      Schema{Field{"supplier_id", ValueType::kInt64},
                             Field{"part_id", ValueType::kInt64}}));
  RELDIV_ASSIGN_OR_RETURN(
      *parts, db->CreateTable("parts",
                              Schema{Field{"part_id", ValueType::kInt64}}));
  Rng rng(2026);
  for (uint64_t p = 0; p < kParts; ++p) {
    RELDIV_RETURN_NOT_OK(db->Insert(
        "parts", Tuple{Value::Int64(static_cast<int64_t>(p))}));
  }
  for (uint64_t s = 0; s < kSuppliers; ++s) {
    const bool full_range = s < kFullRangeSuppliers;
    const uint64_t distinct_parts =
        full_range ? kParts : rng.Uniform(kParts - 1) + 1;
    for (uint64_t i = 0; i < distinct_parts; ++i) {
      const uint64_t part = full_range ? i : rng.Uniform(kParts - 1);
      // Several shipments of the same part → duplicate (supplier, part)
      // rows, the realistic case the paper's duplicate discussion targets.
      const uint64_t shipments = rng.Uniform(3) + 1;
      for (uint64_t k = 0; k < shipments; ++k) {
        RELDIV_RETURN_NOT_OK(db->Insert(
            "supplies", Tuple{Value::Int64(static_cast<int64_t>(s)),
                              Value::Int64(static_cast<int64_t>(part))}));
      }
    }
  }
  return Status::OK();
}

// Prints the registry's Prometheus exposition filtered to a few headline
// series, with histogram bucket lines elided (a full dump is one
// ToPrometheusText() call; this keeps the example output readable).
void PrintPrometheusExcerpt() {
  static const char* kSeries[] = {"reldiv_disk_", "reldiv_buffer_",
                                  "reldiv_query_", "reldiv_replans_total"};
  const std::string text = MetricRegistry::Global().ToPrometheusText();
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.find("_bucket{") != std::string::npos) continue;
    for (const char* series : kSeries) {
      if (line.find(series) != std::string::npos) {
        std::printf("  %s\n", line.c_str());
        break;
      }
    }
  }
}

Status Run() {
  // Full sampling so the per-algorithm wall-time histograms fill in; the
  // default (counting) mode would populate only counters and gauges.
  Telemetry::SetMode(TelemetryMode::kSampling);
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  Relation supplies, parts;
  RELDIV_RETURN_NOT_OK(LoadCatalog(db.get(), &supplies, &parts));
  std::printf("Catalog: %llu shipment rows (with duplicates), %llu parts, "
              "%llu suppliers.\n\n",
              static_cast<unsigned long long>(supplies.store->num_records()),
              static_cast<unsigned long long>(parts.store->num_records()),
              static_cast<unsigned long long>(kSuppliers));

  DivisionQuery query{supplies, parts, {"part_id"}};

  // 1 & 2: all algorithm variants agree; aggregation variants need explicit
  // duplicate elimination first (§2.2 aside / footnote 1).
  std::vector<Tuple> reference;
  std::printf("%-26s %-32s %9s\n", "algorithm", "duplicate handling",
              "suppliers");
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kHashDivision, DivisionAlgorithm::kNaive,
        DivisionAlgorithm::kSortAggregate,
        DivisionAlgorithm::kSortAggregateWithJoin,
        DivisionAlgorithm::kHashAggregate,
        DivisionAlgorithm::kHashAggregateWithJoin}) {
    DivisionOptions options;
    const bool aggregation =
        algorithm != DivisionAlgorithm::kHashDivision &&
        algorithm != DivisionAlgorithm::kNaive;
    options.eliminate_duplicates = aggregation;
    RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> quotient,
                            Divide(db->ctx(), query, algorithm, options));
    std::sort(quotient.begin(), quotient.end());
    std::printf("%-26s %-32s %9zu\n", DivisionAlgorithmName(algorithm),
                algorithm == DivisionAlgorithm::kHashDivision
                    ? "native (bit maps, §3.3)"
                    : (algorithm == DivisionAlgorithm::kNaive
                           ? "during the initial sorts"
                           : "explicit pre-pass"),
                quotient.size());
    if (reference.empty()) {
      reference = std::move(quotient);
    } else if (quotient != reference) {
      return Status::Internal("algorithms disagree");
    }
  }
  std::printf("→ %zu suppliers stock the complete range (expected %llu).\n\n",
              reference.size(),
              static_cast<unsigned long long>(kFullRangeSuppliers));

  // 3: cap the memory pool; the 3000-candidate quotient table no longer
  // fits, so plain hash-division overflows and the §3.4 quotient-partitioned
  // form takes over.
  DatabaseOptions tight;
  tight.pool_bytes = 96 * 1024;
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> small_db,
                          Database::Open(tight));
  Relation supplies2, parts2;
  RELDIV_RETURN_NOT_OK(LoadCatalog(small_db.get(), &supplies2, &parts2));
  DivisionQuery query2{supplies2, parts2, {"part_id"}};
  auto plain = Divide(small_db->ctx(), query2,
                      DivisionAlgorithm::kHashDivision);
  std::printf("Under a %zu KB memory cap:\n", tight.pool_bytes / 1024);
  std::printf("  plain hash-division:        %s\n",
              plain.ok() ? "fits" : plain.status().ToString().c_str());
  DivisionOptions partitioned;
  partitioned.partition_strategy = PartitionStrategy::kQuotient;
  partitioned.num_partitions = 8;
  RELDIV_ASSIGN_OR_RETURN(
      std::vector<Tuple> quotient,
      Divide(small_db->ctx(), query2,
             DivisionAlgorithm::kHashDivisionPartitioned, partitioned));
  std::sort(quotient.begin(), quotient.end());
  std::printf("  quotient-partitioned (8x):  %zu suppliers, %s\n",
              quotient.size(),
              quotient == reference ? "identical result" : "MISMATCH");
  if (quotient != reference) {
    return Status::Internal("partitioned mismatch");
  }

  // 4: EXPLAIN ANALYZE over the same query, with a trace attached: each
  // algorithm's run adds operator-lifecycle spans and disk-transfer events
  // to a chrome://tracing timeline.
  std::printf("\n");
  EventLog trace;
  db->ctx()->set_trace(&trace);
  ExplainAnalyzeOptions explain_options;
  explain_options.algorithms = {DivisionAlgorithm::kNaive,
                                DivisionAlgorithm::kSortAggregate,
                                DivisionAlgorithm::kHashAggregate,
                                DivisionAlgorithm::kHashDivision};
  explain_options.division.eliminate_duplicates = true;
  RELDIV_ASSIGN_OR_RETURN(
      ExplainAnalyzeResult explained,
      ExplainAnalyzeDivision(db->ctx(), query, explain_options));
  std::printf("%s", explained.text.c_str());
  db->ctx()->set_trace(nullptr);
  const char* trace_path = "supplier_parts_trace.json";
  RELDIV_RETURN_NOT_OK(trace.WriteFile(trace_path));
  std::printf("\nwrote %zu trace events to %s "
              "(load in chrome://tracing or https://ui.perfetto.dev)\n",
              trace.size(), trace_path);

  // 5a: every run above also updated the process-wide metric registry;
  // this is what a scrape endpoint would serve.
  std::printf("\nProcess metrics (Prometheus exposition, excerpt):\n");
  PrintPrometheusExcerpt();

  // 5b: inject a disk fault and replay the flight ring — the same ring the
  // RELDIV_CHECK failure handler dumps on a crash, here read back after a
  // query that failed cleanly.
  EventLog& recorder = EventLog::Flight();
  recorder.Clear();
  RELDIV_RETURN_NOT_OK(db->buffer_manager()->FlushAll());
  RELDIV_RETURN_NOT_OK(db->buffer_manager()->DropAll());
  Status injected;
  {
    ScopedFailpoint fault(
        "sim_disk/read",
        FailpointPolicy::Always(StatusCode::kIOError, "injected head crash"));
    Result<std::vector<Tuple>> crashed =
        Divide(db->ctx(), query, DivisionAlgorithm::kHashDivision);
    if (crashed.ok()) {
      return Status::Internal("injected fault did not surface");
    }
    injected = crashed.status();
  }
  std::printf("\nInjected fault: query failed with: %s\n",
              injected.ToString().c_str());
  std::printf("Flight ring (%zu events retained, oldest first):\n",
              recorder.size());
  for (const Event& event : recorder.Events()) {
    std::printf("  #%llu +%lluus [%.*s] %s %s value=%llu\n",
                static_cast<unsigned long long>(event.seq),
                static_cast<unsigned long long>(event.ts_us),
                static_cast<int>(event.category.size()),
                event.category.data(), event.name.c_str(),
                event.detail.c_str(),
                static_cast<unsigned long long>(event.value));
  }
  return Status::OK();
}

}  // namespace

int main() {
  Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "supplier_parts failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
