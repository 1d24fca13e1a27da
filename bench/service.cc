// Experiment E9 (DESIGN.md §16): the multi-query service layer under
// concurrent load. For 1/4/16/64 concurrent clients, three serving modes
// over the same division query:
//
//   cold         every query bypasses the quotient cache and executes a
//                full hash-division plan (the uncached baseline);
//   cached       the cache is warmed once, then every query is a pure hit,
//                answered inside Submit;
//   incremental  a catalog mutation lands between rounds, so every hit is
//                served from an incrementally MAINTAINED entry (bit-set /
//                counted-delete maintenance, never a rebuild).
//
// Each (mode, clients) row is measured kRepetitions times (once in smoke
// mode). A row reports the median, p10 and p90 of the per-run p50
// execution latencies, and the median per-run throughput and p95/p99. Two
// gates fail the binary (exit 1), checked on EVERY repetition, so
// tools/check_all.sh's bench smoke stage enforces them on every run:
//
//   1. cached-hit p50 latency must sit at least 10x below cold p50 at
//      every client count;
//   2. the 64-client cached p99 must stay bounded — below the cold p50 at
//      the same client count (the tail of a hit is still cheaper than a
//      typical uncached execution).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "service/service.h"

namespace reldiv {
namespace {

/// Quotient groups and divisor cardinality for the benchmark relation:
/// every group carries all divisor values, so the quotient is all groups
/// and the cold plan does full work per query.
constexpr int64_t kGroups = 500;
constexpr int64_t kDivisors = 40;
constexpr int64_t kSmokeGroups = 60;
constexpr int64_t kSmokeDivisors = 10;

/// Gate 1: cached-hit p50 must be at least this factor below cold p50.
constexpr double kHitSpeedupGate = 10.0;

/// Runs of every (mode, clients) row outside smoke mode.
constexpr size_t kRepetitions = 5;

struct ModeStats {
  double throughput_qps = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  uint64_t queries = 0;
};

Result<std::unique_ptr<Database>> MakeDatabase(int64_t groups,
                                               int64_t divisors) {
  DatabaseOptions options;
  options.pool_bytes = 64 * 1024 * 1024;
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(options));
  RELDIV_RETURN_NOT_OK(db->CreateTable(
                             "r", Schema{Field{"q", ValueType::kInt64},
                                         Field{"d", ValueType::kInt64}})
                           .status());
  RELDIV_RETURN_NOT_OK(
      db->CreateTable("s", Schema{Field{"d", ValueType::kInt64}}).status());
  for (int64_t d = 0; d < divisors; ++d) {
    RELDIV_RETURN_NOT_OK(db->Insert("s", Tuple{Value::Int64(d)}));
  }
  for (int64_t q = 0; q < groups; ++q) {
    for (int64_t d = 0; d < divisors; ++d) {
      RELDIV_RETURN_NOT_OK(
          db->Insert("r", Tuple{Value::Int64(q), Value::Int64(d)}));
    }
  }
  return db;
}

Result<DivisionQuery> BenchQuery(Database* db) {
  RELDIV_ASSIGN_OR_RETURN(Relation dividend, db->GetTable("r"));
  RELDIV_ASSIGN_OR_RETURN(Relation divisor, db->GetTable("s"));
  return DivisionQuery{dividend, divisor, {"d"}};
}

enum class Mode { kCold, kCached, kIncremental };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kCold:
      return "cold";
    case Mode::kCached:
      return "cached";
    case Mode::kIncremental:
      return "incremental";
  }
  return "unknown";
}

/// Runs `rounds` rounds of one query per client through a fresh service and
/// folds every ticket's execution latency into the stats. In incremental
/// mode a dividend insert lands before each round so the observer maintains
/// the cached entry between hits.
Result<ModeStats> RunMode(Database* db, const DivisionQuery& query,
                          size_t clients, size_t rounds, Mode mode,
                          int64_t groups) {
  ServiceOptions options;
  options.max_concurrent = std::min<size_t>(clients, 8);
  options.grant_bytes = 1 << 20;
  DivisionService service(db, options);

  std::vector<std::string> tenants;
  for (size_t c = 0; c < clients; ++c) {
    tenants.push_back("client-" + std::to_string(c));
    TenantOptions tenant;
    tenant.max_queue_depth = rounds + 1;
    service.RegisterTenant(tenants.back(), tenant);
  }

  QueryRequest request;
  request.query = query;
  request.bypass_cache = mode == Mode::kCold;

  if (mode != Mode::kCold) {
    // Warm the cache: the build itself is not part of the measured rows.
    RELDIV_ASSIGN_OR_RETURN(std::shared_ptr<QueryTicket> warm,
                            service.Submit(tenants[0], request));
    RELDIV_RETURN_NOT_OK(service.RunUntilIdle());
    RELDIV_RETURN_NOT_OK(warm->status());
    if (warm->quotient().size() != static_cast<size_t>(groups)) {
      return Status::Internal("warm-up produced a wrong quotient size");
    }
  }
  const uint64_t maintained_before = service.cache()->incremental_updates();

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(clients * rounds);
  const auto t0 = std::chrono::steady_clock::now();
  int64_t next_group = groups;
  for (size_t round = 0; round < rounds; ++round) {
    if (mode == Mode::kIncremental) {
      // A fresh group with one divisor value: bit-set maintenance on the
      // cached entry, no quotient membership change.
      RELDIV_RETURN_NOT_OK(db->Insert(
          "r", Tuple{Value::Int64(next_group++), Value::Int64(0)}));
    }
    for (const std::string& tenant : tenants) {
      RELDIV_ASSIGN_OR_RETURN(std::shared_ptr<QueryTicket> ticket,
                              service.Submit(tenant, request));
      tickets.push_back(std::move(ticket));
    }
    if (mode == Mode::kIncremental) {
      // Drain per round so the next mutation interleaves with served hits.
      RELDIV_RETURN_NOT_OK(service.RunUntilIdle());
    }
  }
  RELDIV_RETURN_NOT_OK(service.RunUntilIdle());
  const auto t1 = std::chrono::steady_clock::now();

  std::vector<double> latencies_ns;
  for (const std::shared_ptr<QueryTicket>& ticket : tickets) {
    RELDIV_RETURN_NOT_OK(ticket->status());
    if (ticket->quotient().size() != static_cast<size_t>(groups)) {
      return Status::Internal("a measured query returned a wrong quotient");
    }
    if (mode != Mode::kCold && !ticket->cache_hit()) {
      return Status::Internal("a measured query missed the warmed cache");
    }
    latencies_ns.push_back(static_cast<double>(ticket->exec_us()) * 1e3);
  }
  if (mode == Mode::kIncremental) {
    if (service.cache()->incremental_updates() <= maintained_before) {
      return Status::Internal("no incremental maintenance was exercised");
    }
    if (service.cache()->invalidations() != 0) {
      return Status::Internal(
          "a notified mutation fell back to invalidation");
    }
  }

  ModeStats stats;
  stats.queries = tickets.size();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  stats.throughput_qps =
      wall_s > 0 ? static_cast<double>(tickets.size()) / wall_s : 0;
  stats.p50_us = bench::PercentileNs(latencies_ns, 50) / 1e3;
  stats.p95_us = bench::PercentileNs(latencies_ns, 95) / 1e3;
  stats.p99_us = bench::PercentileNs(latencies_ns, 99) / 1e3;
  return stats;
}

Status Run() {
  const bool smoke = bench::SmokeMode();
  const int64_t groups = smoke ? kSmokeGroups : kGroups;
  const int64_t divisors = smoke ? kSmokeDivisors : kDivisors;
  const std::vector<size_t> client_counts = {1, 4, 16, 64};

  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          MakeDatabase(groups, divisors));
  RELDIV_ASSIGN_OR_RETURN(DivisionQuery query, BenchQuery(db.get()));

  bench::BenchReporter report("service");
  report.AddParam("smoke", smoke ? 1 : 0);
  report.AddParam("groups", static_cast<double>(groups));
  report.AddParam("divisors", static_cast<double>(divisors));
  const size_t repetitions = smoke ? 1 : kRepetitions;
  report.AddParam("repetitions", static_cast<double>(repetitions));

  std::printf(
      "=== Experiment E9: service layer, quotient cache under load ===\n\n");
  std::printf("  %-20s %10s %10s %10s %10s   (medians over %zu runs)\n",
              "mode/clients", "qps", "p50 us", "p95 us", "p99 us",
              repetitions);

  double cold_p50_at_64 = 0;
  double cached_p99_at_64 = 0;
  Status gate = Status::OK();
  for (size_t clients : client_counts) {
    // Rounds chosen so every client count yields enough samples for a p99
    // while the 64-client cold sweep stays in CI budget.
    const size_t rounds =
        smoke ? 4 : std::max<size_t>(8, 128 / clients);
    std::vector<ModeStats> runs[3];  // per mode, one per repetition
    for (size_t rep = 0; rep < repetitions; ++rep) {
      double cold_p50 = 0;
      for (Mode mode : {Mode::kCold, Mode::kCached, Mode::kIncremental}) {
        RELDIV_ASSIGN_OR_RETURN(
            ModeStats stats,
            RunMode(db.get(), query, clients, rounds, mode, groups));
        // Incremental rounds append rows; rebuild `groups` for later modes.
        if (mode == Mode::kIncremental) {
          RELDIV_ASSIGN_OR_RETURN(
              uint64_t removed, db->DeleteWhere("r", [groups](const Tuple& t) {
                return t.value(0).int64() >= groups;
              }));
          (void)removed;
        }
        runs[static_cast<int>(mode)].push_back(stats);
        // Both gates hold on every repetition, not only on the medians.
        if (mode == Mode::kCold) cold_p50 = stats.p50_us;
        if (gate.ok() && mode == Mode::kCached &&
            stats.p50_us * kHitSpeedupGate > cold_p50) {
          gate = Status::Internal(
              "cached p50 " + std::to_string(stats.p50_us) + "us at " +
              std::to_string(clients) + " clients (repetition " +
              std::to_string(rep + 1) + ") is not " +
              std::to_string(kHitSpeedupGate) + "x below cold p50 " +
              std::to_string(cold_p50) + "us");
        }
        if (gate.ok() && clients == 64 && mode == Mode::kCached &&
            stats.p99_us >= cold_p50) {
          gate = Status::Internal(
              "64-client cached p99 " + std::to_string(stats.p99_us) +
              "us (repetition " + std::to_string(rep + 1) +
              ") is not bounded below the cold p50 " +
              std::to_string(cold_p50) + "us");
        }
      }
    }
    for (Mode mode : {Mode::kCold, Mode::kCached, Mode::kIncremental}) {
      const std::vector<ModeStats>& mode_runs = runs[static_cast<int>(mode)];
      auto column = [&mode_runs](double ModeStats::*field) {
        std::vector<double> values;
        for (const ModeStats& run : mode_runs) values.push_back(run.*field);
        return values;
      };
      const std::vector<double> p50s = column(&ModeStats::p50_us);
      const double p50 = bench::PercentileNs(p50s, 50);
      const double p95 = bench::PercentileNs(column(&ModeStats::p95_us), 50);
      const double p99 = bench::PercentileNs(column(&ModeStats::p99_us), 50);
      const double qps =
          bench::PercentileNs(column(&ModeStats::throughput_qps), 50);
      const std::string label =
          std::string(ModeName(mode)) + "/" + std::to_string(clients);
      bench::BenchRow* row = report.AddRow(label);
      for (double us : p50s) row->wall_ns.push_back(us * 1e3);
      row->AddValue("clients", static_cast<double>(clients));
      row->AddValue("queries", static_cast<double>(mode_runs[0].queries));
      row->AddValue("throughput_qps", qps);
      row->AddValue("p50_us", p50);
      row->AddValue("p50_us_p10", bench::PercentileNs(p50s, 10));
      row->AddValue("p50_us_p90", bench::PercentileNs(p50s, 90));
      row->AddValue("p95_us", p95);
      row->AddValue("p99_us", p99);
      std::printf("  %-20s %10.0f %10.1f %10.1f %10.1f\n", label.c_str(), qps,
                  p50, p95, p99);
      if (clients == 64 && mode == Mode::kCold) cold_p50_at_64 = p50;
      if (clients == 64 && mode == Mode::kCached) cached_p99_at_64 = p99;
    }
  }
  std::printf("\n");
  RELDIV_RETURN_NOT_OK(gate);
  std::printf("  gates (every one of %zu repetitions): cached p50 >= %.0fx "
              "below cold at every client count; 64-client cached p99 "
              "< cold p50 (medians %.1f us < %.1f us) [ok]\n\n",
              repetitions, kHitSpeedupGate, cached_p99_at_64,
              cold_p50_at_64);
  return report.WriteFile() ? Status::OK()
                            : Status::Internal("failed to write report");
}

}  // namespace
}  // namespace reldiv

int main() {
  reldiv::Status status = reldiv::Run();
  if (!status.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
