#ifndef RELDIV_BENCH_BENCH_UTIL_H_
#define RELDIV_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "cost/io_cost.h"
#include "division/division.h"
#include "exec/database.h"
#include "workload/generator.h"

namespace reldiv {
namespace bench {

/// Reduced-size mode for CI smoke runs (tools/check_all.sh): benches shrink
/// their workloads/sweeps when RELDIV_BENCH_SMOKE is set so that every
/// binary still exercises its full measurement + JSON-emission path in
/// seconds. Absolute numbers from a smoke run are meaningless.
inline bool SmokeMode() { return std::getenv("RELDIV_BENCH_SMOKE") != nullptr; }

/// Database configured like the paper's experimental system (§5.1): 256 KB
/// buffer/memory pool, 100 KB sort space, memory-backed simulated disk.
inline DatabaseOptions PaperDatabaseOptions() {
  DatabaseOptions options;
  options.pool_bytes = kDefaultBufferPoolBytes;
  options.sort_space_bytes = kDefaultSortSpaceBytes;
  return options;
}

/// Runs one division experiment cold (buffer pool purged), returning the
/// paper-style cost: CPU cost from measured operation counts under the
/// Table 1 unit times, plus I/O cost computed from the file system
/// statistics with the Table 3 weights. Wall-clock time is kept alongside.
inline Result<ExperimentalCost> RunDivision(Database* db,
                                            const DivisionQuery& query,
                                            DivisionAlgorithm algorithm,
                                            const DivisionOptions& options =
                                                {},
                                            uint64_t* quotient_size =
                                                nullptr) {
  RELDIV_RETURN_NOT_OK(db->buffer_manager()->FlushAll());
  RELDIV_RETURN_NOT_OK(db->buffer_manager()->DropAll());
  const DiskStats io_before = db->disk()->stats();
  const CpuCounters cpu_before = *db->counters();
  const auto t0 = std::chrono::steady_clock::now();
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<Operator> plan,
                          MakeDivisionPlan(db->ctx(), query, algorithm,
                                           options));
  RELDIV_ASSIGN_OR_RETURN(std::vector<Tuple> quotient,
                          CollectAll(plan.get()));
  const auto t1 = std::chrono::steady_clock::now();
  if (quotient_size != nullptr) *quotient_size = quotient.size();
  ExperimentalCost cost;
  cost.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  cost.cpu_counters = *db->counters();
  cost.cpu_counters.comparisons -= cpu_before.comparisons;
  cost.cpu_counters.hashes -= cpu_before.hashes;
  cost.cpu_counters.moves -= cpu_before.moves;
  cost.cpu_counters.bit_ops -= cpu_before.bit_ops;
  cost.cpu_ms = CpuCostMs(cost.cpu_counters);
  cost.io_stats = db->disk()->stats() - io_before;
  cost.io_ms = IoCostMs(cost.io_stats);
  return cost;
}

/// Prints a horizontal rule sized for `width` characters.
inline void Rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// ---------------------------------------------------------------------------
// Machine-readable benchmark emission. Every bench binary builds one
// BenchReporter and writes BENCH_<name>.json on exit; tools/bench_report.py
// validates the schema and diffs two result directories. Schema (version 1):
//
//   { "schema_version": 1, "name": "...", "params": {...},
//     "repetitions": N,
//     "rows": [ { "label": "...", "repetitions": n,
//                 "median_wall_ns": x, "p90_wall_ns": y,
//                 "counters": {"comparisons":..,"hashes":..,"moves":..,
//                              "bit_ops":..},
//                 "io": {"transfers":..,"seeks":..,"kbytes":..,
//                        "reads":..,"writes":..},
//                 "values": {"free-form metric": number, ...} } ] }
// ---------------------------------------------------------------------------

/// One measured row: a label, wall-time samples, the Table 1 operation
/// counter deltas, the simulated-disk statistic deltas, and free-form
/// numeric metrics (model milliseconds, speedups, phase counts, ...).
struct BenchRow {
  std::string label;
  std::vector<double> wall_ns;
  CpuCounters counters;
  DiskStats io;
  std::vector<std::pair<std::string, double>> values;

  void AddWallMs(double ms) { wall_ns.push_back(ms * 1e6); }
  void AddValue(const std::string& key, double value) {
    values.emplace_back(key, value);
  }
};

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0 when empty.
inline double PercentileNs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size());
  size_t index = rank <= 1 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  return samples[index];
}

/// Collects rows and parameters and serializes them as BENCH_<name>.json in
/// the working directory (or $RELDIV_BENCH_DIR when set).
class BenchReporter {
 public:
  /// Every report records the host's core count (`host_cores`): wall
  /// columns mean little without it.
  explicit BenchReporter(std::string name) : name_(std::move(name)) {
    AddParam("host_cores", std::thread::hardware_concurrency());
  }

  void AddParam(const std::string& key, double value) {
    numeric_params_.emplace_back(key, value);
  }
  void AddParam(const std::string& key, const std::string& value) {
    string_params_.emplace_back(key, value);
  }

  BenchRow* AddRow(std::string label) {
    rows_.push_back(BenchRow{});
    rows_.back().label = std::move(label);
    return &rows_.back();
  }

  /// Row from one paper-style measured run (bench_util RunDivision output).
  BenchRow* AddCostRow(const std::string& label, const ExperimentalCost& cost) {
    BenchRow* row = AddRow(label);
    row->AddWallMs(cost.wall_ms);
    row->counters = cost.cpu_counters;
    row->io = cost.io_stats;
    row->AddValue("cpu_ms", cost.cpu_ms);
    row->AddValue("io_ms", cost.io_ms);
    row->AddValue("total_ms", cost.total_ms());
    return row;
  }

  std::string ToJson() const {
    std::string json = "{\"schema_version\":1,\"name\":\"" + Escape(name_) +
                       "\",\"params\":{";
    bool first = true;
    for (const auto& [key, value] : string_params_) {
      if (!first) json += ",";
      first = false;
      json += "\"" + Escape(key) + "\":\"" + Escape(value) + "\"";
    }
    for (const auto& [key, value] : numeric_params_) {
      if (!first) json += ",";
      first = false;
      json += "\"" + Escape(key) + "\":" + Num(value);
    }
    size_t repetitions = 1;
    for (const BenchRow& row : rows_) {
      repetitions = std::max(repetitions, std::max<size_t>(
                                              1, row.wall_ns.size()));
    }
    json += "},\"repetitions\":" + std::to_string(repetitions) + ",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const BenchRow& row = rows_[i];
      if (i > 0) json += ",";
      json += "{\"label\":\"" + Escape(row.label) + "\",\"repetitions\":" +
              std::to_string(std::max<size_t>(1, row.wall_ns.size())) +
              ",\"median_wall_ns\":" + Num(PercentileNs(row.wall_ns, 50)) +
              ",\"p90_wall_ns\":" + Num(PercentileNs(row.wall_ns, 90)) +
              ",\"counters\":" + row.counters.ToJson() +
              ",\"io\":" + row.io.ToJson() + ",\"values\":{";
      for (size_t v = 0; v < row.values.size(); ++v) {
        if (v > 0) json += ",";
        json += "\"" + Escape(row.values[v].first) +
                "\":" + Num(row.values[v].second);
      }
      json += "}}";
    }
    json += "]}";
    return json;
  }

  /// Writes BENCH_<name>.json; reports the path on stdout. Returns false
  /// (with a message on stderr) when the file cannot be written.
  bool WriteFile() const {
    std::string dir = ".";
    if (const char* env = std::getenv("RELDIV_BENCH_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    const std::string json = ToJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  static std::string Num(double v) {
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.6g", v);
    }
    return buf;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> string_params_;
  std::vector<std::pair<std::string, double>> numeric_params_;
  std::vector<BenchRow> rows_;
};

}  // namespace bench
}  // namespace reldiv

#endif  // RELDIV_BENCH_BENCH_UTIL_H_
