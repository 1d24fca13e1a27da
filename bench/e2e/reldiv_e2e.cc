// End-to-end benchmark binary (bench/e2e/README.md). One workload per
// process:
//
//   reldiv_e2e --workload NAME --seconds S [--seed N] [--trace 0|1]
//              [--smoke] [--trace-file PATH]
//
// It measures the library from outside, through its public API:
// Divide() and DivisionService::Submit() for the end-to-end numbers, and
// timed calls into each module's public functions for the per-layer numbers
// of a traced run (--trace 1). It prints one JSON object on stdout:
//
//   {"workload":..., "seed":..., "trace":0|1, "correct":bool,
//    "attempted":n, "failed":n, "errors":[...],
//    "metrics":{name:{"value":x,"samples":n}}, "info":{...}}
//
// "metrics" holds only what the run measured. run.py builds this binary,
// runs it and turns that object into the benchmark's result line, taking
// the metric list and units from BENCHMARK.json. Every check that fails is
// listed in "errors" and makes "correct" false.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metric_names.h"
#include "common/rng.h"
#include "division/division.h"
#include "division/hash_division.h"
#include "exec/database.h"
#include "exec/exchange.h"
#include "exec/scan.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "service/service.h"
#include "workload/generator.h"

namespace reldiv::e2e {
namespace {

constexpr int kSetupRepeats = 7;   // setup_s is the median of these
constexpr int kWarmupQueries = 3;  // per Divide workload, before measuring
constexpr size_t kTraceFileOps = 5;  // operations written to the trace file
// latency_ms_tail of a Divide workload (DivideSpec::tail_percentile) is the
// highest percentile that leaves at least ten samples beyond it when the
// host runs slow: 40 queries in a run of hashdiv_dop3, 70 of the others.
// service_mix reads 12,000 times or more per run; p95 leaves 600 beyond (its
// p99 swung twice as much from run to run).
constexpr double kServiceTail = 95;
// Simulated-disk growth (1 KB sectors) after which a Divide workload
// reloads its database between queries.
constexpr uint64_t kMaxDiskGrowthSectors = 128 * 1024;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

/// Threads of this process right now, from /proc/self/status.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Report: metrics, extra information and failed checks of one run.

struct Metric {
  std::string name;
  double value;
  size_t samples;
};

class Report {
 public:
  void Add(const std::string& name, double value, size_t samples) {
    metrics_.push_back({name, value, samples});
  }
  void Info(const std::string& name, double value) {
    info_.emplace_back(name, value);
  }
  /// Records a failed check when `ok` is false; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    if (!ok) errors_[what]++;
    return ok;
  }
  void Fail(const Status& status, const std::string& where) {
    Check(false, where + ": " + status.ToString());
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ToJson(const std::string& workload, uint64_t seed,
                     bool trace) const {
    std::string out = "{\"workload\":" + JsonString(workload) +
                      ",\"seed\":" + std::to_string(seed) +
                      ",\"trace\":" + (trace ? "1" : "0") +
                      ",\"correct\":" + (errors_.empty() ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) + ",\"errors\":[";
    bool first = true;
    for (const auto& [what, times] : errors_) {
      out += (first ? "" : ",") +
             JsonString(what + " (" + std::to_string(times) + " times)");
      first = false;
    }
    out += "],\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i ? "," : "") + JsonString(m.name) +
             ":{\"value\":" + JsonNumber(m.value) +
             ",\"samples\":" + std::to_string(m.samples) + "}";
    }
    out += "},\"info\":{";
    for (size_t i = 0; i < info_.size(); ++i) {
      out += (i ? "," : "") + JsonString(info_[i].first) + ":" +
             JsonNumber(info_[i].second);
    }
    return out + "}}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> info_;
  std::map<std::string, uint64_t> errors_;  // failed check -> times
};

// ---------------------------------------------------------------------------
// Spans of a traced run. Each span is one public call into a layer; its
// `metric` names the per-layer metric its self time counts towards (empty
// for the operation's own root span). Spans stay in memory; the first
// kTraceFileOps operations are written as chrome-trace JSON at exit.

struct Span {
  const char* name;
  const char* metric;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // index into the span list, -1 for an operation root
  uint64_t op;     // operation (query) id
};

class SpanRecorder {
 public:
  void BeginOp(uint64_t op) { op_ = op; }

  size_t Begin(const char* name, const char* metric) {
    spans_.push_back({name, metric, NowNs(), 0,
                      open_.empty() ? -1 : static_cast<int64_t>(open_.back()),
                      op_});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }
  uint64_t Duration(size_t id) const {
    return spans_[id].end_ns - spans_[id].start_ns;
  }

  /// A span timed elsewhere (service tickets report their own intervals).
  size_t Add(const char* name, const char* metric, uint64_t start_ns,
             uint64_t end_ns, int64_t parent, uint64_t op) {
    spans_.push_back({name, metric, start_ns, end_ns, parent, op});
    return spans_.size() - 1;
  }

  /// Self time (duration minus the children's durations) summed per metric,
  /// and the summed duration of the operation roots.
  void SelfTimes(std::map<std::string, double>* self_ns,
                 double* root_ns) const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      if (s.parent < 0) *root_ns += static_cast<double>(dur);
      if (s.metric[0] == '\0') continue;
      (*self_ns)[s.metric] +=
          static_cast<double>(dur - std::min(dur, child_ns[i]));
    }
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    uint64_t omitted = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.op >= kTraceFileOps) {
        omitted++;
        continue;
      }
      std::fprintf(
          f,
          "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%lld,"
          "\"span\":%zu}}",
          first ? "" : ",\n", JsonString(s.name).c_str(),
          JsonString(s.metric[0] ? s.metric : "op").c_str(),
          static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
          static_cast<unsigned long long>(s.op),
          static_cast<long long>(s.parent), i);
      first = false;
    }
    std::fprintf(f,
                 "\n],\"otherData\":{\"spans\":%zu,\"spans_omitted\":%llu}}\n",
                 spans_.size(), static_cast<unsigned long long>(omitted));
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t op_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, const char* metric)
      : rec_(rec), id_(rec->Begin(name, metric)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  size_t id_;
};

/// Records one span around every Open/Next/NextBatch/Close of the wrapped
/// scan, so a layer that pulls from it internally (the divisor build, the
/// repartition drain) gets its scan time split off as child spans.
class TimedScan : public Operator {
 public:
  TimedScan(ExecContext* ctx, Relation relation, SpanRecorder* rec)
      : scan_(ctx, relation), rec_(rec) {}

  const Schema& output_schema() const override { return scan_.output_schema(); }
  bool IsBatchNative() const override { return scan_.IsBatchNative(); }
  Status Open() override {
    ScopedSpan span(rec_, "ScanOperator::Open", "storage.scan");
    return scan_.Open();
  }
  Status Next(Tuple* tuple, bool* has_next) override {
    ScopedSpan span(rec_, "ScanOperator::Next", "storage.scan");
    return scan_.Next(tuple, has_next);
  }
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    ScopedSpan span(rec_, "ScanOperator::NextBatch", "storage.scan");
    return scan_.NextBatch(batch, has_more);
  }
  Status Close() override {
    ScopedSpan span(rec_, "ScanOperator::Close", "storage.scan");
    return scan_.Close();
  }

 private:
  ScanOperator scan_;
  SpanRecorder* rec_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics. A traced run emits the layers it reached; run.py reads
// the rest as 0. Layer times are shares of the traced operations' wall time,
// so that a workload that never calls a layer reads 0, not a constant time.

/// Collects per-layer values, then emits them with the given sample count.
class LayerValues {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void AddShares(const std::map<std::string, double>& self_ns,
                 double root_ns) {
    double covered = 0;
    for (const auto& [metric, ns] : self_ns) {
      Set(metric + "_share", root_ns > 0 ? ns / root_ns : 0);
      covered += ns;
    }
    Set("trace.coverage", root_ns > 0 ? covered / root_ns : 0);
  }
  /// trace.op_ms_p50 and trace.overhead from the untraced and traced
  /// operations' median wall times.
  void SetOverhead(double untraced_p50_ms, double traced_p50_ms) {
    Set("trace.op_ms_p50", traced_p50_ms);
    Set("trace.overhead",
        untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1 : 0);
  }
  void Emit(Report* report, size_t samples) const {
    for (const auto& [name, value] : values_) {
      report->Add(name, value, samples);
    }
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Host speed. The shared virtual machine this benchmark runs on changes
// speed by up to 2x over minutes, as other tenants come and go, and CPU
// time moves with wall time, so no clock hides it. Set-ups, the Divide
// workloads' queries and service_mix's phases are therefore each timed
// between two runs of a fixed probe and reported at reference speed: raw
// time x kReferenceProbeMs / (mean of the two probes). The probe uses no
// library code, so a change to the library cannot move it; the raw medians
// are kept as info.

/// The shape of a probe's work, matched to the workload it calibrates.
/// Slowdowns of the host differ in what they slow: the Divide workloads,
/// whose tables outgrow the core's cache, track a large hash table, and
/// service_mix, whose queries run on small tables, tracks an in-cache sort
/// (on the baseline host the hash-table probe over-corrected it).
enum class ProbeShape {
  kHashTable,  // a sequential pass over 8 MB of keys into a 4 MB table, x2
  kSort,       // sorting a copy of 512 KB of keys, x2
};

/// A fixed amount of work of one shape, about 10 ms on an unloaded core of
/// the baseline host.
class HostProbe {
 public:
  explicit HostProbe(ProbeShape shape)
      : shape_(shape),
        keys_(shape == ProbeShape::kSort ? kSortKeys : kKeys),
        table_(shape == ProbeShape::kSort ? 0 : kSlots, 0) {
    uint64_t x = 0;
    for (uint64_t& key : keys_) {
      x += 0x9e3779b97f4a7c15ULL;  // splitmix64
      uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      key = z ^ (z >> 27);
    }
    RunMs();  // fault the pages in before the first timed probe
  }

  double RunMs() {
    const uint64_t t0 = NowNs();
    uint64_t sum = 0;
    for (int pass = 0; pass < 2; ++pass) {
      if (shape_ == ProbeShape::kSort) {
        sorted_ = keys_;
        std::sort(sorted_.begin(), sorted_.end());
        sum += sorted_[pass];
        continue;
      }
      for (uint64_t key : keys_) {
        const uint64_t h = (key ^ (key >> 31)) * 0x94d049bb133111ebULL;
        uint64_t& slot = table_[(h >> 20) & (kSlots - 1)];
        sum += slot;
        slot ^= key;
      }
    }
    sink_ = sink_ + sum;
    return Millis(NowNs() - t0);
  }

 private:
  static constexpr size_t kKeys = size_t{1} << 20;
  static constexpr size_t kSlots = size_t{1} << 19;
  static constexpr size_t kSortKeys = size_t{1} << 16;
  ProbeShape shape_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> table_;
  std::vector<uint64_t> sorted_;
  volatile uint64_t sink_ = 0;  // keeps the loop from being optimised away
};

/// The probe time that defines reference speed.
constexpr double kReferenceProbeMs = 10.0;

/// `raw` taken between probes of `probe_before_ms` and `probe_after_ms`,
/// scaled to reference speed.
double AtReferenceSpeed(double raw, double probe_before_ms,
                        double probe_after_ms) {
  return raw * 2 * kReferenceProbeMs / (probe_before_ms + probe_after_ms);
}

TelemetryCounter* RegistryCounter(const char* name) {
  return MetricRegistry::Global().FindOrCreateCounter(name);
}
Histogram* RegistryHistogram(const char* name) {
  return MetricRegistry::Global().FindOrCreateHistogram(name);
}
double PoolHighWaterMb() {
  return static_cast<double>(MetricRegistry::Global()
                                 .FindOrCreateGauge(
                                     metric_names::kMemHighWaterBytes)
                                 ->value()) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Divide workloads: hashdiv_cold, hashdiv_dop3, naive_spill.

struct DivideSpec {
  uint64_t divisor;
  uint64_t quotient;
  size_t pool_bytes;
  size_t sort_space_bytes;
  DivisionAlgorithm algorithm;
  size_t parallel_fragments;  // 0 = serial plan
  size_t dop;
  double tail_percentile;
};

DivideSpec DivideSpecFor(const std::string& workload, bool smoke) {
  constexpr size_t kMb = 1024 * 1024;
  if (workload == "hashdiv_cold") {
    return {100, smoke ? 200u : 10000u, 64 * kMb, kDefaultSortSpaceBytes,
            DivisionAlgorithm::kHashDivision, 0, 1, 85};
  }
  if (workload == "hashdiv_dop3") {
    return {100, smoke ? 200u : 10000u, 64 * kMb, kDefaultSortSpaceBytes,
            DivisionAlgorithm::kHashDivision, 16, 3, 75};
  }
  // naive_spill: the §5.1 settings, 256 KB buffer pool and 100 KB sort space.
  return {100, smoke ? 100u : 2000u, kDefaultBufferPoolBytes,
          kDefaultSortSpaceBytes, DivisionAlgorithm::kNaive, 0, 1, 85};
}

struct LoadedDivide {
  std::unique_ptr<Database> db;
  DivisionQuery query;
  std::vector<Tuple> expected;  // sorted
  uint64_t loaded_sectors = 0;  // simulated-disk size after the load
};

Result<LoadedDivide> SetUpDivide(const DivideSpec& spec, uint64_t seed) {
  DatabaseOptions options;
  options.pool_bytes = spec.pool_bytes;
  options.sort_space_bytes = spec.sort_space_bytes;
  LoadedDivide loaded;
  RELDIV_ASSIGN_OR_RETURN(loaded.db, Database::Open(options));
  WorkloadSpec workload_spec = PaperCell(spec.divisor, spec.quotient);
  workload_spec.seed = seed;
  GeneratedWorkload workload = GenerateWorkload(workload_spec);
  Relation dividend;
  Relation divisor;
  RELDIV_RETURN_NOT_OK(
      LoadWorkload(loaded.db.get(), workload, "w", &dividend, &divisor));
  RELDIV_RETURN_NOT_OK(loaded.db->buffer_manager()->FlushAll());
  loaded.db->ctx()->set_dop(spec.dop);
  loaded.query = DivisionQuery{dividend, divisor, {"divisor_id"}};
  loaded.expected = std::move(workload.expected_quotient);
  loaded.loaded_sectors = loaded.db->disk()->num_sectors();
  return loaded;
}

/// Table 1 counters plus disk and buffer statistics of one query.
struct QueryCost {
  CpuCounters cpu;
  DiskStats disk;
  BufferStats buffer;

  bool operator==(const QueryCost& o) const {
    return cpu.comparisons == o.cpu.comparisons &&
           cpu.hashes == o.cpu.hashes && cpu.moves == o.cpu.moves &&
           cpu.bit_ops == o.cpu.bit_ops &&
           disk.transfers == o.disk.transfers && disk.seeks == o.disk.seeks &&
           disk.sectors_transferred == o.disk.sectors_transferred &&
           disk.read_transfers == o.disk.read_transfers &&
           disk.write_transfers == o.disk.write_transfers &&
           buffer.fixes == o.buffer.fixes && buffer.hits == o.buffer.hits &&
           buffer.misses == o.buffer.misses &&
           buffer.evictions == o.buffer.evictions &&
           buffer.writebacks == o.buffer.writebacks;
  }
};

/// Starts a query on `db` cold, as in the paper's cold runs: the buffer pool
/// is flushed and dropped, and the sub-page Move remainder is cleared so
/// every query's Table 1 counts start from the same state.
Status StartCold(Database* db) {
  RELDIV_RETURN_NOT_OK(db->buffer_manager()->FlushAll());
  RELDIV_RETURN_NOT_OK(db->buffer_manager()->DropAll());
  db->ctx()->ResetMoveAccumulator();
  return Status::OK();
}

QueryCost CostSnapshot(Database* db) {
  return {*db->counters(), db->disk()->stats(), db->buffer_manager()->stats()};
}

QueryCost CostSince(Database* db, const QueryCost& before) {
  QueryCost cost = CostSnapshot(db);
  cost.cpu -= before.cpu;
  cost.disk -= before.disk;
  cost.buffer.fixes -= before.buffer.fixes;
  cost.buffer.hits -= before.buffer.hits;
  cost.buffer.misses -= before.buffer.misses;
  cost.buffer.evictions -= before.buffer.evictions;
  cost.buffer.writebacks -= before.buffer.writebacks;
  return cost;
}

/// Runs `set_up` kSetupRepeats times into `*loaded`, each between two
/// probes, timing each run at reference speed into `setup_s` (the raw
/// median goes to info); the last result is kept. False after a failed
/// set-up.
template <typename Loaded, typename SetUp>
bool RepeatSetUp(const SetUp& set_up, Loaded* loaded, HostProbe* probe,
                 std::vector<double>* setup_s, Report* report) {
  std::vector<double> raw_s;
  double probe_before = probe->RunMs();
  for (int i = 0; i < kSetupRepeats; ++i) {
    *loaded = Loaded{};  // free the previous copy before timing the next
    const uint64_t t0 = NowNs();
    Result<Loaded> result = set_up();
    const uint64_t t1 = NowNs();
    if (!result.ok()) {
      report->Fail(result.status(), "setup");
      return false;
    }
    *loaded = result.MoveValue();
    const double probe_after = probe->RunMs();
    raw_s.push_back(Seconds(t1 - t0));
    setup_s->push_back(
        AtReferenceSpeed(raw_s.back(), probe_before, probe_after));
    probe_before = probe_after;
  }
  report->Info("raw_setup_s", Percentile(raw_s, 50));
  return true;
}

/// Checks that this process runs no more threads than the host has cores.
/// Called while every thread the workload started is still alive (scheduler
/// workers never exit).
void CheckThreads(Report* report) {
  const int threads = ThreadCount();
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  report->Check(threads > 0 && threads <= cores,
                "process ran " + std::to_string(threads) + " threads on " +
                    std::to_string(cores) + " cores");
  report->Info("threads", threads);
}

DivisionOptions DivideOptions(const DivideSpec& spec) {
  DivisionOptions options;
  options.parallel_fragments = spec.parallel_fragments;
  return options;
}

/// The hash-division query rebuilt from public calls, one span per call:
/// the same steps, inputs and cardinality hints as Divide(kHashDivision)
/// with these options, so it must produce the same quotient and counters.
Status RebuiltHashDivision(const LoadedDivide& loaded, const DivideSpec& spec,
                           SpanRecorder* rec, std::vector<Tuple>* out) {
  ExecContext* ctx = loaded.db->ctx();
  RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved,
                          ResolveDivision(loaded.query));
  DivisionOptions options = DivideOptions(spec);
  options.expected_divisor_cardinality = resolved.divisor.store->num_records();
  HashDivisionCore core(ctx, resolved.match_attrs, resolved.quotient_attrs,
                        options);
  TimedScan divisor(ctx, resolved.divisor, rec);
  {
    ScopedSpan span(rec, "HashDivisionCore::BuildDivisorTable",
                    "division.build");
    RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor));
  }
  TimedScan dividend(ctx, resolved.dividend, rec);
  if (spec.parallel_fragments > 0) {
    std::vector<std::vector<Tuple>> buckets;
    {
      ScopedSpan span(rec, "DrainAndHashRepartition", "exec.repartition");
      RELDIV_ASSIGN_OR_RETURN(
          buckets, DrainAndHashRepartition(ctx, &dividend,
                                           resolved.quotient_attrs,
                                           spec.parallel_fragments));
    }
    {
      ScopedSpan span(rec, "RunDivisionFragments", "exec.fragments");
      RELDIV_RETURN_NOT_OK(RunDivisionFragments(
          ctx, resolved.match_attrs, resolved.quotient_attrs, options, core,
          buckets, out));
    }
    // Freeing the repartitioned copy is the exchange's cost too; Divide pays
    // it before it returns.
    ScopedSpan span(rec, "DrainAndHashRepartition (free buckets)",
                    "exec.repartition");
    buckets = {};
    return Status::OK();
  }
  {
    ScopedSpan span(rec, "HashDivisionCore::ResetQuotientTable",
                    "division.probe");
    RELDIV_RETURN_NOT_OK(core.ResetQuotientTable());
  }
  RELDIV_RETURN_NOT_OK(dividend.Open());
  TupleBatch batch(1);
  batch.ResetCapacity(ctx->batch_capacity(), ctx->pool());
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(dividend.NextBatch(&batch, &has_more));
    ScopedSpan span(rec, "HashDivisionCore::ConsumeBatch", "division.probe");
    RELDIV_RETURN_NOT_OK(core.ConsumeBatch(batch, nullptr));
  }
  RELDIV_RETURN_NOT_OK(dividend.Close());
  ScopedSpan span(rec, "HashDivisionCore::EmitComplete", "division.emit");
  return core.EmitComplete(out);
}

/// Divide with ExecContext::set_profiling on: the plan's MetricsNode tree
/// is left in the context's profile.
Status ProfiledDivide(const LoadedDivide& loaded, const DivideSpec& spec,
                      std::vector<Tuple>* out) {
  ExecContext* ctx = loaded.db->ctx();
  ctx->set_profiling(true);
  Result<std::vector<Tuple>> result =
      Divide(ctx, loaded.query, spec.algorithm, DivideOptions(spec));
  ctx->set_profiling(false);
  RELDIV_RETURN_NOT_OK(result.status());
  *out = result.MoveValue();
  return Status::OK();
}

/// Self time of every node of a profiled naive-division plan, by layer:
/// scan(*) nodes are storage, sort(*) nodes exec, the root the merge.
void AddNaiveProfile(const MetricsNode& node,
                     std::map<std::string, double>* self_ns,
                     double* sort_runs, double* sort_merges) {
  const std::string& label = node.label();
  const char* metric = label.rfind("scan(", 0) == 0   ? "storage.scan"
                       : label.rfind("sort(", 0) == 0 ? "exec.sort"
                                                      : "division.merge";
  (*self_ns)[metric] += static_cast<double>(node.self_ns());
  for (const auto& [key, value] : node.metrics().gauges) {
    if (key == metric_names::kGaugeInitialRuns) *sort_runs += value;
    if (key == metric_names::kGaugeIntermediateMerges) *sort_merges += value;
  }
  for (const MetricsNode* child : node.children()) {
    AddNaiveProfile(*child, self_ns, sort_runs, sort_merges);
  }
}

void RunDivideWorkload(const std::string& workload, bool smoke,
                       uint64_t seed, double seconds, bool trace,
                       const std::string& trace_file, HostProbe* probe,
                       Report* report) {
  const DivideSpec spec = DivideSpecFor(workload, smoke);
  const DivisionOptions options = DivideOptions(spec);
  const auto set_up = [&] { return SetUpDivide(spec, seed); };
  std::vector<double> setup_s;
  LoadedDivide loaded;
  if (!RepeatSetUp(set_up, &loaded, probe, &setup_s, report)) return;

  // The first query's quotient (in emission order) and cost are what every
  // later query, traced or not, must reproduce exactly.
  std::vector<Tuple> reference;
  QueryCost reference_cost;
  bool have_reference = false;
  uint64_t reloads = 0;

  // One untraced query; returns its wall time, or 0 after a failure.
  const auto run_query = [&]() -> uint64_t {
    report->attempted++;
    if (loaded.db->disk()->num_sectors() >
        loaded.loaded_sectors + kMaxDiskGrowthSectors) {
      // Sorts leave their runs on the simulated disk, which never reuses
      // sectors; an untimed reload keeps the process small.
      loaded = LoadedDivide{};
      Result<LoadedDivide> fresh = set_up();
      if (!fresh.ok()) {
        report->failed++;
        report->Fail(fresh.status(), "reload");
        return 0;
      }
      loaded = fresh.MoveValue();
      reloads++;
    }
    Database* db = loaded.db.get();
    Status cold = StartCold(db);
    if (!cold.ok()) {
      report->failed++;
      report->Fail(cold, "cold start");
      return 0;
    }
    const QueryCost before = CostSnapshot(db);
    const uint64_t t0 = NowNs();
    Result<std::vector<Tuple>> result =
        Divide(db->ctx(), loaded.query, spec.algorithm, options);
    const uint64_t t1 = NowNs();
    const QueryCost cost = CostSince(db, before);
    if (!result.ok()) {
      report->failed++;
      report->Fail(result.status(), "Divide");
      return 0;
    }
    if (!report->Check(result->size() == loaded.expected.size(),
                       "quotient size " + std::to_string(result->size()) +
                           " != expected " +
                           std::to_string(loaded.expected.size()))) {
      return 0;
    }
    if (!have_reference) {
      std::vector<Tuple> sorted = *result;
      std::sort(sorted.begin(), sorted.end());
      report->Check(sorted == loaded.expected,
                    "quotient content differs from the expected quotient");
      reference = result.MoveValue();
      reference_cost = cost;
      have_reference = true;
    } else if (!report->Check(cost == reference_cost,
                              "Table 1, disk or buffer counts differ "
                              "between queries")) {
      return 0;
    }
    return t1 - t0;
  };

  for (int i = 0; i < kWarmupQueries; ++i) run_query();

  std::vector<double> latency_ms;  // raw
  std::vector<double> probe_ms;    // untraced: one before and after each query
  std::vector<double> traced_ms;
  SpanRecorder rec;
  std::map<std::string, double> self_ns;
  double sort_runs = 0;
  double sort_merges = 0;
  double busy_us = 0;
  double steals = 0;
  if (trace) MetricRegistry::Global().ResetAllForTest();

  const uint64_t start = NowNs();
  if (!trace) probe_ms.push_back(probe->RunMs());
  while (latency_ms.empty() || Seconds(NowNs() - start) < seconds) {
    if (trace) Telemetry::SetMode(TelemetryMode::kCounting);
    const uint64_t ns = run_query();
    if (ns == 0) break;
    latency_ms.push_back(Millis(ns));
    if (!trace) {
      probe_ms.push_back(probe->RunMs());
      continue;
    }

    // The traced twin of the query just run.
    Telemetry::SetMode(TelemetryMode::kSampling);
    report->attempted++;
    Database* db = loaded.db.get();
    Status status = StartCold(db);
    const QueryCost before = CostSnapshot(db);
    const uint64_t busy_before =
        RegistryHistogram(metric_names::kSchedBusyMicros)->sum();
    const uint64_t steals_before =
        RegistryCounter(metric_names::kSchedStealsTotal)->value();
    std::vector<Tuple> quotient;
    rec.BeginOp(traced_ms.size());
    const size_t root = rec.Begin("query", "");
    if (status.ok()) {
      status = spec.algorithm == DivisionAlgorithm::kNaive
                   ? ProfiledDivide(loaded, spec, &quotient)
                   : RebuiltHashDivision(loaded, spec, &rec, &quotient);
    }
    rec.End(root);
    const QueryCost cost = CostSince(db, before);
    if (!status.ok()) {
      report->failed++;
      report->Fail(status, "traced query");
      break;
    }
    if (!report->Check(quotient == reference,
                       "traced query's quotient differs from Divide's") ||
        !report->Check(cost == reference_cost,
                       "traced query's counts differ from Divide's")) {
      break;
    }
    busy_us += static_cast<double>(
        RegistryHistogram(metric_names::kSchedBusyMicros)->sum() - busy_before);
    steals += static_cast<double>(
        RegistryCounter(metric_names::kSchedStealsTotal)->value() -
        steals_before);
    if (spec.algorithm == DivisionAlgorithm::kNaive) {
      sort_runs = 0;
      sort_merges = 0;
      for (const MetricsNode* node : db->ctx()->profile()->roots()) {
        AddNaiveProfile(*node, &self_ns, &sort_runs, &sort_merges);
      }
    }
    traced_ms.push_back(Millis(rec.Duration(root)));
  }
  CheckThreads(report);
  Database* db = loaded.db.get();
  report->Check(db->buffer_manager()->FlushAll().ok() &&
                    db->buffer_manager()->DropAll().ok() &&
                    db->pool()->used() == 0,
                "memory pool not empty after the last query");
  report->Info("reloads", static_cast<double>(reloads));
  report->Info("queries", static_cast<double>(latency_ms.size()));
  // Per-query counts, identical for every query of a run (checked above).
  const QueryCost& c = reference_cost;
  report->Info("comparisons", static_cast<double>(c.cpu.comparisons));
  report->Info("hashes", static_cast<double>(c.cpu.hashes));
  report->Info("moves", static_cast<double>(c.cpu.moves));
  report->Info("bit_ops", static_cast<double>(c.cpu.bit_ops));
  report->Info("disk_kb", static_cast<double>(c.disk.sectors_transferred));
  report->Info("disk_transfers", static_cast<double>(c.disk.transfers));
  report->Info("seeks", static_cast<double>(c.disk.seeks));
  report->Info("buffer_fixes", static_cast<double>(c.buffer.fixes));
  report->Info("buffer_hits", static_cast<double>(c.buffer.hits));
  report->Info("buffer_evictions", static_cast<double>(c.buffer.evictions));

  if (!trace) {
    const size_t n = latency_ms.size();
    std::vector<double> ref_ms;  // latency_ms at reference speed
    double total_ms = 0;
    for (size_t i = 0; i < n; ++i) {
      ref_ms.push_back(
          AtReferenceSpeed(latency_ms[i], probe_ms[i], probe_ms[i + 1]));
      total_ms += ref_ms.back();
    }
    report->Add("setup_s", Percentile(setup_s, 50), setup_s.size());
    report->Add("ops_per_s", 1000.0 * static_cast<double>(n) / total_ms, n);
    report->Add("latency_ms_p50", Percentile(ref_ms, 50), n);
    report->Add("latency_ms_tail", Percentile(ref_ms, spec.tail_percentile),
                n);
    report->Add("peak_rss_mb", PeakRssMb(), 1);
    report->Info("tail_percentile", spec.tail_percentile);
    report->Info("raw_latency_ms_p50", Percentile(latency_ms, 50));
    report->Info("probe_ms_p50", Percentile(probe_ms, 50));
    return;
  }
  LayerValues layers;
  double root_ns = 0;
  rec.SelfTimes(&self_ns, &root_ns);
  layers.AddShares(self_ns, root_ns);
  layers.Set("exec.sort_runs", sort_runs);
  layers.Set("exec.sort_merges", sort_merges);
  const auto fragments = self_ns.find("exec.fragments");
  if (fragments != self_ns.end() && fragments->second > 0) {
    layers.Set("exec.lane_busy_frac",
               busy_us * 1e3 / (static_cast<double>(spec.dop) *
                                fragments->second));
  }
  const double traced = static_cast<double>(traced_ms.size());
  layers.Set("exec.steals", traced > 0 ? steals / traced : 0);
  layers.Set("storage.disk_kb",
             static_cast<double>(c.disk.sectors_transferred));
  layers.Set("storage.disk_reads", static_cast<double>(c.disk.read_transfers));
  layers.Set("storage.disk_writes",
             static_cast<double>(c.disk.write_transfers));
  layers.Set("storage.seeks", static_cast<double>(c.disk.seeks));
  layers.Set("storage.buffer_fixes", static_cast<double>(c.buffer.fixes));
  layers.Set("storage.buffer_hit_ratio",
             c.buffer.fixes > 0 ? static_cast<double>(c.buffer.hits) /
                                      static_cast<double>(c.buffer.fixes)
                                : 0);
  layers.Set("storage.buffer_evictions",
             static_cast<double>(c.buffer.evictions));
  layers.Set("storage.pool_high_water_mb", PoolHighWaterMb());
  layers.Set("division.comparisons", static_cast<double>(c.cpu.comparisons));
  layers.Set("division.hashes", static_cast<double>(c.cpu.hashes));
  layers.Set("division.moves", static_cast<double>(c.cpu.moves));
  layers.Set("division.bit_ops", static_cast<double>(c.cpu.bit_ops));
  layers.SetOverhead(Percentile(latency_ms, 50), Percentile(traced_ms, 50));
  layers.Emit(report, traced_ms.size());
  report->Check(rec.WriteChromeTrace(trace_file),
                "cannot write trace file " + trace_file);
}

// ---------------------------------------------------------------------------
// service_mix: a closed loop of 6 clients against DivisionService.

constexpr size_t kClients = 6;
constexpr size_t kMaxConcurrent = 3;
// Each client's operations come in shuffled blocks of 20 with exactly 17
// cached reads, 2 cold (bypass_cache) reads and 1 write: the 85/10/5 mix,
// with no run-to-run drift in how many expensive operations a client draws.
constexpr int kHitsPerBlock = 17;
constexpr int kColdsPerBlock = 2;
constexpr int kWritesPerBlock = 1;
// A run is a series of phases of this length (or a quarter of the run, if
// shorter). At the end of a phase no operation starts until every client is
// idle; then the host probe runs and the next phase starts. A traced run
// alternates untraced and traced phases.
constexpr uint64_t kPhaseNs = 1000000000;

/// Order-independent digest of a quotient's ids: equal multisets of ids
/// give equal digests, and any other difference changes the digest with
/// overwhelming probability. Cheap enough to check every read.
struct QuotientDigest {
  size_t size = 0;
  uint64_t sum = 0;
  uint64_t mixed = 0;  // sum of a 64-bit mix of each id

  bool operator==(const QuotientDigest&) const = default;
};

QuotientDigest DigestOf(const std::vector<Tuple>& quotient) {
  QuotientDigest digest;
  for (const Tuple& t : quotient) {
    uint64_t x = static_cast<uint64_t>(t.value(0).int64());
    digest.sum += x;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;  // splitmix64 finalizer
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    digest.mixed += x ^ (x >> 31);
  }
  digest.size = quotient.size();
  return digest;
}

struct ServiceTenant {
  std::string name;
  std::string dividend_table;
  DivisionQuery query;
  QuotientDigest expected;
  std::deque<int64_t> fresh;  // inserted partial candidates, oldest first
  int64_t next_fresh = 0;
  bool insert_next = true;
};

struct LoadedService {
  std::unique_ptr<Database> db;
  std::unique_ptr<DivisionService> service;  // destroyed before db
  std::vector<ServiceTenant> tenants;
};

QueryRequest ReadRequest(const ServiceTenant& tenant, bool cold) {
  QueryRequest request;
  request.query = tenant.query;
  request.bypass_cache = cold;
  return request;
}

/// Database, tables and service, with the quotient cache warmed by one
/// cached read per tenant.
Result<LoadedService> SetUpService(bool smoke, uint64_t seed) {
  // Two small and two large tenants, each with its own table pair.
  using Cell = std::pair<uint64_t, uint64_t>;  // (|S|, |Q|)
  const Cell small = smoke ? Cell{5, 50} : Cell{20, 500};
  const Cell large = smoke ? Cell{10, 100} : Cell{50, 4000};
  const Cell cells[4] = {small, small, large, large};
  LoadedService loaded;
  RELDIV_ASSIGN_OR_RETURN(loaded.db, Database::Open(DatabaseOptions{}));
  for (size_t i = 0; i < 4; ++i) {
    WorkloadSpec spec = PaperCell(cells[i].first, cells[i].second);
    spec.seed = seed * 4 + i;
    GeneratedWorkload workload = GenerateWorkload(spec);
    ServiceTenant tenant;
    tenant.name = "tenant" + std::to_string(i);
    tenant.dividend_table = tenant.name + "_dividend";
    Relation dividend;
    Relation divisor;
    RELDIV_RETURN_NOT_OK(LoadWorkload(loaded.db.get(), workload, tenant.name,
                                      &dividend, &divisor));
    tenant.query = DivisionQuery{dividend, divisor, {"divisor_id"}};
    tenant.expected = DigestOf(workload.expected_quotient);
    tenant.next_fresh = static_cast<int64_t>(cells[i].second);
    loaded.tenants.push_back(std::move(tenant));
  }
  RELDIV_RETURN_NOT_OK(loaded.db->buffer_manager()->FlushAll());

  ServiceOptions options;
  options.max_concurrent = kMaxConcurrent;
  loaded.service = std::make_unique<DivisionService>(loaded.db.get(), options);
  std::vector<std::shared_ptr<QueryTicket>> warm;
  for (const ServiceTenant& tenant : loaded.tenants) {
    loaded.service->RegisterTenant(tenant.name, TenantOptions{});
    RELDIV_ASSIGN_OR_RETURN(
        std::shared_ptr<QueryTicket> ticket,
        loaded.service->Submit(tenant.name, ReadRequest(tenant, false)));
    warm.push_back(std::move(ticket));
  }
  RELDIV_RETURN_NOT_OK(loaded.service->RunUntilIdle());
  for (size_t i = 0; i < warm.size(); ++i) {
    RELDIV_RETURN_NOT_OK(warm[i]->status());
    if (DigestOf(warm[i]->quotient()) != loaded.tenants[i].expected) {
      return Status::Internal("cache warm-up returned a wrong quotient");
    }
  }
  return loaded;
}

/// One write: inserts a fresh partial candidate (one dividend tuple, so it
/// never joins the quotient) or deletes the oldest such candidate again.
struct PendingWrite {
  const std::string* table;
  bool insert;
  int64_t qid;
  uint64_t apply_start_ns = 0;
  uint64_t apply_end_ns = 0;
  Status status;
  std::atomic<bool> done{false};
};

/// The dispatcher thread: drains the service with RunUntilIdle and applies
/// queued writes between drains. Database::Insert is not safe against
/// concurrent scans, and queries only run inside RunUntilIdle on this
/// thread, so no write ever overlaps a query.
class Dispatcher {
 public:
  Dispatcher(Database* db, DivisionService* service)
      : db_(db), service_(service), thread_([this] { Run(); }) {}
  ~Dispatcher() { Join(); }
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  void Enqueue(PendingWrite* write) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(write);
  }
  /// Drains what is queued, then joins the thread. Returns the first
  /// RunUntilIdle failure.
  Status Stop() {
    Join();
    return status_;
  }

 private:
  void Join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void Run() {
    bool stopping = false;
    while (!stopping) {
      stopping = stop_.load();
      std::vector<PendingWrite*> writes;
      {
        std::lock_guard<std::mutex> lock(mu_);
        writes.swap(queue_);
      }
      for (PendingWrite* write : writes) Apply(write);
      Status drained = service_->RunUntilIdle();
      if (!drained.ok() && status_.ok()) status_ = drained;
      if (writes.empty()) std::this_thread::yield();
    }
  }

  void Apply(PendingWrite* write) {
    write->apply_start_ns = NowNs();
    if (write->insert) {
      write->status = db_->Insert(
          *write->table, Tuple{Value::Int64(write->qid), Value::Int64(0)});
    } else {
      const int64_t qid = write->qid;
      Result<uint64_t> deleted = db_->DeleteWhere(
          *write->table,
          [qid](const Tuple& t) { return t.value(0).int64() == qid; });
      write->status = !deleted.ok() ? deleted.status()
                      : *deleted == 1
                          ? Status::OK()
                          : Status::Internal("deleted " +
                                             std::to_string(*deleted) +
                                             " rows, expected 1");
    }
    write->apply_end_ns = NowNs();
    write->done.store(true, std::memory_order_release);
  }

  Database* db_;
  DivisionService* service_;
  std::mutex mu_;
  std::vector<PendingWrite*> queue_;
  std::atomic<bool> stop_{false};
  Status status_;  // written by the dispatcher thread, read after join
  std::thread thread_;  // last: starts after the members it uses
};

enum class OpKind { kHit, kCold, kWrite };

struct Client {
  Client(size_t tenant_index, uint64_t seed)
      : tenant(tenant_index), rng(seed) {}

  /// The next operation of this client's seeded sequence.
  OpKind NextKind() {
    if (next == block.size()) {
      block.assign(kHitsPerBlock, OpKind::kHit);
      block.insert(block.end(), kColdsPerBlock, OpKind::kCold);
      block.insert(block.end(), kWritesPerBlock, OpKind::kWrite);
      for (size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.Uniform(i)]);
      }
      next = 0;
    }
    return block[next++];
  }

  size_t tenant;
  Rng rng;
  std::vector<OpKind> block;
  size_t next = 0;
  bool busy = false;
  OpKind kind = OpKind::kHit;
  bool traced = false;
  uint64_t start_ns = 0;
  std::shared_ptr<QueryTicket> ticket;
  PendingWrite* write = nullptr;
};

void RunServiceWorkload(bool smoke, uint64_t seed, double seconds, bool trace,
                        const std::string& trace_file, HostProbe* probe,
                        Report* report) {
  std::vector<double> setup_s;
  LoadedService loaded;
  if (!RepeatSetUp([&] { return SetUpService(smoke, seed); }, &loaded, probe,
                   &setup_s, report)) {
    return;
  }
  Database* db = loaded.db.get();
  DivisionService* service = loaded.service.get();
  QuotientCache* cache = service->cache();
  if (trace) MetricRegistry::Global().ResetAllForTest();

  const uint64_t hits_before = cache->hits();
  const uint64_t misses_before = cache->misses();
  const uint64_t updates_before = cache->incremental_updates();
  const uint64_t rejects_before = service->admission_rejects();
  const uint64_t timeouts_before = service->grant_timeouts();
  const DiskStats disk_before = db->disk()->stats();
  const BufferStats buffer_before = db->buffer_manager()->stats();

  std::vector<Client> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(c % 4, seed * kClients + c);
  }
  const uint64_t phase_ns =
      std::min(kPhaseNs, static_cast<uint64_t>(seconds * 1e9 / 4));
  const size_t phases = static_cast<size_t>(
      std::max<long long>(1, std::llround(seconds * 1e9 / phase_ns)));

  std::deque<PendingWrite> writes;  // stable addresses for the dispatcher
  std::vector<double> read_ms[2];  // [untraced, traced]
  std::vector<std::vector<double>> phase_reads(phases);
  std::vector<double> phase_ms;  // wall time of each phase
  std::vector<double> probe_ms;  // before the first phase and after each
  std::vector<double> hit_ms;
  std::vector<double> cold_ms;
  std::vector<double> write_ms;
  SpanRecorder rec;
  uint64_t traced_ops = 0;
  uint64_t completed = 0;
  size_t writes_in_flight = 0;
  double traced_wall_ns = 0;

  probe_ms.push_back(probe->RunMs());
  for (size_t phase = 0; phase < phases; ++phase) {
    const bool traced_phase = trace && phase % 2 == 1;
    if (trace) {
      Telemetry::SetMode(traced_phase ? TelemetryMode::kSampling
                                      : TelemetryMode::kCounting);
    }
    // Each phase has its own dispatcher, so that between phases nothing but
    // the probe runs (an idle dispatcher spins on RunUntilIdle).
    Dispatcher dispatcher(db, service);
    const uint64_t phase_start = NowNs();
    const uint64_t phase_end = phase_start + phase_ns;
    while (true) {
      for (Client& c : clients) {
        if (!c.busy) continue;
        if (c.kind == OpKind::kWrite) {
          if (!c.write->done.load(std::memory_order_acquire)) continue;
          const PendingWrite& w = *c.write;
          writes_in_flight--;
          if (!w.status.ok()) {
            report->failed++;
          } else {
            write_ms.push_back(Millis(w.apply_end_ns - c.start_ns));
            if (c.traced) {
              // The drain and apply spans fill the write exactly.
              const uint64_t op = traced_ops++;
              const int64_t root = static_cast<int64_t>(
                  rec.Add("write", "", c.start_ns, w.apply_end_ns, -1, op));
              rec.Add("RunUntilIdle (drain before write)",
                      "service.write_drain", c.start_ns, w.apply_start_ns,
                      root, op);
              rec.Add(w.insert ? "Database::Insert" : "Database::DeleteWhere",
                      "service.write_apply", w.apply_start_ns, w.apply_end_ns,
                      root, op);
            }
          }
        } else {
          if (!c.ticket->done()) continue;
          const uint64_t end = NowNs();
          const QueryTicket& t = *c.ticket;
          if (!t.status().ok()) {
            report->failed++;
          } else {
            report->Check(t.cache_hit() == (c.kind == OpKind::kHit),
                          "a read was served from the wrong path");
            report->Check(DigestOf(t.quotient()) ==
                              loaded.tenants[c.tenant].expected,
                          "a read returned a wrong quotient");
            const double ms = Millis(end - c.start_ns);
            read_ms[c.traced ? 1 : 0].push_back(ms);
            phase_reads[phase].push_back(ms);
            (c.kind == OpKind::kHit ? hit_ms : cold_ms).push_back(ms);
            if (c.traced) {
              // The ticket's own queue wait and execution time split the read
              // into spans; they are not timed apart from it, so the read's
              // coverage is close to 1 by construction.
              const uint64_t op = traced_ops++;
              const uint64_t queued = c.start_ns + t.queue_wait_us() * 1000;
              const int64_t root = static_cast<int64_t>(
                  rec.Add("read", "", c.start_ns, end, -1, op));
              rec.Add("QueryTicket::queue_wait_us", "service.queue_wait",
                      c.start_ns, queued, root, op);
              rec.Add("QueryTicket::exec_us",
                      t.cache_hit() ? "service.hit_exec" : "service.cold_exec",
                      queued, queued + t.exec_us() * 1000, root, op);
            }
          }
          c.ticket.reset();
        }
        c.busy = false;
        completed++;
      }

      const bool issuing = NowNs() < phase_end;
      // A queued write pauses new submissions until it lands, so the
      // dispatcher's drain ends and the write can be applied.
      for (Client& c : clients) {
        if (!issuing || writes_in_flight > 0) break;
        if (c.busy) continue;
        c.kind = c.NextKind();
        c.traced = traced_phase;
        c.start_ns = NowNs();
        report->attempted++;
        ServiceTenant& tenant = loaded.tenants[c.tenant];
        if (c.kind == OpKind::kWrite) {
          PendingWrite& w = writes.emplace_back();
          w.table = &tenant.dividend_table;
          w.insert = tenant.insert_next;
          if (w.insert) {
            w.qid = tenant.next_fresh++;
            tenant.fresh.push_back(w.qid);
          } else {
            w.qid = tenant.fresh.front();
            tenant.fresh.pop_front();
          }
          tenant.insert_next = !tenant.insert_next;
          c.write = &w;
          c.busy = true;
          writes_in_flight++;
          dispatcher.Enqueue(&w);
          continue;
        }
        Result<std::shared_ptr<QueryTicket>> ticket = service->Submit(
            tenant.name, ReadRequest(tenant, c.kind == OpKind::kCold));
        if (!ticket.ok()) {
          report->failed++;
          continue;
        }
        c.ticket = ticket.MoveValue();
        c.busy = true;
      }
      bool busy = false;
      for (const Client& c : clients) busy |= c.busy;
      if (!issuing && !busy) break;
      std::this_thread::yield();
    }
    const uint64_t phase_wall_ns = NowNs() - phase_start;
    phase_ms.push_back(Millis(phase_wall_ns));
    if (traced_phase) traced_wall_ns += static_cast<double>(phase_wall_ns);
    if (phase + 1 == phases) CheckThreads(report);  // all threads alive
    Status dispatched = dispatcher.Stop();
    if (!dispatched.ok()) report->Fail(dispatched, "RunUntilIdle");
    probe_ms.push_back(probe->RunMs());
  }
  if (trace) Telemetry::SetMode(TelemetryMode::kCounting);
  const DiskStats disk = db->disk()->stats() - disk_before;
  const BufferStats buffer = db->buffer_manager()->stats();

  report->Check(cache->invalidations() == 0,
                "the quotient cache was invalidated " +
                    std::to_string(cache->invalidations()) + " times");
  report->Check(db->buffer_manager()->FlushAll().ok() &&
                    db->buffer_manager()->DropAll().ok() &&
                    db->pool()->used() == 0,
                "memory pool not empty after the drain (leaked grant)");
  std::vector<double> reads = read_ms[0];
  reads.insert(reads.end(), read_ms[1].begin(), read_ms[1].end());
  const double ops = static_cast<double>(completed);
  if (!trace) {
    // Each phase's reads and wall time at reference speed, scaled by the
    // probes just before and after the phase.
    std::vector<double> ref_reads;
    double ref_ms = 0;
    for (size_t i = 0; i < phases; ++i) {
      for (double ms : phase_reads[i]) {
        ref_reads.push_back(AtReferenceSpeed(ms, probe_ms[i], probe_ms[i + 1]));
      }
      ref_ms += AtReferenceSpeed(phase_ms[i], probe_ms[i], probe_ms[i + 1]);
    }
    report->Add("setup_s", Percentile(setup_s, 50), setup_s.size());
    report->Add("ops_per_s", 1000.0 * ops / ref_ms, completed);
    report->Add("latency_ms_p50", Percentile(ref_reads, 50), ref_reads.size());
    report->Add("latency_ms_tail", Percentile(ref_reads, kServiceTail),
                ref_reads.size());
    report->Add("peak_rss_mb", PeakRssMb(), 1);
    report->Info("tail_percentile", kServiceTail);
    report->Info("raw_latency_ms_p50", Percentile(reads, 50));
    report->Info("probe_ms_p50", Percentile(probe_ms, 50));
  } else {
    LayerValues layers;
    std::map<std::string, double> self_ns;
    double root_ns = 0;
    rec.SelfTimes(&self_ns, &root_ns);
    layers.AddShares(self_ns, root_ns);
    const double hits = static_cast<double>(cache->hits() - hits_before);
    const double misses = static_cast<double>(cache->misses() - misses_before);
    layers.Set("service.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0);
    layers.Set("service.cache_incremental_updates",
               static_cast<double>(cache->incremental_updates() -
                                   updates_before) /
                   ops);
    layers.Set("service.cache_invalidations",
               static_cast<double>(cache->invalidations()) / ops);
    const double grant_waits = static_cast<double>(
        RegistryCounter(metric_names::kMemGrantWaitsTotal)->value());
    layers.Set("service.grant_waits", grant_waits / ops);
    layers.Set("service.admission_rejects",
               static_cast<double>(service->admission_rejects() -
                                   rejects_before) /
                   ops);
    layers.Set("service.grant_timeouts",
               static_cast<double>(service->grant_timeouts() -
                                   timeouts_before) /
                   ops);
    const double fixes =
        static_cast<double>(buffer.fixes - buffer_before.fixes);
    layers.Set("storage.disk_kb",
               static_cast<double>(disk.sectors_transferred) / ops);
    layers.Set("storage.disk_reads",
               static_cast<double>(disk.read_transfers) / ops);
    layers.Set("storage.disk_writes",
               static_cast<double>(disk.write_transfers) / ops);
    layers.Set("storage.seeks", static_cast<double>(disk.seeks) / ops);
    layers.Set("storage.buffer_fixes", fixes / ops);
    layers.Set("storage.buffer_hit_ratio",
               fixes > 0 ? static_cast<double>(buffer.hits -
                                               buffer_before.hits) /
                               fixes
                         : 0);
    layers.Set("storage.buffer_evictions",
               static_cast<double>(buffer.evictions -
                                   buffer_before.evictions) /
                   ops);
    layers.Set("storage.pool_high_water_mb", PoolHighWaterMb());
    layers.Set("exec.steals",
               static_cast<double>(
                   RegistryCounter(metric_names::kSchedStealsTotal)->value()) /
                   ops);
    layers.Set(
        "exec.lane_busy_frac",
        traced_wall_ns > 0
            ? static_cast<double>(
                  RegistryHistogram(metric_names::kSchedBusyMicros)->sum()) *
                  1e3 / (kMaxConcurrent * traced_wall_ns)
            : 0);
    layers.SetOverhead(Percentile(read_ms[0], 50), Percentile(read_ms[1], 50));
    layers.Emit(report, traced_ops);
    report->Check(rec.WriteChromeTrace(trace_file),
                  "cannot write trace file " + trace_file);
  }
  report->Info("reads", static_cast<double>(reads.size()));
  report->Info("read_ms_p50", Percentile(reads, 50));
  report->Info("read_ms_p99", Percentile(reads, 99));
  report->Info("hits", static_cast<double>(hit_ms.size()));
  report->Info("hit_ms_p99", Percentile(hit_ms, 99));
  report->Info("colds", static_cast<double>(cold_ms.size()));
  report->Info("cold_ms_p99", Percentile(cold_ms, 99));
  report->Info("writes", static_cast<double>(write_ms.size()));
  report->Info("write_ms_p95", Percentile(write_ms, 95));
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 0;  // required: run.py passes run_seconds of BENCHMARK.json
  bool trace = false;
  bool smoke = false;
  std::string trace_file = "reldiv_e2e_trace.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) != "0";
    } else if (arg == "--trace-file" && has_value) {
      trace_file = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  Report report;
  const bool divide = workload == "hashdiv_cold" ||
                      workload == "hashdiv_dop3" || workload == "naive_spill";
  if (!(seconds > 0) || (!divide && workload != "service_mix")) {
    std::fprintf(stderr,
                 "usage: reldiv_e2e --workload hashdiv_cold|hashdiv_dop3|"
                 "naive_spill|service_mix --seconds S [--seed N] "
                 "[--trace 0|1] [--smoke] [--trace-file PATH]\n");
    return 2;
  }
  HostProbe probe(divide ? ProbeShape::kHashTable : ProbeShape::kSort);
  if (divide) {
    RunDivideWorkload(workload, smoke, seed, seconds, trace, trace_file,
                      &probe, &report);
  } else {
    RunServiceWorkload(smoke, seed, seconds, trace, trace_file, &probe,
                       &report);
  }
  std::printf("%s\n", report.ToJson(workload, seed, trace).c_str());
  return 0;
}

}  // namespace
}  // namespace reldiv::e2e

int main(int argc, char** argv) { return reldiv::e2e::Main(argc, argv); }
