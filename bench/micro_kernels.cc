// Google-benchmark microbenchmarks of the kernels the four algorithms are
// built from: bit map operations (word-at-a-time, §3.3 point 4), the
// batched probe hash of exec/kernels, chained hash table insert/probe,
// external sort, and the hash-division core itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/bitmap.h"
#include "common/counters.h"
#include "common/rng.h"
#include "division/hash_division.h"
#include "exec/database.h"
#include "exec/hash_table.h"
#include "exec/kernels/kernels.h"
#include "exec/mem_source.h"
#include "exec/sort.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

void BM_BitmapSet(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Bitmap bm(bits);
  size_t i = 0;
  for (auto _ : state) {
    bm.Set(i);
    i = (i + 61) % bits;  // stride over the map
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapSet)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_BitmapAllSetScan(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Bitmap bm(bits);
  for (size_t i = 0; i < bits; ++i) bm.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.AllSet());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(Bitmap::BytesForBits(bits)));
}
BENCHMARK(BM_BitmapAllSetScan)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_BitmapClearAll(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Bitmap bm(bits);
  for (auto _ : state) {
    bm.ClearAll();
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(Bitmap::BytesForBits(bits)));
}
BENCHMARK(BM_BitmapClearAll)->Arg(4096)->Arg(1 << 20);

// --- exec/kernels -----------------------------------------------------------
//
// The batched probe hash the division operators call, timed on a flat array
// independent of the operators around it.

constexpr size_t kKernelElements = size_t{1} << 20;

std::vector<int64_t> RandomKeys() {
  Rng rng(3);
  std::vector<int64_t> keys(kKernelElements);
  for (int64_t& k : keys) k = static_cast<int64_t>(rng.Next());
  return keys;
}

void BM_KernelHashInt64Keys(benchmark::State& state) {
  const std::vector<int64_t> keys = RandomKeys();
  std::vector<uint64_t> hashes(keys.size());
  for (auto _ : state) {
    kernels::HashInt64Keys(keys.data(), keys.size(), hashes.data());
    benchmark::DoNotOptimize(hashes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_KernelHashInt64Keys);

struct HashTableFixture {
  HashTableFixture() : db(Database::Open([] {
                            DatabaseOptions o;
                            o.pool_bytes = 0;
                            return o;
                          }())
                              .MoveValue()) {}
  std::unique_ptr<Database> db;
};

void BM_HashTableInsert(benchmark::State& state) {
  HashTableFixture fixture;
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    Arena arena(nullptr);
    TupleHashTable table(fixture.db->ctx(), &arena, {0},
                         TupleHashTable::BucketsFor(
                             static_cast<uint64_t>(n)));
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      auto entry = table.Insert(Tuple{Value::Int64(i), Value::Int64(i)});
      benchmark::DoNotOptimize(entry.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashTableInsert)->Arg(1000)->Arg(100000);

void BM_HashTableProbe(benchmark::State& state) {
  HashTableFixture fixture;
  const int64_t n = state.range(0);
  Arena arena(nullptr);
  TupleHashTable table(fixture.db->ctx(), &arena, {0},
                       TupleHashTable::BucketsFor(static_cast<uint64_t>(n)));
  for (int64_t i = 0; i < n; ++i) {
    auto entry = table.Insert(Tuple{Value::Int64(i), Value::Int64(i)});
    (void)entry;
  }
  // The probe tuples are drawn before timing starts, so the loop times the
  // probe alone, not a tuple allocation and a random draw; about half of
  // them miss.
  constexpr size_t kProbes = 1 << 14;
  std::vector<Tuple> probes;
  probes.reserve(kProbes);
  Rng rng(1);
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(Tuple{Value::Int64(rng.UniformInt(0, 2 * n))});
  }
  const std::vector<size_t> key{0};
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(probes[next], key));
    next = (next + 1) & (kProbes - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableProbe)->Arg(1000)->Arg(100000);

/// External sort of n (a, b) tuples at a 32 KB sort space (fan-in 32).
/// Arg 1 picks the shape. 0: random a, sorted on {0}. 1: naive division's
/// dividend sort, a shuffled product of n / 100 quotient ids and 100
/// divisor ids sorted on {0, 1} with duplicate collapse; at n = 60000 that
/// is about 100 runs, so intermediate merges run and merging dominates.
void BM_ExternalSort(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool naive_shape = state.range(1) == 1;
  Rng rng(2);
  Schema schema{Field{"a", ValueType::kInt64}, Field{"b", ValueType::kInt64}};
  std::vector<Tuple> input;
  input.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    input.push_back(naive_shape
                        ? Tuple{Value::Int64(i / 100), Value::Int64(i % 100)}
                        : Tuple{Value::Int64(rng.UniformInt(0, 1 << 30)),
                                Value::Int64(i)});
  }
  if (naive_shape) {
    for (size_t i = input.size(); i > 1; --i) {
      std::swap(input[i - 1], input[rng.Uniform(i)]);
    }
  }
  for (auto _ : state) {
    DatabaseOptions options;
    options.pool_bytes = 0;
    options.sort_space_bytes = 32 * 1024;  // force the external path
    auto db = Database::Open(options).MoveValue();
    SortSpec spec;
    spec.keys = naive_shape ? std::vector<size_t>{0, 1}
                            : std::vector<size_t>{0};
    spec.collapse_equal_keys = naive_shape;
    SortOperator sorter(db->ctx(),
                        std::make_unique<MemSourceOperator>(schema, input),
                        spec);
    auto out = CollectAll(&sorter);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSort)
    ->Args({10000, 0})
    ->Args({50000, 0})
    ->Args({60000, 1});

void BM_HashDivisionEndToEnd(benchmark::State& state) {
  const uint64_t s = static_cast<uint64_t>(state.range(0));
  const uint64_t q = static_cast<uint64_t>(state.range(1));
  GeneratedWorkload workload = GenerateWorkload(PaperCell(s, q));
  for (auto _ : state) {
    DatabaseOptions options;
    options.pool_bytes = 0;
    auto db = Database::Open(options).MoveValue();
    DivisionOptions div_options;
    div_options.expected_divisor_cardinality = s;
    div_options.expected_quotient_cardinality = q;
    HashDivisionOperator op(
        db->ctx(),
        std::make_unique<MemSourceOperator>(workload.dividend_schema,
                                            workload.dividend),
        std::make_unique<MemSourceOperator>(workload.divisor_schema,
                                            workload.divisor),
        {1}, {0}, div_options);
    auto out = CollectAll(&op);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.dividend.size()));
}
BENCHMARK(BM_HashDivisionEndToEnd)
    ->Args({25, 25})
    ->Args({100, 100})
    ->Args({400, 400});

/// Console output as usual, plus one BenchRow per benchmark so the
/// microbenchmarks land in the same BENCH_<name>.json schema as the
/// experiment binaries. Each repetition (--benchmark_repetitions) adds one
/// adjusted real ns/iteration sample to its benchmark's row, so the row's
/// median and p90 are taken over the repetitions; google-benchmark's own
/// aggregate runs are left to the console.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonFileReporter(bench::BenchReporter* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      const std::string name = run.benchmark_name();
      if (samples_.empty() || samples_.back().name != name) {
        samples_.emplace_back();
        samples_.back().name = name;
      }
      Samples& samples = samples_.back();
      samples.wall_ns.push_back(run.GetAdjustedRealTime());
      samples.iterations = static_cast<double>(run.iterations);
      for (const char* counter : {"items_per_second", "bytes_per_second"}) {
        if (run.counters.find(counter) != run.counters.end()) {
          samples.rates[counter].push_back(run.counters.at(counter));
        }
      }
    }
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    for (const Samples& samples : samples_) {
      bench::BenchRow* row = report_->AddRow(samples.name);
      row->wall_ns = samples.wall_ns;
      row->AddValue("iterations", samples.iterations);
      for (const auto& [counter, values] : samples.rates) {
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        row->AddValue(counter, sorted[sorted.size() / 2]);
      }
    }
  }

 private:
  /// The repetitions of one benchmark, which google-benchmark reports
  /// consecutively.
  struct Samples {
    std::string name;
    std::vector<double> wall_ns;
    double iterations = 0;
    std::map<std::string, std::vector<double>> rates;
  };

  bench::BenchReporter* report_;
  std::vector<Samples> samples_;
};

}  // namespace
}  // namespace reldiv

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  reldiv::bench::BenchReporter report("micro_kernels");
  reldiv::JsonFileReporter console(&report);
  benchmark::RunSpecifiedBenchmarks(&console);
  return report.WriteFile() ? 0 : 1;
}
