/// Tests for the process-wide telemetry layer (DESIGN.md §14): log-linear
/// histograms (exact percentile bounds at bucket edges, concurrent
/// recording, snapshot-merge associativity, zero-allocation on the record
/// path), the MetricRegistry and its exporters, and the event log: the
/// flight ring and its check-failure dump hook, and a trace's drop
/// accounting.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/metric_names.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

// ---- Zero-allocation proof: count every route into the global heap. The
// record path promises "no locks, no allocation"; the histogram tests below
// bracket Record() calls with this counter. ----

std::atomic<uint64_t> g_heap_allocs{0};

uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

}  // namespace
}  // namespace reldiv

void* operator new(std::size_t size) {
  reldiv::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  reldiv::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// GCC pairs these frees against the library operator new it can still see;
// with the replacement news above (malloc-backed) they do match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace reldiv {
namespace {

// ---- Histogram bucketing ----

TEST(HistogramBucketTest, ValuesBelowSixtyFourAreExact) {
  for (uint64_t v = 0; v < 64; ++v) {
    const size_t index = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(index), v);
    EXPECT_EQ(Histogram::BucketUpperBound(index), v);
  }
}

TEST(HistogramBucketTest, BoundsBracketEveryProbedValue) {
  // Probe octave edges and mid-octave values across the full range.
  std::vector<uint64_t> probes;
  for (int shift = 0; shift < 64; ++shift) {
    const uint64_t base = uint64_t{1} << shift;
    probes.push_back(base);
    probes.push_back(base + base / 3);
    probes.push_back(base + base - 1);  // 2^(shift+1) - 1
  }
  probes.push_back(~uint64_t{0});
  for (uint64_t v : probes) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << "value " << v;
    EXPECT_LE(Histogram::BucketLowerBound(index), v) << "value " << v;
    EXPECT_GE(Histogram::BucketUpperBound(index), v) << "value " << v;
  }
}

TEST(HistogramBucketTest, BucketIndexIsMonotoneAcrossBucketEdges) {
  // Walking bucket lower bounds must walk bucket indices 0,1,2,... — the
  // bucketing partitions the uint64 range without gaps or reordering.
  for (size_t index = 0; index + 1 < Histogram::kNumBuckets; ++index) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(index)),
              index);
    EXPECT_LT(Histogram::BucketUpperBound(index),
              Histogram::BucketLowerBound(index + 1));
  }
}

TEST(HistogramBucketTest, RelativeBucketWidthBoundedAboveLinearRange) {
  // Above the exact range, bucket width / lower bound <= 1/32.
  for (uint64_t v : {uint64_t{64}, uint64_t{1000}, uint64_t{123456789},
                     uint64_t{1} << 40, (uint64_t{1} << 50) + 12345}) {
    const size_t index = Histogram::BucketIndex(v);
    const uint64_t lo = Histogram::BucketLowerBound(index);
    const uint64_t hi = Histogram::BucketUpperBound(index);
    EXPECT_LE(hi - lo, lo / Histogram::kSubBuckets) << "value " << v;
  }
}

// ---- Percentiles ----

TEST(HistogramPercentileTest, ExactAtBucketEdgesBelowLinearRange) {
  Histogram h;
  // 1..50 inclusive, each once: every value sits in its own width-1 bucket,
  // so percentiles are exact order statistics.
  for (uint64_t v = 1; v <= 50; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.ValueAtPercentile(2.0), 1u);    // rank 1
  EXPECT_EQ(snap.ValueAtPercentile(50.0), 25u);  // rank 25
  EXPECT_EQ(snap.ValueAtPercentile(90.0), 45u);  // rank 45
  EXPECT_EQ(snap.ValueAtPercentile(100.0), 50u);
  // Percentiles strictly between two ranks round up to the next value.
  EXPECT_EQ(snap.ValueAtPercentile(51.0), 26u);  // rank ceil(25.5) = 26
}

TEST(HistogramPercentileTest, EmptySnapshotReportsZero) {
  Histogram h;
  EXPECT_EQ(h.Snapshot().ValueAtPercentile(50.0), 0u);
}

TEST(HistogramPercentileTest, LargeValuesWithinBucketResolution) {
  Histogram h;
  const uint64_t value = 1'000'000;
  for (int i = 0; i < 100; ++i) h.Record(value);
  const uint64_t p50 = h.Snapshot().ValueAtPercentile(50.0);
  // Reported as the bucket's inclusive upper bound: >= the recorded value,
  // within one bucket width (1/32 relative) above it.
  EXPECT_GE(p50, value);
  EXPECT_LE(p50, value + value / Histogram::kSubBuckets);
}

TEST(HistogramPercentileTest, SumCountMaxTrackRecords) {
  Histogram h;
  h.Record(3);
  h.Record(7);
  h.Record(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 110u);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 110u);
  EXPECT_EQ(snap.max, 100u);
}

// ---- Concurrency ----

TEST(HistogramConcurrencyTest, ConcurrentRecordsAllLand) {
  // TSan coverage for the lock-free record path at several widths; the
  // telemetry stage of tools/check_all.sh runs this suite under TSan.
  for (int threads : {1, 4, 8}) {
    Histogram h;
    constexpr uint64_t kPerThread = 20'000;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&h, t] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          h.Record(static_cast<uint64_t>(t) * 1000 + (i % 97));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const HistogramSnapshot snap = h.Snapshot();
    const uint64_t expected = kPerThread * static_cast<uint64_t>(threads);
    EXPECT_EQ(snap.count, expected) << threads << " threads";
    uint64_t bucket_total = 0;
    for (uint64_t b : snap.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, expected) << threads << " threads";
  }
}

TEST(HistogramConcurrencyTest, RecordPathDoesNotAllocate) {
  Histogram h;
  h.Record(1);  // warm anything one-time
  const uint64_t before = HeapAllocs();
  for (uint64_t i = 0; i < 10'000; ++i) h.Record(i * 37);
  EXPECT_EQ(HeapAllocs(), before);
}

TEST(TelemetryTest, CounterAndGaugeUpdatesDoNotAllocate) {
  TelemetryCounter* counter = MetricRegistry::Global().FindOrCreateCounter(
      metric_names::kSchedTasksTotal);
  TelemetryGauge* gauge = MetricRegistry::Global().FindOrCreateGauge(
      metric_names::kMemHighWaterBytes);
  const uint64_t before = HeapAllocs();
  for (uint64_t i = 0; i < 10'000; ++i) {
    counter->Add(1);
    gauge->UpdateMax(i);
  }
  EXPECT_EQ(HeapAllocs(), before);
}

// ---- Snapshot merge ----

TEST(HistogramMergeTest, MergeIsAssociativeAndCommutative) {
  Histogram ha, hb, hc;
  for (uint64_t v = 0; v < 500; ++v) ha.Record(v * 3);
  for (uint64_t v = 0; v < 300; ++v) hb.Record(v * 7 + 1);
  for (uint64_t v = 0; v < 100; ++v) hc.Record(v * 1000);
  const HistogramSnapshot a = ha.Snapshot();
  const HistogramSnapshot b = hb.Snapshot();
  const HistogramSnapshot c = hc.Snapshot();

  HistogramSnapshot left = a;   // (a + b) + c
  left.Merge(b).Merge(c);
  HistogramSnapshot bc = b;     // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot right = a;
  right.Merge(bc);
  HistogramSnapshot flipped = c;  // (c + b) + a
  flipped.Merge(b).Merge(a);

  for (const HistogramSnapshot* variant : {&right, &flipped}) {
    EXPECT_EQ(left.count, variant->count);
    EXPECT_EQ(left.sum, variant->sum);
    EXPECT_EQ(left.max, variant->max);
    EXPECT_EQ(left.buckets, variant->buckets);
  }
  EXPECT_EQ(left.count, a.count + b.count + c.count);
}

TEST(HistogramMergeTest, DefaultSnapshotIsMergeIdentity) {
  Histogram h;
  h.Record(42);
  h.Record(65);
  const HistogramSnapshot a = h.Snapshot();
  HistogramSnapshot merged;  // identity
  merged.Merge(a);
  EXPECT_EQ(merged.count, a.count);
  EXPECT_EQ(merged.sum, a.sum);
  EXPECT_EQ(merged.max, a.max);
  EXPECT_EQ(merged.buckets, a.buckets);
}

// ---- Mode gating ----

TEST(TelemetryTest, ModeGatesCountingAndSampling) {
  {
    ScopedTelemetryMode off(TelemetryMode::kOff);
    EXPECT_FALSE(Telemetry::counting());
    EXPECT_FALSE(Telemetry::sampling());
  }
  {
    ScopedTelemetryMode count(TelemetryMode::kCounting);
    EXPECT_TRUE(Telemetry::counting());
    EXPECT_FALSE(Telemetry::sampling());
  }
  {
    ScopedTelemetryMode sample(TelemetryMode::kSampling);
    EXPECT_TRUE(Telemetry::counting());
    EXPECT_TRUE(Telemetry::sampling());
  }
}

// ---- Registry ----

TEST(MetricRegistryTest, FindOrCreateReturnsStableIdentity) {
  MetricRegistry& registry = MetricRegistry::Global();
  TelemetryCounter* a =
      registry.FindOrCreateCounter(metric_names::kSchedStealsTotal);
  TelemetryCounter* b =
      registry.FindOrCreateCounter(metric_names::kSchedStealsTotal);
  EXPECT_EQ(a, b);
  TelemetryCounter* labelled = registry.FindOrCreateCounter(
      metric_names::kSchedTasksTotal, "lane", "0");
  TelemetryCounter* labelled2 = registry.FindOrCreateCounter(
      metric_names::kSchedTasksTotal, "lane", "1");
  EXPECT_NE(labelled, labelled2);
  EXPECT_EQ(labelled, registry.FindOrCreateCounter(
                          metric_names::kSchedTasksTotal, "lane", "0"));
}

TEST(MetricRegistryTest, PrometheusExportCarriesTypesAndLabels) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.FindOrCreateCounter(metric_names::kNetRetriesTotal, "node", "3")
      ->Add(5);
  registry.FindOrCreateGauge(metric_names::kMemHighWaterBytes)
      ->UpdateMax(4096);
  registry
      .FindOrCreateHistogram(metric_names::kMemGrantLatencyMicros)
      ->Record(17);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE reldiv_net_retries_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("reldiv_net_retries_total{node=\"3\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE reldiv_mem_high_water_bytes gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("reldiv_mem_grant_latency_us_bucket"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("reldiv_mem_grant_latency_us_count"), std::string::npos)
      << text;
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos) << text;
}

TEST(MetricRegistryTest, JsonExportIsSchemaV2) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.FindOrCreateCounter(metric_names::kQueryFailuresTotal)->Add(1);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"reldiv_query_failures_total\""), std::string::npos)
      << json;
}

TEST(MetricRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricRegistry& registry = MetricRegistry::Global();
  TelemetryCounter* counter =
      registry.FindOrCreateCounter(metric_names::kBufferEvictionsTotal);
  counter->Add(7);
  const size_t size_before = registry.size();
  registry.ResetAllForTest();
  EXPECT_EQ(registry.size(), size_before);
  EXPECT_EQ(counter->value(), 0u);
  // The cached pointer is still the registered instrument.
  EXPECT_EQ(counter, registry.FindOrCreateCounter(
                         metric_names::kBufferEvictionsTotal));
}

// ---- Flight ring ----

TEST(FlightRingTest, RingKeepsMostRecentEventsOldestFirst) {
  EventLog& recorder = EventLog::Flight();
  recorder.Clear();
  const uint64_t seq_before = recorder.total_recorded();
  const size_t total = EventLog::kFlightCapacity + 10;
  for (size_t i = 0; i < total; ++i) {
    recorder.Record("operator", "open", "op" + std::to_string(i), i);
  }
  EXPECT_EQ(recorder.size(), EventLog::kFlightCapacity);
  EXPECT_EQ(recorder.total_recorded(), seq_before + total);
  EXPECT_EQ(recorder.dropped(), 10u);
  const std::vector<Event> events = recorder.Events();
  ASSERT_EQ(events.size(), EventLog::kFlightCapacity);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  // The survivors are the LAST kFlightCapacity events.
  EXPECT_EQ(events.back().value, total - 1);
  EXPECT_EQ(events.front().value, total - EventLog::kFlightCapacity);
  recorder.Clear();
}

TEST(FlightRingTest, DumpJsonHasSchema) {
  EventLog& recorder = EventLog::Flight();
  recorder.Clear();
  recorder.Record("fallback", "repartition", "cluster3", 2);
  const std::string json = recorder.DumpJson();
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"events\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fallback\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"repartition\""), std::string::npos) << json;
  recorder.Clear();
}

TEST(FlightRingDeathTest, CheckFailureDumpsTheRing) {
  // Touch Flight() so the check-failure dump hook is installed, then seed an
  // event the crash output must replay.
  EventLog::Flight().Clear();
  EventLog::Flight().Record("memory", "grant_denied", "memory_pool", 4096);
  EXPECT_DEATH(RELDIV_CHECK(1 == 2) << "telemetry death test",
               "grant_denied memory_pool value=4096");
  EventLog::Flight().Clear();
}

// ---- Trace drop accounting (satellite of the same PR) ----

TEST(TraceDropTest, DropsCountIntoRegistryAndTrailerEvent) {
  ScopedTelemetryMode count(TelemetryMode::kCounting);
  TelemetryCounter* drops = MetricRegistry::Global().FindOrCreateCounter(
      metric_names::kEventLogDroppedTotal, "log", "trace");
  const uint64_t before = drops->value();

  EventLog trace(4);
  for (int i = 0; i < 10; ++i) {
    trace.Instant("e" + std::to_string(i), "test");
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(drops->value(), before + 6);
  EXPECT_EQ(trace.Events().front().name, "e6");  // the newest four survive

  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"trace_spans_dropped\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":6"), std::string::npos) << json;
}

TEST(TraceDropTest, NoTrailerWhenNothingDropped) {
  EventLog trace;
  trace.Instant("only", "test");
  EXPECT_EQ(trace.ToChromeJson().find("trace_spans_dropped"),
            std::string::npos);
}

}  // namespace
}  // namespace reldiv
