#ifndef RELDIV_OBS_TELEMETRY_H_
#define RELDIV_OBS_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace reldiv {

/// Process-wide telemetry level. Unlike the per-query QueryProfile
/// (obs/metrics.h), these metrics are always-on and outlive any single
/// query — they feed service-level dashboards and hold EXPLAIN ANALYZE's
/// cost-model drift history.
///
///   kOff      — instrumentation sites do nothing (one relaxed load + a
///               predicted branch).
///   kCounting — counters and gauges update (one relaxed atomic add each);
///               no clocks are read, no histograms recorded. The default.
///   kSampling — additionally reads clocks and records latency/size
///               histograms (grant latency, transfer sizes, worker
///               idle/busy, query wall time).
///
/// The overhead contract (DESIGN.md §14, enforced by
/// bench/telemetry_overhead.cc): with telemetry compiled in but not
/// sampling, each instrumented site costs at most a relaxed atomic add.
/// Mutexes appear only at registration and snapshot/merge time.
enum class TelemetryMode : int { kOff = 0, kCounting = 1, kSampling = 2 };

/// Global mode switch. A plain relaxed atomic — instrumentation sites load
/// it on every hit, so mode changes take effect immediately without
/// synchronizing with in-flight updates. The initial value comes from
/// RELDIV_TELEMETRY (off|count|sample; default count), parsed once at the
/// first registry touch or the first SetMode, whichever happens first — an
/// explicit SetMode therefore always wins over the environment default.
class Telemetry {
 public:
  static TelemetryMode mode() {
    return static_cast<TelemetryMode>(mode_.load(std::memory_order_relaxed));
  }
  /// Sets the mode and returns the previous one (tests/benches toggle and
  /// restore around measured sections). Touches the registry first so the
  /// one-time RELDIV_TELEMETRY application cannot later clobber this call.
  static TelemetryMode SetMode(TelemetryMode mode);

  /// True when counters/gauges should update (kCounting or kSampling).
  static bool counting() {
    return mode_.load(std::memory_order_relaxed) >=
           static_cast<int>(TelemetryMode::kCounting);
  }
  /// True when clock reads and histogram records are wanted.
  static bool sampling() {
    return mode_.load(std::memory_order_relaxed) ==
           static_cast<int>(TelemetryMode::kSampling);
  }

 private:
  friend class MetricRegistry;
  static std::atomic<int> mode_;
};

/// Monotone counter. Update is a single relaxed atomic add; reads are for
/// exporters and assertions. Created and owned by the MetricRegistry, which
/// never destroys one — cached pointers stay valid for the process
/// lifetime.
class TelemetryCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  TelemetryCounter() = default;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

/// Last-value / high-water gauge with relaxed atomic updates.
class TelemetryGauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Monotone high-water update (relaxed CAS loop; see Histogram::Record).
  void UpdateMax(uint64_t v) {
    uint64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen && !value_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  TelemetryGauge() = default;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

/// Process-wide registry of counters, gauges, and histograms.
///
/// Usage pattern: an instrumented component calls FindOrCreate* once (a
/// mutex acquisition) and caches the returned pointer — typically in a
/// function-local static struct — then updates through the pointer on the
/// hot path with no further registry involvement. Registered objects are
/// never destroyed; the registry itself is intentionally leaked (like
/// FailpointRegistry) so late-exiting threads can still record.
///
/// Metrics may carry one label (e.g. {lane="3"}, {algorithm="hash
/// division"}); the (name, label) pair identifies the instrument.
/// Registration sites must pass constants from common/metric_names.h —
/// tools/analyze.py (telemetry-names) rejects raw string literals.
class MetricRegistry {
 public:
  /// The process registry. First touch applies the RELDIV_TELEMETRY mode
  /// override (see Telemetry).
  static MetricRegistry& Global();

  TelemetryCounter* FindOrCreateCounter(const std::string& name,
                                        const std::string& label_key = "",
                                        const std::string& label_value = "");
  TelemetryGauge* FindOrCreateGauge(const std::string& name,
                                    const std::string& label_key = "",
                                    const std::string& label_value = "");
  Histogram* FindOrCreateHistogram(const std::string& name,
                                   const std::string& label_key = "",
                                   const std::string& label_value = "");

  /// Number of registered instruments (all three kinds).
  size_t size() const;

  /// Prometheus/OpenMetrics text exposition: `# TYPE` headers, labelled
  /// sample lines, histograms as cumulative `_bucket{le=...}` series plus
  /// `_sum`/`_count`.
  std::string ToPrometheusText() const;

  /// Schema-v2 JSON snapshot:
  /// {"schema_version":2,"mode":...,"counters":{...},"gauges":{...},
  ///  "histograms":{...}} with labelled instruments keyed
  /// `name{key="value"}` exactly as in the Prometheus exposition.
  std::string ToJson() const;

  /// Zeroes every registered value (registrations and cached pointers stay
  /// valid). Test/bench isolation only — not synchronized against
  /// concurrent updates beyond each store being atomic.
  void ResetAllForTest();

 private:
  MetricRegistry() = default;

  /// Guards the instrument maps (registration and export); never held on a
  /// metric update path.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<TelemetryCounter>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<TelemetryGauge>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace reldiv

#endif  // RELDIV_OBS_TELEMETRY_H_
