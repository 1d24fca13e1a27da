#ifndef RELDIV_OBS_TRACE_H_
#define RELDIV_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace reldiv {

/// Collects timeline events in the chrome://tracing "Trace Event Format"
/// (the JSON loaded by chrome://tracing, Perfetto, and speedscope). Sources
/// attach a recorder opt-in — ExecContext::set_trace() wires the simulated
/// disk and the buffer manager, plan builders wire the operator layer, and
/// the parallel engine wires the interconnect — so a query run produces one
/// merged timeline: operator lifecycle spans, page reads/writes/evictions,
/// disk transfers and seeks, and per-node interconnect shipments with byte
/// counts.
///
/// Timestamps are microseconds on the recorder's own steady clock (origin =
/// construction), so spans from different layers line up. `tid` separates
/// timeline lanes; convention: 0 = the query thread, 1 + node_id = a
/// shared-nothing worker node.
///
/// Thread-safe: worker nodes append concurrently. The event list is bounded
/// (kMaxEvents); past the cap events are counted as dropped rather than
/// recorded, keeping long runs safe to trace.
class TraceRecorder {
 public:
  /// Numeric key/value pairs attached to an event ("args" in the format).
  using Args = std::vector<std::pair<std::string, uint64_t>>;

  TraceRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Microseconds since this recorder was created.
  uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  /// A span: `name` ran from `start_us` for `dur_us` ("X" phase).
  void Complete(std::string name, std::string category, uint64_t start_us,
                uint64_t dur_us, uint32_t tid = 0, Args args = {}) {
    Append(Event{std::move(name), std::move(category), 'X', start_us, dur_us,
                 tid, std::move(args)});
  }

  /// A point event at the current time ("i" phase).
  void Instant(std::string name, std::string category, uint32_t tid = 0,
               Args args = {}) {
    Append(Event{std::move(name), std::move(category), 'i', NowMicros(), 0,
                 tid, std::move(args)});
  }

  size_t num_events() const {
    MutexLock lock(mu_);
    return events_.size();
  }
  uint64_t dropped_events() const {
    MutexLock lock(mu_);
    return dropped_;
  }

  void Clear() {
    MutexLock lock(mu_);
    events_.clear();
    dropped_ = 0;
  }

  /// Shrinks the event bound so tests can exercise the drop path without
  /// recording kMaxEvents real spans.
  void SetMaxEventsForTest(size_t n) {
    MutexLock lock(mu_);
    max_events_ = n;
  }

  /// The full trace as a chrome://tracing-loadable JSON document.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    char phase;
    uint64_t ts_us;
    uint64_t dur_us;
    uint32_t tid;
    Args args;
  };

  static constexpr size_t kMaxEvents = 1u << 20;

  /// Appends within the bound; past it the event is dropped, counted here
  /// AND in the process-wide `reldiv_trace_spans_dropped` telemetry counter
  /// (obs/telemetry.h), and reported as a trailing metadata event by
  /// ToJson() so a truncated trace file is self-describing.
  void Append(Event event);

  std::chrono::steady_clock::time_point origin_;
  /// Guards the bounded event buffer against concurrent appenders.
  mutable Mutex mu_;
  std::vector<Event> events_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  size_t max_events_ GUARDED_BY(mu_) = kMaxEvents;
};

}  // namespace reldiv

#endif  // RELDIV_OBS_TRACE_H_
