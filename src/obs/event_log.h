#ifndef RELDIV_OBS_EVENT_LOG_H_
#define RELDIV_OBS_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace reldiv {

class TelemetryCounter;

/// Microseconds on the process-wide event clock (steady clock, origin at
/// the first call). Every event timestamp is read here — trace spans,
/// flight events, the span starts ProfiledOperator and the §6 engine take —
/// so events from any log and any layer line up on one timeline.
uint64_t NowMicros();

/// One recorded event. Trace events use phase/tid/dur_us/args; flight
/// events use detail/value. Both carry seq, ts_us, category and name.
struct Event {
  /// Numeric key/value pairs ("args" in the chrome://tracing format).
  using Args = std::vector<std::pair<std::string, uint64_t>>;

  uint64_t seq = 0;    ///< per-log sequence number; keeps counting across Clear
  uint64_t ts_us = 0;  ///< NowMicros() at the event (a span's start)
  uint64_t dur_us = 0;  ///< span length ('X' phase only)
  /// Timeline lane: 0 = the query thread, 1 + node_id = a shared-nothing
  /// worker node.
  uint32_t tid = 0;
  char phase = 'i';  ///< 'X' = complete span, 'i' = instant
  /// A string literal ("operator", "disk", "failpoint", "memory", ...):
  /// categories are a closed set of static strings, so recording one never
  /// allocates.
  std::string_view category;
  std::string name;    ///< what happened: "open hash-division", "replan"
  std::string detail;  ///< the subject: site, operator label, status message
  uint64_t value = 0;  ///< one number: bytes, partitions, tuples seen
  Args args;
};

/// A mutex-guarded ring of the newest `capacity` events; overwritten events
/// are counted (dropped()) and, in counting mode, added to
/// reldiv_event_log_dropped_total{log="trace"|"flight"}. Every entry point
/// is cold — lifecycle transitions, faults, decisions, page traffic under
/// an attached trace — never per tuple; Record/Complete/Instant take one
/// lock and allocate nothing beyond the caller's strings and the ring's
/// growth to capacity.
///
/// Two uses, two renderers:
///   - a trace: a caller-owned log attached through ExecContext::set_trace
///     (which also wires the simulated disk and the buffer manager), plan
///     builders' ProfiledOperator wrappers, and
///     ParallelDivisionOptions::trace (the interconnect and the §6 worker
///     nodes). ToChromeJson()/WriteFile() render the chrome://tracing
///     "Trace Event Format" loaded by chrome://tracing, Perfetto and
///     speedscope; a trace that lost events ends with a
///     `trace_spans_dropped` metadata event.
///   - the flight ring: Flight(), the process's last 256 operator
///     open/close, failpoint, fallback, grant and root-status events.
///     DumpJson()/DumpToStderr() render it; a failed RELDIV_CHECK dumps it
///     to stderr. Call sites gate Record on Telemetry::counting().
class EventLog {
 public:
  static constexpr size_t kTraceCapacity = size_t{1} << 20;
  static constexpr size_t kFlightCapacity = 256;

  /// A trace log keeping the newest `capacity` events.
  explicit EventLog(size_t capacity = kTraceCapacity);

  /// The process flight ring; the first call installs the check-failure
  /// dump hook.
  static EventLog& Flight();

  /// A flight event at the current time.
  void Record(std::string_view category, std::string name,
              std::string detail, uint64_t value = 0);

  /// A span: `name` ran from `start_us` for `dur_us` ("X" phase).
  void Complete(std::string name, std::string_view category,
                uint64_t start_us, uint64_t dur_us, uint32_t tid = 0,
                Event::Args args = {});

  /// A point event at the current time ("i" phase).
  void Instant(std::string name, std::string_view category, uint32_t tid = 0,
               Event::Args args = {});

  /// Events currently retained (<= capacity).
  size_t size() const;
  /// Events ever recorded (size() plus overwritten and cleared ones).
  uint64_t total_recorded() const;
  /// Events overwritten since construction or the last Clear().
  uint64_t dropped() const;

  /// Drops every retained event; sequence numbers keep counting so they
  /// identify events across clears in a long-running process.
  void Clear();

  /// Retained events, oldest first.
  std::vector<Event> Events() const;

  /// The trace as a chrome://tracing-loadable JSON document.
  std::string ToChromeJson() const;
  /// Writes ToChromeJson() to `path`.
  Status WriteFile(const std::string& path) const;

  /// Flight dump: {"flight_recorder":{"total":N,"events":[{"seq":..,
  /// "ts_us":..,"category":..,"label":..,"detail":..,"value":..},...]}},
  /// oldest first. Schema asserted by tests/telemetry_test.cc and the
  /// fault-injection tests.
  std::string DumpJson() const;

  /// Human-readable flight dump to stderr, one fprintf per event (called by
  /// the check-failure hook, so it must not allocate its way into another
  /// failure).
  void DumpToStderr() const;

 private:
  EventLog(size_t capacity, const char* log_label);

  void Append(Event event);

  /// The i-th retained event, oldest first.
  const Event& At(size_t i) const REQUIRES(mu_) {
    return ring_[(next_slot_ + i) % ring_.size()];
  }

  const size_t capacity_;
  /// reldiv_event_log_dropped_total{log=...}; registered at construction.
  TelemetryCounter* const dropped_total_;
  /// Guards the ring; every entry point is cold (see class comment).
  mutable Mutex mu_;
  std::vector<Event> ring_ GUARDED_BY(mu_);
  size_t next_slot_ GUARDED_BY(mu_) = 0;  ///< ring_[next_slot_] is oldest
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace reldiv

#endif  // RELDIV_OBS_EVENT_LOG_H_
