#include "obs/event_log.h"

#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "common/metric_names.h"
#include "obs/telemetry.h"

namespace reldiv {

uint64_t NowMicros() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

namespace {

/// Escapes a string for use inside a JSON string literal. Labels are
/// operator names and categories, but status messages can carry quotes from
/// file paths, so escaping keeps the output valid whatever a caller passes.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void DumpFlightRing() { EventLog::Flight().DumpToStderr(); }

}  // namespace

EventLog::EventLog(size_t capacity) : EventLog(capacity, "trace") {}

EventLog::EventLog(size_t capacity, const char* log_label)
    : capacity_(capacity),
      dropped_total_(MetricRegistry::Global().FindOrCreateCounter(
          metric_names::kEventLogDroppedTotal, "log", log_label)) {
  RELDIV_CHECK(capacity_ > 0) << "an event log needs room for one event";
}

EventLog& EventLog::Flight() {
  // Intentionally leaked (mirrors FailpointRegistry::Global); construction
  // wires the ring into the RELDIV_CHECK failure path.
  static EventLog* flight = [] {
    auto* log = new EventLog(kFlightCapacity, "flight");  // NOLINT(reldiv/naked-new): intentional static leak, see comment above
    SetCheckFailureDumpHook(&DumpFlightRing);
    return log;
  }();
  return *flight;
}

void EventLog::Record(std::string_view category, std::string name,
                      std::string detail, uint64_t value) {
  Event event;
  event.ts_us = NowMicros();
  event.category = category;
  event.name = std::move(name);
  event.detail = std::move(detail);
  event.value = value;
  Append(std::move(event));
}

void EventLog::Complete(std::string name, std::string_view category,
                        uint64_t start_us, uint64_t dur_us, uint32_t tid,
                        Event::Args args) {
  Event event;
  event.ts_us = start_us;
  event.dur_us = dur_us;
  event.tid = tid;
  event.phase = 'X';
  event.category = category;
  event.name = std::move(name);
  event.args = std::move(args);
  Append(std::move(event));
}

void EventLog::Instant(std::string name, std::string_view category,
                       uint32_t tid, Event::Args args) {
  Event event;
  event.ts_us = NowMicros();
  event.tid = tid;
  event.category = category;
  event.name = std::move(name);
  event.args = std::move(args);
  Append(std::move(event));
}

void EventLog::Append(Event event) {
  bool overwrote = false;
  {
    MutexLock lock(mu_);
    event.seq = next_seq_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[next_slot_] = std::move(event);
      next_slot_ = (next_slot_ + 1) % capacity_;
      dropped_++;
      overwrote = true;
    }
  }
  if (overwrote && Telemetry::counting()) dropped_total_->Add(1);
}

size_t EventLog::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t EventLog::total_recorded() const {
  MutexLock lock(mu_);
  return next_seq_;
}

uint64_t EventLog::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void EventLog::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_slot_ = 0;
  dropped_ = 0;
}

std::vector<Event> EventLog::Events() const {
  MutexLock lock(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) out.push_back(At(i));
  return out;
}

std::string EventLog::ToChromeJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Event& e = At(i);
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(e.name) + "\",\"cat\":\"" +
           JsonEscape(e.category) + "\",\"ph\":\"" + e.phase +
           "\",\"ts\":" + std::to_string(e.ts_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    if (e.phase == 'X') out += ",\"dur\":" + std::to_string(e.dur_us);
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"" + JsonEscape(key) + "\":" + std::to_string(value);
      }
      out += "}";
    }
    out += "}";
  }
  // Trailing metadata event: a truncated trace declares how many events it
  // lost instead of silently looking complete.
  if (dropped_ > 0) {
    if (!ring_.empty()) out += ",";
    out += "{\"name\":\"trace_spans_dropped\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"dropped\":" +
           std::to_string(dropped_) + "}}";
  }
  out += "]}";
  return out;
}

Status EventLog::WriteFile(const std::string& path) const {
  const std::string json = ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + path + "'");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IOError("short write to trace file '" + path + "'");
  }
  return Status::OK();
}

std::string EventLog::DumpJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"flight_recorder\":{\"total\":" +
                    std::to_string(next_seq_) + ",\"events\":[";
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Event& e = At(i);
    if (i > 0) out += ",";
    out += "{\"seq\":" + std::to_string(e.seq) +
           ",\"ts_us\":" + std::to_string(e.ts_us) + ",\"category\":\"" +
           JsonEscape(e.category) + "\",\"label\":\"" + JsonEscape(e.name) +
           "\",\"detail\":\"" + JsonEscape(e.detail) +
           "\",\"value\":" + std::to_string(e.value) + "}";
  }
  out += "]}}";
  return out;
}

void EventLog::DumpToStderr() const {
  const std::vector<Event> events = Events();
  std::fprintf(stderr, "--- flight recorder (%zu event%s) ---\n",
               events.size(), events.size() == 1 ? "" : "s");
  for (const Event& e : events) {
    std::fprintf(stderr, "  #%llu +%lluus [%.*s] %s %s value=%llu\n",
                 static_cast<unsigned long long>(e.seq),
                 static_cast<unsigned long long>(e.ts_us),
                 static_cast<int>(e.category.size()), e.category.data(),
                 e.name.c_str(), e.detail.c_str(),
                 static_cast<unsigned long long>(e.value));
  }
  std::fprintf(stderr, "--- end flight recorder ---\n");
  std::fflush(stderr);
}

}  // namespace reldiv
