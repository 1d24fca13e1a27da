#include "storage/memory_manager.h"

#include <chrono>

#include "common/metric_names.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"
#include "testing/failpoint.h"

namespace reldiv {

MemoryPool::Grant MemoryPool::ReserveInner(size_t bytes, size_t* used_after) {
  if (RELDIV_FAILPOINT_DENIED("memory/reserve")) return Grant::kForced;
  while (true) {
    {
      MutexLock lock(mu_);
      if (used_ + bytes <= budget_) {
        used_ += bytes;
        *used_after = used_;
        return Grant::kGranted;
      }
    }
    // Reclaim with the pool unlocked: the reclaimer re-enters the buffer
    // manager, whose lock the calling thread may already hold (Fix →
    // Reserve → TryShedFrame). A concurrent lane may win the freed budget
    // before this one re-checks — then the loop simply sheds again until
    // the reclaimer runs dry (frames are finite, so this terminates).
    if (!reclaimer_ || !reclaimer_()) {
      // Last re-check: a concurrent Release may have freed enough between
      // the failed check and the reclaimer running dry.
      MutexLock lock(mu_);
      if (used_ + bytes <= budget_) {
        used_ += bytes;
        *used_after = used_;
        return Grant::kGranted;
      }
      return Grant::kExhausted;
    }
  }
}

MemoryPool::Grant MemoryPool::TryReserve(size_t bytes) {
  // Grant latency covers the whole decision including reclaimer passes —
  // the §3.4 pressure signal. Clock reads only under kSampling.
  const bool sample = Telemetry::sampling();
  std::chrono::steady_clock::time_point start;
  if (sample) start = std::chrono::steady_clock::now();

  size_t used_after = 0;
  const Grant grant = ReserveInner(bytes, &used_after);

  if (Telemetry::counting()) {
    if (grant == Grant::kGranted) {
      static TelemetryGauge* high_water =
          MetricRegistry::Global().FindOrCreateGauge(
              metric_names::kMemHighWaterBytes);
      high_water->UpdateMax(used_after);
    } else {
      static TelemetryCounter* denials =
          MetricRegistry::Global().FindOrCreateCounter(
              metric_names::kMemGrantDenialsTotal);
      denials->Add(1);
      EventLog::Flight().Record("memory", "grant_denied", "memory_pool",
                                bytes);
    }
    if (sample) {
      static Histogram* latency = MetricRegistry::Global().FindOrCreateHistogram(
          metric_names::kMemGrantLatencyMicros);
      latency->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  }
  return grant;
}

bool MemoryPool::WaitForSpace(
    size_t bytes, std::chrono::steady_clock::time_point deadline) {
  UniqueMutexLock lock(mu_);
  waiters_++;
  bool fits = used_ + bytes <= budget_;
  while (!fits) {
    if (release_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      fits = used_ + bytes <= budget_;
      break;
    }
    fits = used_ + bytes <= budget_;
  }
  waiters_--;
  return fits;
}

Status MemoryPool::ReserveWithDeadline(size_t bytes,
                                       std::chrono::milliseconds timeout) {
  Grant grant = TryReserve(bytes);
  if (grant == Grant::kGranted) return Status::OK();
  if (Telemetry::counting()) {
    static TelemetryCounter* waits = MetricRegistry::Global().FindOrCreateCounter(
        metric_names::kMemGrantWaitsTotal);
    waits->Add(1);
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Only exhaustion waits. It was decided under the pool lock, so a Release
  // that lands after it is seen by WaitForSpace: a release racing the
  // denial is never mistaken for a forced one.
  while (grant == Grant::kExhausted && WaitForSpace(bytes, deadline)) {
    grant = TryReserve(bytes);
    if (grant == Grant::kGranted) return Status::OK();
  }
  // A forced denial fails at once: waiting on the condvar would return
  // immediately and degenerate into a busy spin on the deadline.
  if (grant == Grant::kForced) {
    return Status::ResourceExhausted(
        "memory grant of " + std::to_string(bytes) + " bytes denied");
  }
  if (Telemetry::counting()) {
    static TelemetryCounter* timeouts =
        MetricRegistry::Global().FindOrCreateCounter(
            metric_names::kMemGrantTimeoutsTotal);
    timeouts->Add(1);
    EventLog::Flight().Record("memory", "grant_timeout", "memory_pool",
                              bytes);
  }
  return Status::ResourceExhausted(
      "memory grant of " + std::to_string(bytes) + " bytes not satisfied in " +
      std::to_string(timeout.count()) + " ms");
}

void* Arena::Allocate(size_t bytes) {
  const size_t aligned = (bytes + 7) & ~size_t{7};
  if (chunks_.empty() || chunks_.back().used + aligned > chunks_.back().size) {
    // Adapt the chunk size downward under memory pressure so that a small
    // remaining budget can still satisfy small allocations.
    size_t chunk_size = aligned > chunk_bytes_ ? aligned : chunk_bytes_;
    if (pool_ != nullptr) {
      const std::chrono::milliseconds timeout = pool_->wait_timeout();
      bool deadline_set = false;
      std::chrono::steady_clock::time_point deadline;
      MemoryPool::Grant grant = MemoryPool::Grant::kGranted;
      while ((grant = pool_->TryReserve(chunk_size)) !=
             MemoryPool::Grant::kGranted) {
        if (chunk_size > aligned) {
          // Adapt downward first: a small remaining budget should satisfy a
          // small allocation before anyone blocks.
          chunk_size = chunk_size / 2 > aligned ? chunk_size / 2 : aligned;
          continue;
        }
        // The minimum-size grant was denied. With no wait budget this is
        // the §3.4 overflow signal, immediately; otherwise park on the
        // pool's release condvar until another query frees memory or the
        // deadline passes (the old code re-polled Reserve in a busy spin,
        // letting two contending queries starve each other indefinitely).
        // A forced denial also fails fast: no release can lift it.
        if (timeout.count() <= 0 || grant == MemoryPool::Grant::kForced) {
          return nullptr;
        }
        if (!deadline_set) {
          deadline = std::chrono::steady_clock::now() + timeout;
          deadline_set = true;
        }
        if (!pool_->WaitForSpace(chunk_size, deadline)) return nullptr;
      }
    }
    Chunk chunk;
    chunk.data = std::make_unique<char[]>(chunk_size);
    chunk.size = chunk_size;
    chunks_.push_back(std::move(chunk));
    bytes_reserved_ += chunk_size;
  }
  Chunk& chunk = chunks_.back();
  void* out = chunk.data.get() + chunk.used;
  chunk.used += aligned;
  bytes_allocated_ += aligned;
  return out;
}

void Arena::Reset() {
  chunks_.clear();
  if (pool_ != nullptr) pool_->Release(bytes_reserved_);
  bytes_reserved_ = 0;
  bytes_allocated_ = 0;
}

}  // namespace reldiv
