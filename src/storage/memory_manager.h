#ifndef RELDIV_STORAGE_MEMORY_MANAGER_H_
#define RELDIV_STORAGE_MEMORY_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace reldiv {

/// Shared main-memory budget. The buffer pool grows dynamically against this
/// pool and shrinks as buffer slots are unfixed (paper §5.1); hash tables,
/// bit maps and chain elements draw from the same pool through Arena. When
/// Reserve() fails the requester must spill or partition — this is exactly
/// the "hash table overflow" trigger of §3.4.
///
/// Thread-safe: the pool is shared by every worker lane. The accounting is
/// mutex-guarded, but the reclaimer runs OUTSIDE the lock — it re-enters the
/// buffer manager (TryShedFrame), which may already be held by the calling
/// thread mid-Fix; invoking it under the pool mutex would deadlock any two
/// lanes contending for memory. Register the reclaimer during setup, before
/// concurrent use.
class MemoryPool {
 public:
  explicit MemoryPool(size_t budget_bytes) : budget_(budget_bytes) {}

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  /// Outcome of one grant attempt.
  enum class Grant {
    kGranted,
    /// The budget had no room. Decided under the pool lock, so a Release
    /// after it is seen by the next WaitForSpace.
    kExhausted,
    /// The "memory/reserve" failpoint denied it; no Release can lift that.
    kForced,
  };

  /// Claims `bytes` from the pool, or reports why not. On pressure, the
  /// registered reclaimer (the buffer manager shedding unfixed frames —
  /// §5.1 "shrinks as buffer slots are unfixed") is invoked repeatedly
  /// until enough space frees up or it reports nothing left. Out-of-line:
  /// this is the "memory/reserve" failpoint, which forces a denial to
  /// trigger §3.4 overflow handling at adversarial moments.
  Grant TryReserve(size_t bytes);
  /// TryReserve without the reason; false if the grant was refused.
  bool Reserve(size_t bytes) { return TryReserve(bytes) == Grant::kGranted; }

  /// Blocking grant for multi-query contention: TryReserve(), and while
  /// the pool is exhausted, park on the condition variable Release()
  /// signals — no busy spin — re-trying after each wakeup until `timeout`
  /// elapses, then kResourceExhausted. A forced denial returns
  /// kResourceExhausted immediately rather than spinning on the deadline.
  Status ReserveWithDeadline(size_t bytes, std::chrono::milliseconds timeout);

  /// Parks until `bytes` would fit under the budget or `deadline` passes;
  /// returns whether the space was seen. NO reservation is made — callers
  /// re-run their own grant protocol (and may lose the race, in which case
  /// they wait again on the same deadline). Used by BufferManager::Fix with
  /// the buffer-manager mutex DROPPED, because the Release that frees the
  /// budget comes from a concurrent Unfix that needs that mutex.
  bool WaitForSpace(size_t bytes,
                    std::chrono::steady_clock::time_point deadline);

  /// Deadline the blocking callers (BufferManager::Fix, Arena chunk growth)
  /// apply when a grant is denied and nothing is reclaimable. Zero — the
  /// default — keeps those paths exactly as non-blocking as before: deny
  /// immediately, §3.4 overflow handling takes over. The service layer sets
  /// a positive timeout so contending queries wait for each other's
  /// releases instead of failing or spinning.
  void set_wait_timeout(std::chrono::milliseconds timeout) {
    wait_timeout_ms_.store(timeout.count(), std::memory_order_relaxed);
  }
  std::chrono::milliseconds wait_timeout() const {
    return std::chrono::milliseconds(
        wait_timeout_ms_.load(std::memory_order_relaxed));
  }

  /// Registers a callback that frees some pool memory and returns true, or
  /// returns false when it has nothing left to give back.
  void SetReclaimer(std::function<bool()> reclaimer) {
    reclaimer_ = std::move(reclaimer);
  }

  void Release(size_t bytes) {
    {
      MutexLock lock(mu_);
      used_ = bytes > used_ ? 0 : used_ - bytes;
      if (waiters_ == 0) return;
    }
    // Wake grant waiters outside the lock; notify_all because waiters want
    // different sizes and any subset may now fit.
    release_cv_.notify_all();
  }

  size_t budget() const { return budget_; }
  size_t used() const {
    MutexLock lock(mu_);
    return used_;
  }
  size_t available() const {
    MutexLock lock(mu_);
    return budget_ - used_;
  }

 private:
  /// Grant/deny decision proper; TryReserve wraps it with telemetry (denial
  /// counter, high-water gauge, grant-latency histogram when sampling).
  /// `used_after` reports the pool usage right after a successful grant.
  Grant ReserveInner(size_t bytes, size_t* used_after);

  /// Guards used_ and waiters_ only; budget_ is immutable and reclaimer_ is
  /// set once at setup (see class comment).
  mutable Mutex mu_;
  size_t budget_;
  size_t used_ GUARDED_BY(mu_) = 0;
  /// Threads parked in WaitForSpace; Release() only notifies when > 0.
  size_t waiters_ GUARDED_BY(mu_) = 0;
  CondVar release_cv_;
  std::atomic<int64_t> wait_timeout_ms_{0};
  std::function<bool()> reclaimer_;
};

/// Chunked arena allocator over a MemoryPool, used for hash tables, chain
/// elements, and bit maps. Allocate() returns nullptr when the pool budget
/// is exhausted; callers translate that into hash-table-overflow handling.
/// All memory is returned to the pool on Reset() or destruction; individual
/// frees are not supported (matching the paper's per-operator memory use).
/// NOT thread-safe by design: every arena is owned by exactly one operator
/// core, and parallel sections give each fragment its own cores (only the
/// pool underneath is shared).
class Arena {
 public:
  /// `pool` may be nullptr for an unbounded arena (tests, tiny examples).
  /// Chunks default to one page so that a tight budget is not swallowed by
  /// a single oversized reservation.
  explicit Arena(MemoryPool* pool, size_t chunk_bytes = 8 * 1024)
      : pool_(pool), chunk_bytes_(chunk_bytes) {}

  ~Arena() { Reset(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// 8-byte-aligned allocation; nullptr when the pool is exhausted.
  void* Allocate(size_t bytes);

  /// Frees all chunks and releases their bytes to the pool.
  void Reset();

  size_t bytes_allocated() const { return bytes_allocated_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  MemoryPool* pool_;
  size_t chunk_bytes_;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
  std::vector<Chunk> chunks_;
};

}  // namespace reldiv

#endif  // RELDIV_STORAGE_MEMORY_MANAGER_H_
