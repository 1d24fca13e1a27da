#ifndef RELDIV_STORAGE_BUFFER_MANAGER_H_
#define RELDIV_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/config.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/disk.h"
#include "storage/memory_manager.h"

namespace reldiv {

class EventLog;

/// Buffer-pool statistics (deterministic; asserted in tests).
struct BufferStats {
  uint64_t fixes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;

  std::string ToString() const;
};

/// Page buffer manager in the WiSS style described in §5.1: callers fix a
/// page and receive the frame address (records are used in place, no
/// copying); an unfix call indicates whether the page can be replaced
/// immediately or should go to the LRU list. The pool grows dynamically
/// until the shared MemoryPool is exhausted and shrinks as frames are
/// released.
///
/// Thread-safe: a recursive mutex serializes all public entry points, so
/// concurrent morsels fixing the same page observe exactly-once read-in
/// (one miss, then hits) and monotone, non-double-counted BufferStats. The
/// mutex must be recursive because a miss re-enters the manager on the same
/// thread: Fix → MemoryPool::Reserve → reclaimer → TryShedFrame. Lock
/// ordering is buffer manager → pool / disk, never the reverse (the pool
/// invokes its reclaimer unlocked — see storage/memory_manager.h).
class BufferManager {
 public:
  /// `pool` may be nullptr for an unbounded pool.
  BufferManager(SimDisk* disk, MemoryPool* pool);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Fixes the disk page `page_no` (global page index; one page spans
  /// kSectorsPerPage sectors) and returns the frame address. With
  /// `create` the page is not read from disk (freshly allocated page).
  /// When every frame is fixed and the pool cannot grow: with the pool's
  /// wait_timeout at zero (the default), ResourceExhausted immediately;
  /// otherwise the call parks on the pool's release condvar (with this
  /// manager's mutex dropped, so concurrent Unfix calls can free budget)
  /// and retries until the deadline, then surfaces ResourceExhausted.
  Result<char*> Fix(uint64_t page_no, bool create);

  /// Releases one pin. `dirty` schedules write-back; `replace_immediately`
  /// is the §5.1 hint that the page will not be re-referenced: the frame is
  /// written back at once and its memory returned to the pool.
  Status Unfix(uint64_t page_no, bool dirty, bool replace_immediately = false);

  /// Writes back all dirty frames (pages stay cached).
  Status FlushAll();

  /// Drops every unfixed frame (after write-back), returning memory to the
  /// pool. Internal error if any page is still fixed.
  Status DropAll();

  /// Pin count of `page_no` (0 if not resident) — test hook.
  int PinCount(uint64_t page_no) const;

  /// Releases one unfixed frame back to the pool (LRU victim, written back
  /// if dirty). Returns false when every frame is fixed. This is the
  /// MemoryPool reclaimer: the buffer pool shrinks when other components —
  /// hash tables, sort space — need the memory (§5.1).
  bool TryShedFrame();

  size_t num_frames() const {
    RecursiveMutexLock lock(mu_);
    return frames_.size();
  }
  /// Snapshot of the statistics (by value: a reference would tear under
  /// concurrent fixes).
  BufferStats stats() const {
    RecursiveMutexLock lock(mu_);
    return stats_;
  }
  void ResetStats() {
    RecursiveMutexLock lock(mu_);
    stats_ = BufferStats{};
  }

  /// Attaches a trace (obs/event_log.h): page reads from disk, dirty
  /// write-backs, and evictions then emit instant trace events carrying the
  /// page number. nullptr detaches.
  void set_trace(EventLog* trace) { trace_ = trace; }

 private:
  struct Frame {
    std::unique_ptr<char[]> data;
    uint64_t page_no = 0;
    int pin_count = 0;
    bool dirty = false;
    bool in_lru = false;
    std::list<uint64_t>::iterator lru_pos;
  };

  /// One locked fix attempt. Counts statistics and fires the failpoint only
  /// when `first_attempt` (Fix classifies hit/miss once per call, however
  /// many waits it takes). Sets `*would_block` when the pool is exhausted
  /// (not failpoint-denied) with nothing evictable, so Fix can wait
  /// unlocked.
  Result<char*> FixAttempt(uint64_t page_no, bool create, bool first_attempt,
                           bool* would_block);

  Status WriteBack(Frame* frame) REQUIRES(mu_);
  Status ReadIn(Frame* frame) REQUIRES(mu_);
  /// Evicts one unfixed frame (LRU head); false if none exists.
  Result<bool> EvictOne() REQUIRES(mu_);
  Status ReleaseFrame(uint64_t page_no) REQUIRES(mu_);

  /// Serializes all public entry points; recursive for the Fix → Reserve →
  /// reclaimer → TryShedFrame re-entry on one thread (class comment).
  mutable RecursiveMutex mu_;
  SimDisk* disk_;
  MemoryPool* pool_;
  EventLog* trace_ = nullptr;  ///< attached during setup (see set_trace)
  std::unordered_map<uint64_t, Frame> frames_ GUARDED_BY(mu_);
  /// Unfixed pages, least recent first.
  std::list<uint64_t> lru_ GUARDED_BY(mu_);
  BufferStats stats_ GUARDED_BY(mu_);
};

}  // namespace reldiv

#endif  // RELDIV_STORAGE_BUFFER_MANAGER_H_
