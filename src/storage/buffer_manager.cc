#include "storage/buffer_manager.h"

#include "common/metric_names.h"
#include "obs/telemetry.h"
#include "obs/event_log.h"
#include "testing/failpoint.h"

namespace reldiv {

std::string BufferStats::ToString() const {
  return "fixes=" + std::to_string(fixes) + " hits=" + std::to_string(hits) +
         " misses=" + std::to_string(misses) +
         " evictions=" + std::to_string(evictions) +
         " writebacks=" + std::to_string(writebacks);
}

BufferManager::BufferManager(SimDisk* disk, MemoryPool* pool)
    : disk_(disk), pool_(pool) {}

BufferManager::~BufferManager() {
  // Dirty frames are intentionally not flushed here: the owner decides when
  // FlushAll() runs; destruction releases memory only.
  if (pool_ != nullptr) pool_->Release(frames_.size() * kPageSize);
}

Status BufferManager::WriteBack(Frame* frame) {
  if (!frame->dirty) return Status::OK();
  RELDIV_RETURN_NOT_OK(disk_->Write(frame->page_no * kSectorsPerPage,
                                    kSectorsPerPage, frame->data.get()));
  frame->dirty = false;
  stats_.writebacks++;
  if (trace_ != nullptr) {
    trace_->Instant("page-write", "buffer", /*tid=*/0,
                    {{"page", frame->page_no}});
  }
  return Status::OK();
}

Status BufferManager::ReadIn(Frame* frame) {
  if (trace_ != nullptr) {
    trace_->Instant("page-read", "buffer", /*tid=*/0,
                    {{"page", frame->page_no}});
  }
  return disk_->Read(frame->page_no * kSectorsPerPage, kSectorsPerPage,
                     frame->data.get());
}

Result<bool> BufferManager::EvictOne() {
  if (lru_.empty()) return false;
  const uint64_t victim = lru_.front();
  RELDIV_RETURN_NOT_OK(ReleaseFrame(victim));
  stats_.evictions++;
  if (Telemetry::counting()) {
    static TelemetryCounter* evictions_total =
        MetricRegistry::Global().FindOrCreateCounter(
            metric_names::kBufferEvictionsTotal);
    evictions_total->Add(1);
  }
  if (trace_ != nullptr) {
    trace_->Instant("page-evict", "buffer", /*tid=*/0, {{"page", victim}});
  }
  return true;
}

Status BufferManager::ReleaseFrame(uint64_t page_no) {
  auto it = frames_.find(page_no);
  if (it == frames_.end()) return Status::OK();
  Frame& frame = it->second;
  RELDIV_RETURN_NOT_OK(WriteBack(&frame));
  if (frame.in_lru) lru_.erase(frame.lru_pos);
  frames_.erase(it);
  if (pool_ != nullptr) pool_->Release(kPageSize);
  return Status::OK();
}

Result<char*> BufferManager::FixAttempt(uint64_t page_no, bool create,
                                        bool first_attempt,
                                        bool* would_block) {
  // One lock spans lookup, statistics, pool growth, and read-in: two lanes
  // fixing the same non-resident page serialize into exactly one miss+read
  // followed by hits, never a double read-in or a torn counter. The pool's
  // reclaimer re-enters through TryShedFrame on this thread (recursive).
  RecursiveMutexLock lock(mu_);
  if (first_attempt) {
    RELDIV_FAILPOINT("buffer/fix");
    stats_.fixes++;
  }
  auto it = frames_.find(page_no);
  if (it != frames_.end()) {
    // Hit/miss is classified once, on the first attempt: a page that shows
    // up while this fix waited for memory was still a miss when requested
    // (fixes == hits + misses stays exact).
    if (first_attempt) {
      stats_.hits++;
      if (Telemetry::counting()) {
        static TelemetryCounter* hits_total =
            MetricRegistry::Global().FindOrCreateCounter(
                metric_names::kBufferHitsTotal);
        hits_total->Add(1);
      }
    }
    Frame& frame = it->second;
    if (frame.in_lru) {
      lru_.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    frame.pin_count++;
    return frame.data.get();
  }
  if (first_attempt) {
    stats_.misses++;
    if (Telemetry::counting()) {
      static TelemetryCounter* misses_total =
          MetricRegistry::Global().FindOrCreateCounter(
              metric_names::kBufferMissesTotal);
      misses_total->Add(1);
    }
  }

  // Grow the pool if possible; otherwise evict an unfixed frame.
  MemoryPool::Grant grant = MemoryPool::Grant::kGranted;
  while (pool_ != nullptr && (grant = pool_->TryReserve(kPageSize)) !=
                                 MemoryPool::Grant::kGranted) {
    RELDIV_ASSIGN_OR_RETURN(bool evicted, EvictOne());
    if (!evicted) {
      // Waiting for a release helps only a budget that had no room.
      *would_block = grant == MemoryPool::Grant::kExhausted;
      return Status::ResourceExhausted(
          "buffer pool: all frames fixed and memory pool exhausted");
    }
  }

  Frame frame;
  frame.data = std::make_unique<char[]>(kPageSize);
  frame.page_no = page_no;
  frame.pin_count = 1;
  if (!create) {
    Status st = ReadIn(&frame);
    if (!st.ok()) {
      if (pool_ != nullptr) pool_->Release(kPageSize);
      return st;
    }
  }
  char* data = frame.data.get();
  frames_.emplace(page_no, std::move(frame));
  return data;
}

Result<char*> BufferManager::Fix(uint64_t page_no, bool create) {
  const std::chrono::milliseconds timeout =
      pool_ == nullptr ? std::chrono::milliseconds(0) : pool_->wait_timeout();
  bool deadline_set = false;
  std::chrono::steady_clock::time_point deadline;
  bool first_attempt = true;
  while (true) {
    bool would_block = false;
    Result<char*> result =
        FixAttempt(page_no, create, first_attempt, &would_block);
    first_attempt = false;
    if (!would_block) return result;
    // Every frame is pinned and the pool denied the page. The old code
    // returned here unconditionally, which under multi-query contention
    // turns a transient peak into a hard failure (and retry loops above it
    // into busy spins). With a wait budget, park on the pool's release
    // condvar with mu_ DROPPED — the Release that frees budget comes from
    // another query's Unfix/Reset, which needs this manager's mutex — then
    // re-run the whole attempt (re-lookup included; the page may have
    // arrived meanwhile). A forced failpoint denial never sets
    // would_block, so it surfaced above at once.
    if (timeout.count() <= 0) return result;
    if (!deadline_set) {
      deadline = std::chrono::steady_clock::now() + timeout;
      deadline_set = true;
    }
    if (!pool_->WaitForSpace(kPageSize, deadline)) {
      return Status::ResourceExhausted(
          "buffer pool: all frames fixed and memory pool still exhausted "
          "after " +
          std::to_string(timeout.count()) + " ms grant deadline");
    }
  }
}

Status BufferManager::Unfix(uint64_t page_no, bool dirty,
                            bool replace_immediately) {
  RecursiveMutexLock lock(mu_);
  auto it = frames_.find(page_no);
  if (it == frames_.end()) {
    return Status::InvalidArgument("unfix of non-resident page " +
                                   std::to_string(page_no));
  }
  Frame& frame = it->second;
  if (frame.pin_count <= 0) {
    return Status::Internal("unfix of unpinned page " +
                            std::to_string(page_no));
  }
  frame.dirty = frame.dirty || dirty;
  frame.pin_count--;
  if (frame.pin_count == 0) {
    if (replace_immediately) {
      // §5.1: the unfix call says the page can be replaced immediately; the
      // pool shrinks right away.
      return ReleaseFrame(page_no);
    }
    frame.lru_pos = lru_.insert(lru_.end(), page_no);
    frame.in_lru = true;
  }
  return Status::OK();
}

Status BufferManager::FlushAll() {
  RecursiveMutexLock lock(mu_);
  for (auto& [page_no, frame] : frames_) {
    RELDIV_RETURN_NOT_OK(WriteBack(&frame));
  }
  return Status::OK();
}

Status BufferManager::DropAll() {
  RecursiveMutexLock lock(mu_);
  for (const auto& [page_no, frame] : frames_) {
    if (frame.pin_count > 0) {
      return Status::Internal("DropAll with page " + std::to_string(page_no) +
                              " still fixed");
    }
  }
  while (!lru_.empty()) {
    RELDIV_RETURN_NOT_OK(ReleaseFrame(lru_.front()));
  }
  return Status::OK();
}

bool BufferManager::TryShedFrame() {
  RecursiveMutexLock lock(mu_);
  auto evicted = EvictOne();
  return evicted.ok() && *evicted;
}

int BufferManager::PinCount(uint64_t page_no) const {
  RecursiveMutexLock lock(mu_);
  auto it = frames_.find(page_no);
  return it == frames_.end() ? 0 : it->second.pin_count;
}

}  // namespace reldiv
