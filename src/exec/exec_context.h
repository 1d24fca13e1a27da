#ifndef RELDIV_EXEC_EXEC_CONTEXT_H_
#define RELDIV_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "common/config.h"
#include "common/counters.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "storage/memory_manager.h"

namespace reldiv {

class QueryProfile;
class EventLog;

/// Shared services handed to every operator in a query evaluation plan:
/// the simulated disk, the buffer manager, the main memory pool from which
/// hash tables and sort space are drawn, and deterministic CPU counters.
/// All functions on data records (comparison, hashing) are bound at plan
/// construction time, mirroring the paper's compiled function pointers.
class ExecContext {
 public:
  // Constructor and destructor are out-of-line: the context owns the
  // forward-declared QueryProfile via unique_ptr.
  ExecContext(SimDisk* disk, BufferManager* buffer_manager, MemoryPool* pool,
              CpuCounters* counters);
  ~ExecContext();

  SimDisk* disk() const { return disk_; }
  BufferManager* buffer_manager() const { return buffer_manager_; }
  MemoryPool* pool() const { return pool_; }
  CpuCounters* counters() const { return counters_; }

  /// Sort space (run-formation memory) available to each sort operator,
  /// 100 KB of the 256 KB buffer by default (§5.1).
  size_t sort_space_bytes() const { return sort_space_bytes_; }
  void set_sort_space_bytes(size_t bytes) { sort_space_bytes_ = bytes; }

  /// Memory ceiling for a single operator's hash tables (divisor table plus
  /// quotient table in hash-division). 0 means "whatever the pool allows".
  size_t hash_memory_bytes() const { return hash_memory_bytes_; }
  void set_hash_memory_bytes(size_t bytes) { hash_memory_bytes_ = bytes; }

  /// Tuple-slot count of the TupleBatches used by this plan's internal
  /// drains (hash-division input consumption, spools, partition passes,
  /// the InputCursor pulls of per-tuple consumers).
  /// 1 degenerates every pipeline to tuple-at-a-time; the default is
  /// kDefaultBatchCapacity.
  size_t batch_capacity() const { return batch_capacity_; }
  void set_batch_capacity(size_t capacity) {
    batch_capacity_ = capacity == 0 ? 1 : capacity;
  }

  /// Degree of intra-node parallelism available to dop-aware operators
  /// (parallel sort run formation, concurrent division clusters, exchange
  /// fragments). Defaults to TaskScheduler::DefaultDop(), i.e. the
  /// RELDIV_THREADS environment variable or 1. Operators must keep quotients
  /// and Table 1 counter totals bit-identical across dop values — only
  /// thread assignment may vary (see exec/scheduler.h).
  size_t dop() const { return dop_; }
  void set_dop(size_t dop) { dop_ = dop == 0 ? 1 : dop; }

  /// Debug switch: when on, plan builders wrap the operators they hand out
  /// in a ContractCheckOperator (exec/contract_check.h) that validates the
  /// open-next-close protocol at runtime and fails the query with an
  /// Internal status on the first violation. Off by default — the wrapper
  /// costs a schema walk per emitted tuple.
  bool contract_checks() const { return contract_checks_; }
  void set_contract_checks(bool enabled) { contract_checks_ = enabled; }

  /// Observability switch: when on, plan builders wrap the operators they
  /// construct in a ProfiledOperator (obs/profiled_operator.h) that records
  /// a per-operator MetricsNode tree — wall time, call counts, tuples and
  /// batches, CpuCounters and I/O deltas, algorithm gauges — into profile().
  /// Off by default: disabled plans contain no wrapper and pay nothing.
  bool profiling() const { return profiling_; }
  void set_profiling(bool enabled);

  /// The metrics collected by profiled plans on this context; non-null once
  /// set_profiling(true) has been called (the trees survive turning
  /// profiling back off, until the next set_profiling(true) clears them).
  QueryProfile* profile() const { return profile_.get(); }

  /// Attaches a trace (an obs/event_log.h EventLog) to this context AND to
  /// its disk and buffer manager, so operator lifecycle spans, page traffic,
  /// and disk transfers land on one timeline. nullptr detaches. Not owned;
  /// the log must outlive the attachment.
  void set_trace(EventLog* trace);
  EventLog* trace() const { return trace_; }

  /// Cooperative cancellation (DivisionService): points this context at an
  /// externally owned flag (the query ticket's; must outlive the plan).
  /// Every Drain() given this context polls CheckCancelled() before each
  /// pull (exec/operator.h), as does HashDivisionCore::ConsumeBatch, so
  /// a cancelled query unwinds through the normal error path — Close runs,
  /// arenas Reset, grants release — with a clean kCancelled status.
  /// nullptr (the default) disables the checks entirely.
  void set_cancellation_flag(const std::atomic<bool>* flag) {
    cancel_flag_ = flag;
  }
  const std::atomic<bool>* cancellation_flag() const { return cancel_flag_; }
  bool cancelled() const {
    return cancel_flag_ != nullptr &&
           cancel_flag_->load(std::memory_order_relaxed);
  }
  Status CheckCancelled() const {
    if (cancelled()) return Status::Cancelled("query cancelled");
    return Status::OK();
  }

  // Cost-unit bumpers (Table 1: Comp / Hash / Move / Bit).
  void CountComparisons(uint64_t n) const { counters_->comparisons += n; }
  void CountHashes(uint64_t n) const { counters_->hashes += n; }
  void CountBitOps(uint64_t n) const { counters_->bit_ops += n; }

  /// Accumulates memory-copy volume; one Move unit per page of bytes.
  void CountMoveBytes(uint64_t bytes) const {
    move_accumulator_ += bytes;
    counters_->moves += move_accumulator_ / kPageSize;
    move_accumulator_ %= kPageSize;
  }

  /// Drops the sub-page Move remainder. Measurement harnesses call this
  /// before a counted run so two identical runs report identical Move
  /// deltas regardless of what executed earlier on this context.
  void ResetMoveAccumulator() const { move_accumulator_ = 0; }

  /// The sub-page Move remainder currently carried. Parallel sections run
  /// each fragment on its own context and fold the fragments' remainders
  /// back into the parent IN FRAGMENT ORDER (RunFragments in exec/exchange.h),
  /// which reproduces the serial cumulative fold exactly.
  uint64_t move_remainder_bytes() const { return move_accumulator_; }

 private:
  SimDisk* disk_;
  BufferManager* buffer_manager_;
  MemoryPool* pool_;
  CpuCounters* counters_;
  size_t sort_space_bytes_ = kDefaultSortSpaceBytes;
  size_t hash_memory_bytes_ = 0;
  size_t batch_capacity_ = kDefaultBatchCapacity;
  size_t dop_;  // initialized in the constructor from RELDIV_THREADS
  const std::atomic<bool>* cancel_flag_ = nullptr;
  bool contract_checks_ = false;
  bool profiling_ = false;
  std::unique_ptr<QueryProfile> profile_;
  EventLog* trace_ = nullptr;
  mutable uint64_t move_accumulator_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_EXEC_CONTEXT_H_
