#ifndef RELDIV_SERVICE_SERVICE_H_
#define RELDIV_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/tuple.h"
#include "division/division.h"
#include "exec/database.h"
#include "service/quotient_cache.h"

namespace reldiv {

/// Per-tenant admission and fairness knobs.
struct TenantOptions {
  /// Smooth-weighted-round-robin share: a weight-3 tenant is admitted three
  /// times as often as a weight-1 tenant when both have queued work.
  uint64_t weight = 1;
  /// Bounded FIFO depth; Submit returns kResourceExhausted beyond it.
  size_t max_queue_depth = 64;
};

/// Service-wide knobs.
struct ServiceOptions {
  /// Dispatch lanes: queued queries executed concurrently (the
  /// RunUntilIdle caller plus max_concurrent - 1 scheduler workers).
  size_t max_concurrent = 4;
  /// Per-query memory grant brokered against the database's global pool.
  size_t grant_bytes = 1 << 20;
  /// How long a query waits for its grant (and, via
  /// MemoryPool::set_wait_timeout, how long Fix/Arena wait under pressure)
  /// before failing with kResourceExhausted.
  std::chrono::milliseconds grant_timeout{500};
};

/// One division request as submitted to the service.
struct QueryRequest {
  DivisionQuery query;
  /// Algorithm for the non-cached path (the cache is algorithm-agnostic:
  /// all four algorithms produce the same quotient).
  DivisionAlgorithm algorithm = DivisionAlgorithm::kHashDivision;
  DivisionOptions options;
  /// Force a direct plan execution instead of the quotient cache
  /// (differential tests compare the two paths).
  bool bypass_cache = false;
};

/// Handle to one submitted query. Cancel() may be called from any thread at
/// any time; the running query unwinds cooperatively with a kCancelled
/// status, releasing its grant. Results are valid once done() is true
/// (RunUntilIdle has returned, or done() observed true). A cache hit is
/// done when Submit returns it.
class QueryTicket {
 public:
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }
  bool done() const { return done_.load(std::memory_order_acquire); }

  const Status& status() const { return status_; }
  /// The quotient; empty until done() or when the query failed. A cache
  /// hit shares the cache's published vector instead of copying it.
  const std::vector<Tuple>& quotient() const {
    static const std::vector<Tuple> kEmpty;
    return quotient_ != nullptr ? *quotient_ : kEmpty;
  }
  bool cache_hit() const { return cache_hit_; }
  const std::string& tenant() const { return tenant_; }
  uint64_t queue_wait_us() const { return queue_wait_us_; }
  uint64_t exec_us() const { return exec_us_; }

 private:
  friend class DivisionService;
  QueryTicket(std::string tenant, QueryRequest request)
      : tenant_(std::move(tenant)), request_(std::move(request)) {}

  std::string tenant_;
  QueryRequest request_;
  std::chrono::steady_clock::time_point submit_time_;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> done_{false};
  Status status_;
  QuotientCache::QuotientPtr quotient_;
  bool cache_hit_ = false;
  uint64_t queue_wait_us_ = 0;
  uint64_t exec_us_ = 0;
};

/// Multi-query front end over one Database: accepts concurrent division
/// requests, answers cache hits at Submit, queues the rest FIFO per tenant
/// behind bounded admission, and executes them on max_concurrent lanes of
/// the shared TaskScheduler, each lane admitting its next ticket by smooth
/// weighted round-robin across tenants as soon as it is free. Every queued
/// query runs under its own memory grant — ReserveWithDeadline against the
/// global pool (condvar wait, no busy spin), with a private per-query
/// MemoryPool of exactly the grant size backing its hash tables and temp
/// space — and its own ExecContext carrying the ticket's cancellation flag.
///
/// Repeat queries are served from the QuotientCache; the constructor wires
/// the cache into the database's update-observer hook so catalog mutations
/// maintain cached quotients incrementally instead of invalidating them. A
/// hit whose published snapshot matches the stores' versions is completed
/// on the Submit caller's thread: no queue slot, no grant, no entry lock.
///
/// Thread-safe: Submit/Cancel may race RunUntilIdle. RunUntilIdle itself is
/// single-caller (one dispatcher; the parallelism is across its lanes).
class DivisionService {
 public:
  explicit DivisionService(Database* db, ServiceOptions options = {});

  /// Declares a tenant's weight and queue bound. Unregistered tenants are
  /// auto-registered with default TenantOptions on first Submit.
  void RegisterTenant(const std::string& tenant, TenantOptions options);

  /// Answers a cache hit at once (the returned ticket is done, with
  /// cache_hit() and a zero queue wait) or enqueues the query.
  /// InvalidArgument, before the cache or the queue is touched, when
  /// ValidateDivisionOptions refuses the request's algorithm and options
  /// (the cached path would otherwise ignore them), or when a cached
  /// request's query does not resolve. kResourceExhausted when the tenant's
  /// bounded FIFO is full (admission control) — the caller backs off and
  /// resubmits.
  Result<std::shared_ptr<QueryTicket>> Submit(const std::string& tenant,
                                              QueryRequest request);

  /// Drains all queues on max_concurrent lanes: each lane admits one ticket
  /// by weighted fairness, executes it, and admits the next, until every
  /// queue is empty (tickets submitted while a lane still runs are drained
  /// too). Per-query failures (including cancellations and grant timeouts)
  /// land in their tickets; the returned status is only about the dispatch
  /// machinery itself.
  Status RunUntilIdle();

  QuotientCache* cache() { return cache_.get(); }

  // Lifetime statistics (mirror the reldiv_service_* metric family).
  uint64_t queries_run() const { return queries_run_.load(); }
  uint64_t admission_rejects() const { return admission_rejects_.load(); }
  uint64_t cancelled() const { return cancelled_.load(); }
  uint64_t grant_timeouts() const { return grant_timeouts_.load(); }
  uint64_t queue_depth_high_water() const {
    return queue_depth_high_water_.load();
  }
  size_t active_queries() const { return active_.load(); }

  /// Tenant names in the order AdmitOne popped them — the deterministic
  /// fairness trace the tests assert on (which lane runs a ticket, and
  /// when, is up to the scheduler; admission order is not).
  std::vector<std::string> admission_log() const {
    MutexLock lock(mu_);
    return admission_log_;
  }

 private:
  struct TenantState {
    TenantOptions options;
    int64_t credit = 0;  ///< smooth-WRR accumulator
    std::deque<std::shared_ptr<QueryTicket>> queue;
  };

  /// Pops one ticket by smooth weighted round-robin, or null when every
  /// queue is empty: every backlogged tenant earns its weight in credit,
  /// the richest tenant is picked and pays back the total weight in play.
  std::shared_ptr<QueryTicket> AdmitOne();

  /// Runs one queued query start to finish; never throws the status past
  /// the ticket. Safe to call from scheduler lanes.
  void ExecuteOne(QueryTicket* ticket);

  /// Counts the finished query in the lifetime statistics and metrics,
  /// then marks the ticket done (last, so a waiter sees every field).
  void Finish(QueryTicket* ticket);

  /// Grant + context + plan/cache execution; the Status lands in the ticket.
  Status RunQuery(QueryTicket* ticket);

  Database* db_;
  ServiceOptions options_;
  std::shared_ptr<QuotientCache> cache_;

  mutable Mutex mu_;
  std::map<std::string, TenantState> tenants_ GUARDED_BY(mu_);
  std::vector<std::string> admission_log_ GUARDED_BY(mu_);

  std::atomic<uint64_t> queries_run_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> grant_timeouts_{0};
  std::atomic<uint64_t> queue_depth_high_water_{0};
  std::atomic<size_t> active_{0};
};

}  // namespace reldiv

#endif  // RELDIV_SERVICE_SERVICE_H_
