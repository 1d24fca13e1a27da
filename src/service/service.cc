#include "service/service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/counters.h"
#include "common/metric_names.h"
#include "exec/exec_context.h"
#include "exec/scheduler.h"
#include "obs/telemetry.h"
#include "storage/memory_manager.h"

namespace reldiv {
namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Releases a global-pool grant on every exit path (including cancellation
/// unwinds) exactly once.
class GrantGuard {
 public:
  GrantGuard(MemoryPool* pool, size_t bytes) : pool_(pool), bytes_(bytes) {}
  ~GrantGuard() {
    if (pool_ != nullptr) pool_->Release(bytes_);
  }
  GrantGuard(const GrantGuard&) = delete;
  GrantGuard& operator=(const GrantGuard&) = delete;

 private:
  MemoryPool* pool_;
  size_t bytes_;
};

}  // namespace

DivisionService::DivisionService(Database* db, ServiceOptions options)
    : db_(db),
      options_(options),
      cache_(std::make_shared<QuotientCache>()) {
  if (db_->pool() != nullptr && options_.grant_timeout.count() > 0) {
    // Contending queries park on the pool condvar instead of failing or
    // spinning; see MemoryPool::set_wait_timeout.
    db_->pool()->set_wait_timeout(options_.grant_timeout);
  }
  // The observer captures the cache by shared_ptr: the database may
  // outlive this service, and observers are never deregistered.
  std::shared_ptr<QuotientCache> cache = cache_;
  db_->AddUpdateObserver(
      [cache](const std::string& /*table*/, RecordStore* store,
              const Tuple& tuple, bool inserted) {
        cache->OnStoreUpdate(store, tuple, inserted);
      });
}

void DivisionService::RegisterTenant(const std::string& tenant,
                                     TenantOptions options) {
  MutexLock lock(mu_);
  tenants_[tenant].options = options;
}

Result<std::shared_ptr<QueryTicket>> DivisionService::Submit(
    const std::string& tenant, QueryRequest request) {
  // Refused options fail here, before admission, whichever path (cache or
  // direct plan) would run the query.
  RELDIV_RETURN_NOT_OK(
      ValidateDivisionOptions(request.algorithm, request.options));
  const auto submit_time = std::chrono::steady_clock::now();
  QuotientCache::QuotientPtr hit;
  if (!request.bypass_cache) {
    RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved,
                            ResolveDivision(request.query));
    hit = cache_->TryHit(resolved);
  }
  // QueryTicket's constructor is private to this friend, which make_shared
  // cannot reach; ownership transfers to the shared_ptr on the same line.
  std::shared_ptr<QueryTicket> ticket(
      // NOLINTNEXTLINE(reldiv/naked-new): private ctor, make_shared cannot
      new QueryTicket(tenant, std::move(request)));
  ticket->submit_time_ = submit_time;
  if (hit != nullptr) {
    // A hit needs no lane, grant or entry lock: it completes here.
    ticket->quotient_ = std::move(hit);
    ticket->cache_hit_ = true;
    ticket->exec_us_ = ElapsedUs(submit_time);
    Finish(ticket.get());
    return ticket;
  }
  size_t depth = 0;
  {
    MutexLock lock(mu_);
    TenantState& state = tenants_[tenant];  // auto-registers defaults
    if (state.queue.size() >= state.options.max_queue_depth) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      if (Telemetry::counting()) {
        MetricRegistry::Global()
            .FindOrCreateCounter(metric_names::kServiceAdmissionRejectsTotal,
                                 "tenant", tenant)
            ->Add(1);
      }
      return Status::ResourceExhausted(
          "tenant '" + tenant + "' queue full (" +
          std::to_string(state.options.max_queue_depth) + " queries)");
    }
    state.queue.push_back(ticket);
    depth = state.queue.size();
  }
  uint64_t high_water = queue_depth_high_water_.load(std::memory_order_relaxed);
  while (depth > high_water &&
         !queue_depth_high_water_.compare_exchange_weak(
             high_water, depth, std::memory_order_relaxed)) {
  }
  if (Telemetry::counting()) {
    MetricRegistry::Global()
        .FindOrCreateGauge(metric_names::kServiceQueueDepthHighWater)
        ->UpdateMax(depth);
  }
  return ticket;
}

std::shared_ptr<QueryTicket> DivisionService::AdmitOne() {
  MutexLock lock(mu_);
  int64_t total_weight = 0;
  TenantState* best = nullptr;
  for (auto& [name, state] : tenants_) {
    if (state.queue.empty()) continue;
    const int64_t weight =
        static_cast<int64_t>(std::max<uint64_t>(state.options.weight, 1));
    state.credit += weight;
    total_weight += weight;
    if (best == nullptr || state.credit > best->credit) best = &state;
  }
  if (best == nullptr) return nullptr;
  best->credit -= total_weight;
  std::shared_ptr<QueryTicket> ticket = std::move(best->queue.front());
  best->queue.pop_front();
  admission_log_.push_back(ticket->tenant());
  return ticket;
}

Status DivisionService::RunUntilIdle() {
  // An idle call wakes no lane.
  std::shared_ptr<QueryTicket> first = AdmitOne();
  if (first == nullptr) return Status::OK();
  // Continuous dispatch: a lane admits its next ticket as soon as it is
  // free, whatever the other lanes are running.
  const size_t lanes = std::max<size_t>(options_.max_concurrent, 1);
  return TaskScheduler::Global().ParallelFor(
      lanes, lanes, [&first, this](size_t lane) {
        std::shared_ptr<QueryTicket> ticket =
            lane == 0 ? std::move(first) : AdmitOne();
        for (; ticket != nullptr; ticket = AdmitOne()) {
          ExecuteOne(ticket.get());
        }
        return Status::OK();
      });
}

void DivisionService::ExecuteOne(QueryTicket* ticket) {
  const auto start = std::chrono::steady_clock::now();
  ticket->queue_wait_us_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          start - ticket->submit_time_)
          .count());
  const size_t now_active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Telemetry::counting()) {
    MetricRegistry::Global()
        .FindOrCreateGauge(metric_names::kServiceActiveQueries)
        ->UpdateMax(now_active);
  }

  ticket->status_ = RunQuery(ticket);

  ticket->exec_us_ = ElapsedUs(start);
  active_.fetch_sub(1, std::memory_order_relaxed);
  Finish(ticket);
}

void DivisionService::Finish(QueryTicket* ticket) {
  queries_run_.fetch_add(1, std::memory_order_relaxed);
  if (ticket->status_.IsCancelled()) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  if (Telemetry::counting()) {
    MetricRegistry& registry = MetricRegistry::Global();
    registry
        .FindOrCreateCounter(metric_names::kServiceQueriesTotal, "tenant",
                             ticket->tenant_)
        ->Add(1);
    registry
        .FindOrCreateHistogram(metric_names::kServiceQueueWaitMicros, "tenant",
                               ticket->tenant_)
        ->Record(ticket->queue_wait_us_);
    registry
        .FindOrCreateHistogram(metric_names::kServiceQueryLatencyMicros,
                               "tenant", ticket->tenant_)
        ->Record(ticket->exec_us_);
    if (ticket->status_.IsCancelled()) {
      registry.FindOrCreateCounter(metric_names::kServiceCancelledTotal)
          ->Add(1);
    }
  }
  ticket->done_.store(true, std::memory_order_release);
}

Status DivisionService::RunQuery(QueryTicket* ticket) {
  if (ticket->cancel_requested()) {
    return Status::Cancelled("query cancelled before execution");
  }

  // Broker the per-query grant against the global pool. The grant is pure
  // admission accounting: the query's own allocations go through a private
  // pool of exactly the grant size, so a query can never draw more from the
  // shared budget than it was granted.
  MemoryPool* global_pool = db_->pool();
  std::optional<GrantGuard> grant;
  std::optional<MemoryPool> local_pool;
  if (global_pool != nullptr) {
    Status granted = global_pool->ReserveWithDeadline(options_.grant_bytes,
                                                      options_.grant_timeout);
    if (!granted.ok()) {
      if (granted.IsResourceExhausted()) {
        grant_timeouts_.fetch_add(1, std::memory_order_relaxed);
        if (Telemetry::counting()) {
          MetricRegistry::Global()
              .FindOrCreateCounter(metric_names::kServiceGrantTimeoutsTotal)
              ->Add(1);
        }
      }
      return granted;
    }
    grant.emplace(global_pool, options_.grant_bytes);
    local_pool.emplace(options_.grant_bytes);
  }

  CpuCounters counters;
  ExecContext ctx(db_->disk(), db_->buffer_manager(),
                  local_pool.has_value() ? &*local_pool : nullptr, &counters);
  ctx.set_cancellation_flag(&ticket->cancel_);

  if (!ticket->request_.bypass_cache) {
    RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved,
                            ResolveDivision(ticket->request_.query));
    bool hit = false;
    RELDIV_ASSIGN_OR_RETURN(ticket->quotient_,
                            cache_->GetOrCompute(resolved, &ctx, &hit));
    ticket->cache_hit_ = hit;
    return Status::OK();
  }

  RELDIV_ASSIGN_OR_RETURN(
      std::unique_ptr<Operator> plan,
      MakeDivisionPlan(&ctx, ticket->request_.query, ticket->request_.algorithm,
                       ticket->request_.options));
  // Drain() closes the plan on every path: the cancellation unwind must
  // still run operator teardown so arenas reset and reservations release.
  auto quotient = std::make_shared<std::vector<Tuple>>();
  RELDIV_RETURN_NOT_OK(
      Drain(plan.get(), ctx.batch_capacity(), &ctx, [&](TupleBatch& batch) {
        for (Tuple& tuple : batch) quotient->push_back(std::move(tuple));
        return Status::OK();
      }));
  ticket->quotient_ = std::move(quotient);
  return Status::OK();
}

}  // namespace reldiv
