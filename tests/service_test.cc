#include "service/service.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metric_names.h"
#include "division/division.h"
#include "exec/batch.h"
#include "exec/database.h"
#include "gtest/gtest.h"
#include "obs/telemetry.h"
#include "planner/adaptive.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "storage/memory_manager.h"
#include "testing/failpoint.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// MemoryPool grant waiting (the busy-spin bugfix)
// ---------------------------------------------------------------------------

TEST(MemoryPoolGrantTest, ReserveWithDeadlineWaitsForRelease) {
  MemoryPool pool(kPageSize);
  ASSERT_TRUE(pool.Reserve(kPageSize));  // another query holds the budget
  const uint64_t waits_before =
      MetricRegistry::Global()
          .FindOrCreateCounter(metric_names::kMemGrantWaitsTotal)
          ->value();

  std::thread releaser([&pool] {
    std::this_thread::sleep_for(milliseconds(50));
    pool.Release(kPageSize);
  });
  // The waiter parks on the condvar (no spin) and is woken by the Release.
  Status granted = pool.ReserveWithDeadline(kPageSize, milliseconds(5000));
  releaser.join();
  ASSERT_OK(granted);
  EXPECT_EQ(pool.used(), kPageSize);
  EXPECT_GT(MetricRegistry::Global()
                .FindOrCreateCounter(metric_names::kMemGrantWaitsTotal)
                ->value(),
            waits_before);
  pool.Release(kPageSize);
}

TEST(MemoryPoolGrantTest, ReserveWithDeadlineTimesOutExhausted) {
  MemoryPool pool(kPageSize);
  ASSERT_TRUE(pool.Reserve(kPageSize));
  const auto start = steady_clock::now();
  Status denied = pool.ReserveWithDeadline(kPageSize, milliseconds(40));
  EXPECT_TRUE(denied.IsResourceExhausted()) << denied.ToString();
  // The deadline was honored: the call blocked for about the timeout, and
  // the failed grant left no residue.
  EXPECT_GE(steady_clock::now() - start, milliseconds(35));
  EXPECT_EQ(pool.used(), kPageSize);
  pool.Release(kPageSize);
}

TEST(MemoryPoolGrantTest, TwoQueriesContendOverOnePageBudget) {
  // Regression for the grant-loop busy spin: two "queries" alternating over
  // a one-page budget must BOTH complete, each waiting (not failing, not
  // spinning) while the other holds the page.
  MemoryPool pool(kPageSize);
  std::atomic<int> completed{0};
  std::atomic<size_t> max_used{0};
  auto query = [&] {
    for (int i = 0; i < 25; ++i) {
      Status granted = pool.ReserveWithDeadline(kPageSize, milliseconds(5000));
      ASSERT_OK(granted);
      size_t used = pool.used();
      size_t seen = max_used.load();
      while (used > seen && !max_used.compare_exchange_weak(seen, used)) {
      }
      std::this_thread::yield();
      pool.Release(kPageSize);
    }
    completed.fetch_add(1);
  };
  std::thread a(query), b(query);
  a.join();
  b.join();
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_LE(max_used.load(), pool.budget()) << "grants exceeded the budget";
}

TEST(MemoryPoolGrantTest, ForcedDenialFailsFastInsteadOfWaiting) {
  // A failpoint denial is not exhaustion: no release can lift it, so the
  // grant fails at once instead of waiting out the deadline.
  MemoryPool pool(kPageSize);
  ScopedFailpoint always("memory/reserve", FailpointPolicy::Always());
  const auto start = steady_clock::now();
  Status denied = pool.ReserveWithDeadline(kPageSize, milliseconds(5000));
  EXPECT_TRUE(denied.IsResourceExhausted()) << denied.ToString();
  EXPECT_LT(steady_clock::now() - start, milliseconds(1000));
  EXPECT_EQ(pool.used(), 0u);
}

TEST(MemoryPoolGrantTest, TortureEightThreadsUsedNeverExceedsBudget) {
  constexpr size_t kPages = 4;
  MemoryPool pool(kPages * kPageSize);
  std::atomic<bool> over_budget{false};
  std::atomic<uint64_t> grants{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, &over_budget, &grants, t] {
      // Mixed sizes so wakeups race for different amounts of space.
      const size_t bytes = ((t % kPages) + 1) * kPageSize;
      for (int i = 0; i < 200; ++i) {
        if (pool.ReserveWithDeadline(bytes, milliseconds(2000)).ok()) {
          if (pool.used() > pool.budget()) over_budget.store(true);
          grants.fetch_add(1);
          pool.Release(bytes);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(over_budget.load()) << "used exceeded budget under contention";
  EXPECT_EQ(pool.used(), 0u) << "leaked reservation after torture";
  EXPECT_GT(grants.load(), 0u);
}

TEST(MemoryPoolGrantTest, ArenaWaitsForSpaceUnderTimeout) {
  MemoryPool pool(64 * 1024);
  pool.set_wait_timeout(milliseconds(5000));
  ASSERT_TRUE(pool.Reserve(pool.budget()));  // full
  std::thread releaser([&pool] {
    std::this_thread::sleep_for(milliseconds(50));
    pool.Release(pool.budget());
  });
  Arena arena(&pool);
  void* p = arena.Allocate(256);  // parks until the release, then succeeds
  releaser.join();
  EXPECT_NE(p, nullptr);
  arena.Reset();
  EXPECT_EQ(pool.used(), 0u);
}

TEST(MemoryPoolGrantTest, ArenaStillFailsFastWithoutTimeout) {
  MemoryPool pool(64 * 1024);  // wait_timeout defaults to 0
  ASSERT_TRUE(pool.Reserve(pool.budget()));
  Arena arena(&pool);
  // Pre-service behavior preserved: immediate nullptr, §3.4 overflow
  // handling takes over.
  EXPECT_EQ(arena.Allocate(256), nullptr);
  pool.Release(pool.budget());
}

TEST(BufferManagerGrantTest, FixWaitsForGrantReleaseThenSucceeds) {
  SimDisk disk;
  MemoryPool pool(kPageSize);
  pool.set_wait_timeout(milliseconds(5000));
  BufferManager bm(&disk, &pool);
  pool.SetReclaimer([&bm] { return bm.TryShedFrame(); });

  // A grant holds the whole budget; nothing is sheddable, so Fix must park
  // on the pool condvar (with the buffer-manager mutex dropped) until the
  // grant releases.
  ASSERT_TRUE(pool.Reserve(kPageSize));
  std::thread releaser([&pool] {
    std::this_thread::sleep_for(milliseconds(50));
    pool.Release(kPageSize);
  });
  auto fixed = bm.Fix(0, /*create=*/true);
  releaser.join();
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  ASSERT_OK(bm.Unfix(0, /*dirty=*/true));
  // Stats stay exact across the retry loop: the waited Fix is ONE fix.
  EXPECT_EQ(bm.stats().fixes, bm.stats().hits + bm.stats().misses);
  EXPECT_EQ(bm.stats().fixes, 1u);
}

TEST(BufferManagerGrantTest, FixDeadlineSurfacesResourceExhausted) {
  SimDisk disk;
  MemoryPool pool(kPageSize);
  pool.set_wait_timeout(milliseconds(40));
  BufferManager bm(&disk, &pool);
  pool.SetReclaimer([&bm] { return bm.TryShedFrame(); });
  ASSERT_TRUE(pool.Reserve(kPageSize));  // never released

  const auto start = steady_clock::now();
  auto fixed = bm.Fix(0, /*create=*/true);
  EXPECT_TRUE(fixed.status().IsResourceExhausted())
      << fixed.status().ToString();
  EXPECT_GE(steady_clock::now() - start, milliseconds(35));
  pool.Release(kPageSize);
}

// ---------------------------------------------------------------------------
// TupleBatch reservation accounting (the zero-before-release bugfix)
// ---------------------------------------------------------------------------

TEST(TupleBatchReservationTest, ChurnNeverOverCreditsThePool) {
  MemoryPool pool(1 << 20);
  ASSERT_TRUE(pool.Reserve(kPageSize));  // an unrelated holder
  {
    TupleBatch batch(64, &pool);
    const size_t with_batch = pool.used();
    ASSERT_GT(with_batch, kPageSize);
    // Each ResetCapacity releases and re-reserves; any double credit would
    // drift the accounting downward and eventually eat the holder's page.
    for (int i = 0; i < 10; ++i) {
      batch.ResetCapacity(64, &pool);
      EXPECT_EQ(pool.used(), with_batch);
    }
    TupleBatch stolen(std::move(batch));
    EXPECT_EQ(pool.used(), with_batch);
    batch = std::move(stolen);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(pool.used(), with_batch);
  }
  EXPECT_EQ(pool.used(), kPageSize) << "batch accounting drifted";
  pool.Release(kPageSize);
  EXPECT_EQ(pool.used(), 0u);
}

// ---------------------------------------------------------------------------
// DivisionStatsCache LRU bound (the unbounded-growth bugfix)
// ---------------------------------------------------------------------------

TEST(StatsCacheLruTest, ResidencyIsBoundedWithEvictionsCounted) {
  DivisionStatsCache& cache = DivisionStatsCache::Global();
  cache.Clear();
  cache.set_max_entries(4);
  const uint64_t evictions_before = cache.evictions();
  const uint64_t metric_before =
      MetricRegistry::Global()
          .FindOrCreateCounter(metric_names::kStatsCacheEvictions)
          ->value();

  // Distinct store identities -> distinct keys (never dereferenced).
  std::vector<std::unique_ptr<VirtualDevice>> stores;
  for (int i = 0; i < 10; ++i) {
    stores.push_back(std::make_unique<VirtualDevice>(
        nullptr, "stats_lru_" + std::to_string(i)));
  }
  Schema two_col{Field{"q", ValueType::kInt64}, Field{"d", ValueType::kInt64}};
  Schema one_col{Field{"d", ValueType::kInt64}};
  VirtualDevice divisor(nullptr, "stats_lru_divisor");
  for (int i = 0; i < 10; ++i) {
    ResolvedDivision resolved;
    resolved.dividend = Relation{two_col, stores[i].get()};
    resolved.divisor = Relation{one_col, &divisor};
    resolved.match_attrs = {1};
    DivisionStatsCache::Entry entry;
    entry.dividend_tuples = 100 + i;
    cache.RecordObservation(resolved, entry.dividend_tuples, 10, 10);
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions() - evictions_before, 6u);
  EXPECT_EQ(MetricRegistry::Global()
                    .FindOrCreateCounter(metric_names::kStatsCacheEvictions)
                    ->value() -
                metric_before,
            6u);

  // Restore the global for whoever runs next in this process.
  cache.Clear();
  cache.set_max_entries(DivisionStatsCache::kDefaultMaxEntries);
}

// ---------------------------------------------------------------------------
// DivisionService end to end
// ---------------------------------------------------------------------------

class DivisionServiceTest : public ::testing::Test {
 protected:
  void MakeDatabase(size_t pool_bytes) {
    DatabaseOptions options;
    options.pool_bytes = pool_bytes;
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
    ASSERT_OK_AND_ASSIGN(
        dividend_, db_->CreateTable("r", Schema{Field{"q", ValueType::kInt64},
                                                Field{"d", ValueType::kInt64}}));
    ASSERT_OK_AND_ASSIGN(
        divisor_, db_->CreateTable("s", Schema{Field{"d", ValueType::kInt64}}));
    for (int64_t d = 0; d < 4; ++d) ASSERT_OK(db_->Insert("s", T(d)));
    for (int64_t q = 0; q < 32; ++q) {
      for (int64_t d = 0; d < 4; ++d) {
        if (q % 5 == 0 && d == 2) continue;  // every 5th q is incomplete
        ASSERT_OK(db_->Insert("r", T(q, d)));
      }
    }
    for (int64_t q = 0; q < 32; ++q) {
      if (q % 5 != 0) expected_.push_back(T(q));
    }
  }

  QueryRequest Request() {
    QueryRequest request;
    request.query = DivisionQuery{dividend_, divisor_, {"d"}};
    return request;
  }

  std::unique_ptr<Database> db_;
  Relation dividend_;
  Relation divisor_;
  std::vector<Tuple> expected_;
};

TEST_F(DivisionServiceTest, MultiTenantQueriesAllCompleteCorrectly) {
  MakeDatabase(8 * 1024 * 1024);
  ServiceOptions options;
  options.max_concurrent = 4;
  options.grant_bytes = 1 << 20;
  DivisionService service(db_.get(), options);
  service.RegisterTenant("alpha", TenantOptions{3, 16});
  service.RegisterTenant("beta", TenantOptions{1, 16});

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK_AND_ASSIGN(auto ticket,
                         service.Submit(i % 2 == 0 ? "alpha" : "beta",
                                        Request()));
    tickets.push_back(std::move(ticket));
  }
  ASSERT_OK(service.RunUntilIdle());

  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->done());
    ASSERT_OK(ticket->status());
    EXPECT_EQ(Sorted(ticket->quotient()), expected_);
  }
  EXPECT_EQ(service.queries_run(), 6u);
  // First execution is the cold build; every later one is served from the
  // maintained entry.
  EXPECT_EQ(service.cache()->misses(), 1u);
  EXPECT_EQ(service.cache()->hits(), 5u);

  // Grants all released: a second round returns the pool to the same level
  // (buffer-pool residency is steady; a leaked 1 MB grant would show).
  const size_t steady_used = db_->pool()->used();
  ASSERT_OK_AND_ASSIGN(auto again, service.Submit("alpha", Request()));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(again->status());
  EXPECT_EQ(db_->pool()->used(), steady_used) << "grants leaked";
}

TEST_F(DivisionServiceTest, CachedResultsSurviveMutationsViaMaintenance) {
  MakeDatabase(8 * 1024 * 1024);
  DivisionService service(db_.get(), ServiceOptions{});
  ASSERT_OK_AND_ASSIGN(auto cold, service.Submit("t", Request()));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(cold->status());
  EXPECT_FALSE(cold->cache_hit());

  // Complete q=0's divisor set through the catalog; the observer maintains
  // the cached quotient incrementally.
  ASSERT_OK(db_->Insert("r", T(0, 2)));
  ASSERT_OK_AND_ASSIGN(auto warm, service.Submit("t", Request()));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(warm->status());
  EXPECT_TRUE(warm->cache_hit());
  std::vector<Tuple> expected = expected_;
  expected.push_back(T(0));
  EXPECT_EQ(Sorted(warm->quotient()), Sorted(expected));
  EXPECT_GE(service.cache()->incremental_updates(), 1u);
  EXPECT_EQ(service.cache()->invalidations(), 0u);

  // The bypass path recomputes from scratch and must agree bit for bit.
  QueryRequest direct = Request();
  direct.bypass_cache = true;
  ASSERT_OK_AND_ASSIGN(auto recomputed, service.Submit("t", direct));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(recomputed->status());
  EXPECT_FALSE(recomputed->cache_hit());
  EXPECT_EQ(Sorted(recomputed->quotient()), Sorted(warm->quotient()));
}

TEST_F(DivisionServiceTest, WeightedFairnessShapesAdmissionOrder) {
  MakeDatabase(0);  // unbounded pool: this test is about ordering only
  ServiceOptions options;
  options.max_concurrent = 4;
  DivisionService service(db_.get(), options);
  service.RegisterTenant("heavy", TenantOptions{3, 16});
  service.RegisterTenant("light", TenantOptions{1, 16});

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(auto t, service.Submit("heavy", Request()));
    tickets.push_back(std::move(t));
    ASSERT_OK_AND_ASSIGN(t, service.Submit("light", Request()));
    tickets.push_back(std::move(t));
  }
  ASSERT_OK(service.RunUntilIdle());
  for (const auto& ticket : tickets) ASSERT_OK(ticket->status());

  // Smooth WRR at weights 3:1 admits heavy three times per four picks with
  // no starvation while both are backlogged (heavy, heavy, light, heavy),
  // then drains the remaining light queries.
  const std::vector<std::string> expected_order = {
      "heavy", "heavy", "light", "heavy",
      "heavy", "light", "light", "light"};
  EXPECT_EQ(service.admission_log(), expected_order);
}

TEST_F(DivisionServiceTest, TicketsSubmittedDuringRunUntilIdleAllComplete) {
  MakeDatabase(8 * 1024 * 1024);
  ServiceOptions options;
  options.max_concurrent = 3;
  DivisionService service(db_.get(), options);
  QueryRequest cold = Request();
  cold.bypass_cache = true;  // queued whatever the cache holds

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK_AND_ASSIGN(auto ticket, service.Submit("a", cold));
    tickets.push_back(std::move(ticket));
  }
  // A second thread keeps submitting, cold and cached reads for two
  // tenants, while the lanes drain: a free lane admits whatever is queued.
  std::vector<std::shared_ptr<QueryTicket>> late;
  Status submit_status;
  std::thread submitter([&] {
    for (int i = 0; i < 24 && submit_status.ok(); ++i) {
      auto ticket = service.Submit(i % 2 == 0 ? "a" : "b",
                                   i % 3 == 0 ? Request() : cold);
      if (ticket.ok()) {
        late.push_back(ticket.MoveValue());
      } else {
        submit_status = ticket.status();
      }
    }
  });
  ASSERT_OK(service.RunUntilIdle());
  submitter.join();
  ASSERT_OK(submit_status);
  // Tickets queued after the lanes went idle wait for the next call.
  ASSERT_OK(service.RunUntilIdle());

  tickets.insert(tickets.end(), late.begin(), late.end());
  ASSERT_EQ(tickets.size(), 30u);
  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->done());
    ASSERT_OK(ticket->status());
    EXPECT_EQ(Sorted(ticket->quotient()), expected_);
  }
  EXPECT_EQ(service.queries_run(), 30u);
  // Every ticket that was not answered at Submit was admitted exactly once.
  size_t answered_at_submit = 0;
  for (const auto& ticket : tickets) {
    if (ticket->cache_hit() && ticket->queue_wait_us() == 0) {
      answered_at_submit++;
    }
  }
  EXPECT_LE(answered_at_submit, 8u);  // at most the 8 cached reads
  EXPECT_EQ(service.admission_log().size(), 30u - answered_at_submit);
}

TEST_F(DivisionServiceTest, CacheHitIsAnsweredAtSubmitWithoutAGrant) {
  MakeDatabase(4 << 20);
  ServiceOptions options;
  options.grant_bytes = 1 << 20;
  options.grant_timeout = milliseconds(40);
  DivisionService service(db_.get(), options);
  ASSERT_OK_AND_ASSIGN(auto warm, service.Submit("t", Request()));
  EXPECT_FALSE(warm->done()) << "nothing is cached yet: the read queues";
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(warm->status());
  EXPECT_FALSE(warm->cache_hit());

  // Hold the whole global pool: no query can take a grant now.
  MemoryPool* pool = db_->pool();
  const size_t held = pool->available();
  ASSERT_TRUE(pool->Reserve(held));
  const uint64_t run_before = service.queries_run();
  const uint64_t hits_before = service.cache()->hits();
  const size_t admitted_before = service.admission_log().size();

  ASSERT_OK_AND_ASSIGN(auto hit, service.Submit("t", Request()));
  EXPECT_TRUE(hit->done()) << "a hit completes inside Submit";
  ASSERT_OK(hit->status());
  EXPECT_TRUE(hit->cache_hit());
  EXPECT_EQ(hit->queue_wait_us(), 0u);
  EXPECT_EQ(Sorted(hit->quotient()), expected_);
  EXPECT_EQ(service.queries_run(), run_before + 1);
  EXPECT_EQ(service.cache()->hits(), hits_before + 1);
  // No grant was taken or waited for, and the ticket was never queued.
  EXPECT_EQ(pool->used(), pool->budget());
  EXPECT_EQ(service.grant_timeouts(), 0u);
  EXPECT_EQ(service.admission_log().size(), admitted_before);

  // A cold read on the same service still needs a grant, and times out.
  QueryRequest cold = Request();
  cold.bypass_cache = true;
  ASSERT_OK_AND_ASSIGN(auto starved, service.Submit("t", cold));
  EXPECT_FALSE(starved->done());
  ASSERT_OK(service.RunUntilIdle());
  EXPECT_TRUE(starved->status().IsResourceExhausted())
      << starved->status().ToString();
  EXPECT_EQ(service.grant_timeouts(), 1u);
  pool->Release(held);
}

// Cached reads racing observer maintenance. Four threads submit cached
// reads while a fifth moves q=0 into and out of the quotient through the
// catalog (Insert / DeleteWhere pairs) and, between writes, drains the reads
// that fell through to the queue — so no query scans while a write runs. A
// read that lands between a write's version bump and its observer must fall
// through, never see a stale quotient and never invalidate. Sized by
// RELDIV_STRESS_ITERS (write pairs); check_all.sh runs it under TSan.
TEST_F(DivisionServiceTest, CachedReadsRacingMaintenanceSeeOnlyValidQuotients) {
  uint64_t iters = 50;
  if (const char* env = std::getenv("RELDIV_STRESS_ITERS")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) iters = parsed;
  }
  MakeDatabase(8 * 1024 * 1024);
  constexpr int kReaders = 4;
  constexpr size_t kQueueDepth = 1 << 16;
  DivisionService service(db_.get(), ServiceOptions{});
  for (int r = 0; r < kReaders; ++r) {
    service.RegisterTenant("reader" + std::to_string(r),
                           TenantOptions{1, kQueueDepth});
  }
  ASSERT_OK_AND_ASSIGN(auto warm, service.Submit("reader0", Request()));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(warm->status());

  // q=0 lacks only d=2; inserting (0, 2) completes it.
  const std::vector<Tuple> without = expected_;
  std::vector<Tuple> with = expected_;
  with.push_back(T(0));
  with = Sorted(with);

  // Each reader checks its hits as they return and keeps only the tickets
  // that fell through to the queue.
  struct Reader {
    std::vector<std::shared_ptr<QueryTicket>> queued;
    uint64_t at_submit = 0;
    uint64_t wrong = 0;
    Status status;
  };
  auto valid = [&](const QueryTicket& ticket) {
    const std::vector<Tuple> quotient = Sorted(ticket.quotient());
    return ticket.status().ok() && ticket.cache_hit() &&
           (quotient == without || quotient == with);
  };
  std::atomic<bool> writing{true};
  std::atomic<int> started{0};  // readers whose first Submit has returned
  std::vector<Reader> state(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Reader& reader = state[r];
      const std::string tenant = "reader" + std::to_string(r);
      while (writing.load(std::memory_order_acquire) &&
             reader.queued.size() < kQueueDepth) {
        auto ticket = service.Submit(tenant, Request());
        if (reader.at_submit + reader.queued.size() == 0) started++;
        if (!ticket.ok()) {
          reader.status = ticket.status();
          return;
        }
        if (!(*ticket)->done()) {
          reader.queued.push_back(ticket.MoveValue());
          continue;
        }
        reader.at_submit++;
        if (!valid(**ticket)) reader.wrong++;
      }
    });
  }
  // Every reader has read once before the first write, so the writes race
  // live readers however the threads are scheduled.
  while (started.load() < kReaders) std::this_thread::yield();
  Status writer_status;
  for (uint64_t i = 0; i < iters && writer_status.ok(); ++i) {
    writer_status = db_->Insert("r", T(0, 2));
    if (writer_status.ok()) writer_status = service.RunUntilIdle();
    if (writer_status.ok()) {
      writer_status = db_->DeleteWhere("r", [](const Tuple& t) {
                            return t.value(0).int64() == 0 &&
                                   t.value(1).int64() == 2;
                          }).status();
    }
    if (writer_status.ok()) writer_status = service.RunUntilIdle();
  }
  writing.store(false, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  ASSERT_OK(writer_status);
  ASSERT_OK(service.RunUntilIdle());

  uint64_t at_submit = 0;
  for (const Reader& reader : state) {
    ASSERT_OK(reader.status);
    EXPECT_EQ(reader.wrong, 0u) << "a hit at Submit saw a wrong quotient";
    at_submit += reader.at_submit;
    for (const auto& ticket : reader.queued) {
      ASSERT_TRUE(ticket->done());
      EXPECT_TRUE(valid(*ticket)) << ticket->status().ToString();
    }
  }
  EXPECT_GT(at_submit, 0u);
  EXPECT_EQ(service.cache()->invalidations(), 0u);
  EXPECT_EQ(service.cache()->incremental_updates(), 2 * iters);
  // The table's pages grew with the writes; with every frame dropped only a
  // leaked grant could hold pool memory.
  ASSERT_OK(db_->buffer_manager()->FlushAll());
  ASSERT_OK(db_->buffer_manager()->DropAll());
  EXPECT_EQ(db_->pool()->used(), 0u) << "grants leaked";
}

TEST_F(DivisionServiceTest, AdmissionControlBoundsTenantQueues) {
  MakeDatabase(0);
  DivisionService service(db_.get(), ServiceOptions{});
  service.RegisterTenant("bounded", TenantOptions{1, 2});
  ASSERT_OK(service.Submit("bounded", Request()).status());
  ASSERT_OK(service.Submit("bounded", Request()).status());
  Status rejected = service.Submit("bounded", Request()).status();
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  EXPECT_EQ(service.admission_rejects(), 1u);
  EXPECT_EQ(service.queue_depth_high_water(), 2u);
  // The queue drains; a resubmit is admitted.
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(service.Submit("bounded", Request()).status());
  ASSERT_OK(service.RunUntilIdle());
  EXPECT_EQ(service.queries_run(), 3u);
}

TEST_F(DivisionServiceTest, RefusedOptionsFailAtSubmitOnEitherPath) {
  MakeDatabase(0);
  DivisionService service(db_.get(), ServiceOptions{});
  service.RegisterTenant("t", TenantOptions{1, 1});
  std::vector<std::string> messages;
  for (bool bypass_cache : {false, true}) {
    QueryRequest request = Request();
    request.algorithm = DivisionAlgorithm::kNaive;
    request.options.early_output = true;  // hash-division only
    request.bypass_cache = bypass_cache;
    Status refused = service.Submit("t", request).status();
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
    messages.push_back(refused.ToString());
  }
  EXPECT_EQ(messages[0], messages[1]);
  // Neither refusal reached admission: nothing was queued or rejected, so
  // the one-deep queue still admits a valid request.
  EXPECT_EQ(service.admission_rejects(), 0u);
  EXPECT_EQ(service.queue_depth_high_water(), 0u);
  ASSERT_OK_AND_ASSIGN(auto ticket, service.Submit("t", Request()));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(ticket->status());
  EXPECT_EQ(service.queries_run(), 1u);
}

TEST_F(DivisionServiceTest, CancelledQueryUnwindsWithCleanStatusAndNoLeaks) {
  MakeDatabase(8 * 1024 * 1024);
  DivisionService service(db_.get(), ServiceOptions{});

  // Warm run so the buffer pool reaches steady state; then capture the
  // pool level every later run must return to.
  ASSERT_OK_AND_ASSIGN(auto warm, service.Submit("t", Request()));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(warm->status());
  const size_t steady_used = db_->pool()->used();
  const CpuCounters before = *db_->counters();

  // Cancelled before RunQuery starts: the query unwinds before any plan is
  // built.
  QueryRequest request = Request();
  request.bypass_cache = true;
  ASSERT_OK_AND_ASSIGN(auto ticket, service.Submit("t", request));
  ticket->Cancel();
  ASSERT_OK(service.RunUntilIdle());
  EXPECT_TRUE(ticket->done());
  EXPECT_TRUE(ticket->status().IsCancelled()) << ticket->status().ToString();
  EXPECT_EQ(service.cancelled(), 1u);
  EXPECT_EQ(db_->pool()->used(), steady_used) << "cancel leaked its grant";

  // Table 1 counters are monotone across the cancelled run: nothing the
  // unwind does may rewind the shared accounting.
  const CpuCounters& after = *db_->counters();
  EXPECT_GE(after.comparisons, before.comparisons);
  EXPECT_GE(after.hashes, before.hashes);
  EXPECT_GE(after.moves, before.moves);
  EXPECT_GE(after.bit_ops, before.bit_ops);

  // Cancelled mid-drain: an early-output, bypass-cache hash-division plan
  // builds its divisor table in Open() (the divisor's one page is pin 1)
  // and consumes its dividend inside NextBatch(), so failing pin 2 with
  // kCancelled lands in the service's root drain, which must still Close()
  // the plan.
  {
    DivisionService drain_service(db_.get(), ServiceOptions{});
    QueryRequest early = Request();
    early.bypass_cache = true;
    early.options.early_output = true;
    FailpointRegistry& failpoints = FailpointRegistry::Global();
    failpoints.Arm("buffer/fix",
                   FailpointPolicy::OnNthHit(2, StatusCode::kCancelled,
                                             "cancelled mid-drain"));
    ASSERT_OK_AND_ASSIGN(auto drained, drain_service.Submit("t", early));
    ASSERT_OK(drain_service.RunUntilIdle());
    const uint64_t fires = failpoints.fires("buffer/fix");
    failpoints.DisarmAll();
    EXPECT_EQ(fires, 1u);
    EXPECT_TRUE(drained->status().IsCancelled())
        << drained->status().ToString();
    EXPECT_EQ(drain_service.cancelled(), 1u);
    EXPECT_EQ(db_->pool()->used(), steady_used)
        << "mid-drain cancel leaked its grant or operator memory";
  }

  // Mid-flight cancellation through the execution context: the flag trips
  // the hash-division consume loop itself.
  std::atomic<bool> cancel{true};
  db_->ctx()->set_cancellation_flag(&cancel);
  Status mid = Divide(db_->ctx(), DivisionQuery{dividend_, divisor_, {"d"}},
                      DivisionAlgorithm::kHashDivision)
                   .status();
  EXPECT_TRUE(mid.IsCancelled()) << mid.ToString();
  db_->ctx()->set_cancellation_flag(nullptr);
  EXPECT_EQ(db_->pool()->used(), steady_used)
      << "mid-flight cancel leaked operator memory";
}

TEST_F(DivisionServiceTest, GrantTimeoutSurfacesAsResourceExhausted) {
  MakeDatabase(2 << 20);
  ServiceOptions options;
  options.grant_bytes = 1 << 20;  // half the pool; buffers keep the rest
  options.grant_timeout = milliseconds(40);
  DivisionService service(db_.get(), options);

  // An external reservation starves the grant; every query times out with
  // kResourceExhausted and counts a grant timeout.
  ASSERT_TRUE(db_->pool()->Reserve(2 << 20));
  ASSERT_OK_AND_ASSIGN(auto starved, service.Submit("t", Request()));
  ASSERT_OK(service.RunUntilIdle());
  EXPECT_TRUE(starved->status().IsResourceExhausted())
      << starved->status().ToString();
  EXPECT_EQ(service.grant_timeouts(), 1u);

  // Releasing the hold lets the same workload through.
  db_->pool()->Release(2 << 20);
  ASSERT_OK_AND_ASSIGN(auto unstarved, service.Submit("t", Request()));
  ASSERT_OK(service.RunUntilIdle());
  ASSERT_OK(unstarved->status());
  EXPECT_EQ(Sorted(unstarved->quotient()), expected_);
}

}  // namespace
}  // namespace reldiv
