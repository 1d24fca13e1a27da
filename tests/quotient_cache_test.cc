#include "service/quotient_cache.h"

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/row_codec.h"
#include "division/division.h"
#include "exec/database.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

// dividend(q, d) ÷ divisor(d): the canonical two-column shape every
// differential suite in this repo uses.
class QuotientCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.pool_bytes = 0;  // unbounded; memory behavior is service_test's
    ASSERT_OK_AND_ASSIGN(db_, Database::Open(options));
    ASSERT_OK_AND_ASSIGN(
        dividend_, db_->CreateTable("r", Schema{Field{"q", ValueType::kInt64},
                                                Field{"d", ValueType::kInt64}}));
    ASSERT_OK_AND_ASSIGN(
        divisor_, db_->CreateTable("s", Schema{Field{"d", ValueType::kInt64}}));
    // Incremental maintenance rides the catalog's update-observer hook, the
    // same wiring DivisionService installs.
    db_->AddUpdateObserver([this](const std::string&, RecordStore* store,
                                  const Tuple& tuple, bool inserted) {
      cache_.OnStoreUpdate(store, tuple, inserted);
    });
  }

  DivisionQuery Query() { return DivisionQuery{dividend_, divisor_, {"d"}}; }

  ResolvedDivision Resolved() {
    auto resolved = ResolveDivision(Query());
    EXPECT_TRUE(resolved.ok()) << resolved.status().ToString();
    return resolved.MoveValue();
  }

  /// Current table contents as tuples (ground-truth inputs).
  std::vector<Tuple> Rows(const Relation& relation) {
    RowCodec codec(relation.schema);
    std::vector<Tuple> rows;
    for (const ScannedRecord& record : ScanRecords(relation.store)) {
      Tuple tuple;
      EXPECT_OK(codec.Decode(Slice(record.payload), &tuple));
      rows.push_back(std::move(tuple));
    }
    return rows;
  }

  /// The quotient of the current table contents, from scratch.
  std::vector<Tuple> Recomputed() {
    return Sorted(
        ReferenceDivision(Rows(dividend_), Rows(divisor_), {1}, {0}));
  }

  /// What TryHit serves: the published snapshot must be current
  /// and equal to a from-scratch recompute.
  QuotientCache::QuotientPtr ExpectPublishedMatchesRecompute() {
    QuotientCache::QuotientPtr published = cache_.TryHit(Resolved());
    EXPECT_NE(published, nullptr) << "no current snapshot is published";
    if (published != nullptr) {
      EXPECT_EQ(Sorted(*published), Recomputed());
    }
    return published;
  }

  /// The cached quotient must be bit-identical to a from-scratch recompute
  /// by all four paper algorithms AND the brute-force reference.
  void ExpectCacheMatchesAllAlgorithms() {
    std::string state = "dividend:";
    for (const Tuple& t : Rows(dividend_)) state += " " + t.ToString();
    state += " divisor:";
    for (const Tuple& t : Rows(divisor_)) state += " " + t.ToString();
    SCOPED_TRACE(state);
    bool hit = false;
    ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr cached,
                         cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
    std::vector<Tuple> reference = Recomputed();
    EXPECT_EQ(Sorted(*cached), reference);
    for (DivisionAlgorithm algorithm :
         {DivisionAlgorithm::kNaive, DivisionAlgorithm::kSortAggregate,
          DivisionAlgorithm::kHashAggregate,
          DivisionAlgorithm::kHashDivision}) {
      DivisionOptions options;
      // The aggregation algorithms assume duplicate-free inputs (§2).
      options.eliminate_duplicates =
          algorithm != DivisionAlgorithm::kHashDivision;
      ASSERT_OK_AND_ASSIGN(
          std::vector<Tuple> direct,
          Divide(db_->ctx(), Query(), algorithm, options));
      EXPECT_EQ(Sorted(direct), reference)
          << "algorithm " << static_cast<int>(algorithm);
    }
  }

  std::unique_ptr<Database> db_;
  Relation dividend_;
  Relation divisor_;
  QuotientCache cache_;
};

TEST_F(QuotientCacheTest, ColdBuildThenHit) {
  for (int64_t d = 0; d < 3; ++d) ASSERT_OK(db_->Insert("s", T(d)));
  for (int64_t q = 0; q < 4; ++q) {
    for (int64_t d = 0; d < 3; ++d) {
      if (q == 2 && d == 1) continue;  // q=2 misses one divisor
      ASSERT_OK(db_->Insert("r", T(q, d)));
    }
  }
  bool hit = true;
  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_FALSE(hit);
  EXPECT_EQ(Sorted(*quotient), (std::vector<Tuple>{T(0), T(1), T(3)}));
  EXPECT_EQ(cache_.misses(), 1u);

  ASSERT_OK_AND_ASSIGN(quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_TRUE(hit);
  EXPECT_EQ(Sorted(*quotient), (std::vector<Tuple>{T(0), T(1), T(3)}));
  EXPECT_EQ(cache_.hits(), 1u);
  EXPECT_EQ(cache_.invalidations(), 0u);
}

TEST_F(QuotientCacheTest, InsertMaintainsBitSet) {
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("s", T(1)));
  ASSERT_OK(db_->Insert("r", T(7, 0)));
  bool hit = false;
  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_TRUE(quotient->empty());

  // Bit-set on insert: completing q=7's divisor set flips it in without a
  // rebuild.
  ASSERT_OK(db_->Insert("r", T(7, 1)));
  ASSERT_OK_AND_ASSIGN(quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_TRUE(hit) << "maintained entry must stay serviceable";
  EXPECT_EQ(*quotient, (std::vector<Tuple>{T(7)}));
  EXPECT_GE(cache_.incremental_updates(), 1u);
  EXPECT_EQ(cache_.invalidations(), 0u);
}

TEST_F(QuotientCacheTest, CountedDeleteWithDuplicates) {
  ASSERT_OK(db_->Insert("s", T(0)));
  // Two copies of the same supporting row: counted maintenance must not
  // drop the candidate until the LAST copy goes.
  ASSERT_OK(db_->Insert("r", T(5, 0)));
  ASSERT_OK(db_->Insert("r", T(5, 0)));
  bool hit = false;
  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_EQ(*quotient, (std::vector<Tuple>{T(5)}));

  // DeleteWhere removes BOTH copies (it deletes every matching row); to
  // exercise one-at-a-time counted deletes, rebuild the pair afterwards.
  ASSERT_OK_AND_ASSIGN(uint64_t deleted, db_->DeleteWhere("r", [](const Tuple& t) {
    return t.value(0).int64() == 5;
  }));
  EXPECT_EQ(deleted, 2u);
  ASSERT_OK_AND_ASSIGN(quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_TRUE(hit);
  EXPECT_TRUE(quotient->empty());
  ExpectCacheMatchesAllAlgorithms();
}

TEST_F(QuotientCacheTest, DivisorGrowthWidensBitmaps) {
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("r", T(1, 0)));
  ASSERT_OK(db_->Insert("r", T(1, 1)));  // parked: no divisor 1 yet
  ASSERT_OK(db_->Insert("r", T(2, 0)));
  bool hit = false;
  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_EQ(Sorted(*quotient), (std::vector<Tuple>{T(1), T(2)}));

  // Divisor growth: the new value widens the maintained bit maps and adopts
  // the parked (1, 1) row; q=2 now lacks divisor 1 and must drop out.
  ASSERT_OK(db_->Insert("s", T(1)));
  ASSERT_OK_AND_ASSIGN(quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_TRUE(hit);
  EXPECT_EQ(*quotient, (std::vector<Tuple>{T(1)}));
  ExpectCacheMatchesAllAlgorithms();
}

TEST_F(QuotientCacheTest, SnapshotIsRebuiltOnlyWhenMembershipCanChange) {
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("s", T(1)));
  for (int64_t q = 0; q < 3; ++q) {
    ASSERT_OK(db_->Insert("r", T(q, 0)));
    if (q != 0) ASSERT_OK(db_->Insert("r", T(q, 1)));  // q=0 lacks 1
  }
  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr built,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), nullptr));
  EXPECT_EQ(*built, (std::vector<Tuple>{T(1), T(2)}));
  EXPECT_EQ(ExpectPublishedMatchesRecompute(), built);

  // A fresh one-row partial candidate cannot join the quotient, and
  // deleting it again cannot change it: hits around either step share the
  // one vector.
  ASSERT_OK(db_->Insert("r", T(100, 0)));
  EXPECT_EQ(ExpectPublishedMatchesRecompute(), built);
  ASSERT_OK(db_->DeleteWhere("r", [](const Tuple& t) {
              return t.value(0).int64() == 100;
            }).status());
  EXPECT_EQ(ExpectPublishedMatchesRecompute(), built);

  // Each step that can change membership publishes a new vector.
  QuotientCache::QuotientPtr previous = built;
  auto expect_new_snapshot = [&](const std::string& step,
                                 const std::vector<Tuple>& expected) {
    SCOPED_TRACE(step);
    QuotientCache::QuotientPtr published = ExpectPublishedMatchesRecompute();
    ASSERT_NE(published, nullptr);
    EXPECT_NE(published, previous);
    EXPECT_EQ(*published, expected);
    bool hit = false;
    ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr looked_up,
                         cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
    EXPECT_TRUE(hit);
    EXPECT_EQ(looked_up, published);
    previous = published;
  };
  ASSERT_OK(db_->Insert("r", T(0, 1)));
  expect_new_snapshot("completing q=0", {T(0), T(1), T(2)});
  ASSERT_OK(db_->Insert("s", T(2)));
  expect_new_snapshot("divisor insert", {});
  ASSERT_OK(db_->DeleteWhere("s", [](const Tuple& t) {
              return t.value(0).int64() == 2;
            }).status());
  expect_new_snapshot("divisor delete", {T(0), T(1), T(2)});
  ASSERT_OK(db_->DeleteWhere("r", [](const Tuple& t) {
              return t.value(0).int64() == 2;
            }).status());
  expect_new_snapshot("deleting a member's last row", {T(0), T(1)});
  EXPECT_EQ(cache_.invalidations(), 0u);
}

TEST_F(QuotientCacheTest, EntryWidthGrowsAndNumbersRecycle) {
  // Direct entry-level check of the widening/free-list mechanics.
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("r", T(1, 0)));
  QuotientCacheEntry entry(Resolved());
  ASSERT_OK(entry.Build(db_->ctx()));
  EXPECT_EQ(entry.bitmap_width(), 1u);
  ASSERT_OK(entry.ApplyDivisorInsert(T(1)));
  ASSERT_OK(entry.ApplyDivisorInsert(T(2)));
  EXPECT_EQ(entry.bitmap_width(), 3u);
  // Retiring a divisor frees its number; the next insert reuses it instead
  // of widening again.
  ASSERT_OK(entry.ApplyDivisorDelete(T(1)));
  ASSERT_OK(entry.ApplyDivisorInsert(T(9)));
  EXPECT_EQ(entry.bitmap_width(), 3u);
  EXPECT_EQ(entry.num_divisors(), 3u);
}

TEST_F(QuotientCacheTest, EmptyDivisorAfterDeletesYieldsEmptyQuotient) {
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("r", T(1, 0)));
  bool hit = false;
  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_EQ(*quotient, (std::vector<Tuple>{T(1)}));

  ASSERT_OK_AND_ASSIGN(uint64_t deleted,
                       db_->DeleteWhere("s", [](const Tuple&) { return true; }));
  EXPECT_EQ(deleted, 1u);
  ASSERT_OK_AND_ASSIGN(quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_TRUE(hit);
  EXPECT_TRUE(quotient->empty()) << "empty divisor divides nothing";
  ExpectCacheMatchesAllAlgorithms();
}

TEST_F(QuotientCacheTest, UnnotifiedMutationForcesVersionInvalidation) {
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("r", T(1, 0)));
  bool hit = false;
  ASSERT_OK(cache_.GetOrCompute(Resolved(), db_->ctx(), &hit).status());

  // Bypass the catalog: append straight to the store. No observer fires,
  // but the store version bumps — the next lookup must detect the gap,
  // invalidate, and rebuild to the correct quotient.
  RowCodec codec(dividend_.schema);
  std::string buffer;
  ASSERT_OK(codec.Encode(T(2, 0), &buffer));
  ASSERT_OK(dividend_.store->Append(Slice(buffer)).status());

  // The published snapshot is stale now: TryHit misses and
  // counts nothing, neither a hit nor an invalidation.
  const uint64_t hits_before = cache_.hits();
  EXPECT_EQ(cache_.TryHit(Resolved()), nullptr);
  EXPECT_EQ(cache_.hits(), hits_before);
  EXPECT_EQ(cache_.invalidations(), 0u);

  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache_.invalidations(), 1u);
  EXPECT_EQ(Sorted(*quotient), (std::vector<Tuple>{T(1), T(2)}));

  // The rebuild re-synced; maintenance takes over again.
  ASSERT_OK(db_->Insert("r", T(3, 0)));
  ASSERT_OK_AND_ASSIGN(quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_TRUE(hit);
  EXPECT_EQ(Sorted(*quotient), (std::vector<Tuple>{T(1), T(2), T(3)}));
}

TEST_F(QuotientCacheTest, LruEvictionCapsResidentEntries) {
  cache_.set_max_entries(2);
  ASSERT_OK(db_->Insert("s", T(0)));
  ASSERT_OK(db_->Insert("r", T(1, 0)));
  // Three distinct keys: the base pair plus two extra dividend tables.
  ASSERT_OK(cache_.GetOrCompute(Resolved(), db_->ctx(), nullptr).status());
  for (int i = 0; i < 2; ++i) {
    std::string name = "r_extra" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(
        Relation extra,
        db_->CreateTable(name, Schema{Field{"q", ValueType::kInt64},
                                      Field{"d", ValueType::kInt64}}));
    ASSERT_OK(db_->Insert(name, T(int64_t{10} + i, 0)));
    DivisionQuery query{extra, divisor_, {"d"}};
    ASSERT_OK_AND_ASSIGN(ResolvedDivision resolved, ResolveDivision(query));
    ASSERT_OK(cache_.GetOrCompute(resolved, db_->ctx(), nullptr).status());
  }
  EXPECT_LE(cache_.size(), 2u);
  EXPECT_GE(cache_.evictions(), 1u);
}

TEST_F(QuotientCacheTest, CancelledBuildUnwindsCleanly) {
  ASSERT_OK(db_->Insert("s", T(0)));
  // The build polls the flag before every pull, so it stops at its first.
  for (int64_t q = 0; q < 600; ++q) ASSERT_OK(db_->Insert("r", T(q, 0)));

  std::atomic<bool> cancel{true};
  db_->ctx()->set_cancellation_flag(&cancel);
  Status cancelled =
      cache_.GetOrCompute(Resolved(), db_->ctx(), nullptr).status();
  EXPECT_TRUE(cancelled.IsCancelled()) << cancelled.ToString();

  // A later uncancelled lookup starts from scratch and succeeds.
  cancel.store(false);
  bool hit = true;
  ASSERT_OK_AND_ASSIGN(QuotientCache::QuotientPtr quotient,
                       cache_.GetOrCompute(Resolved(), db_->ctx(), &hit));
  EXPECT_FALSE(hit);
  EXPECT_EQ(quotient->size(), 600u);
  db_->ctx()->set_cancellation_flag(nullptr);
}

TEST_F(QuotientCacheTest, RandomizedMaintenanceMatchesRecompute) {
  // The workload keeps referential integrity from r.d into s (§2.2): the
  // bare-counting algorithms (kSortAggregate, kHashAggregate) are sound
  // only under that assumption, and the differential below holds all four
  // paper algorithms plus the cache to one answer. Dividend inserts draw
  // their d-value from the live divisor set; deleting a divisor value
  // first deletes every dividend row that references it.
  std::mt19937_64 rng(20260809);
  std::vector<int64_t> divisor_values;
  uint64_t live_rows = 0;
  auto random_value = [&rng](int64_t bound) {
    return static_cast<int64_t>(rng() % static_cast<uint64_t>(bound));
  };
  for (int round = 0; round < 30; ++round) {
    const int action = static_cast<int>(rng() % 5);
    if ((action == 0 && divisor_values.size() < 6) || divisor_values.empty()) {
      int64_t d = random_value(6);
      ASSERT_OK(db_->Insert("s", T(d)));
      divisor_values.push_back(d);
    } else if (action == 1) {
      int64_t d = divisor_values[static_cast<size_t>(random_value(
          static_cast<int64_t>(divisor_values.size())))];
      // Restore referential integrity before the divisor value vanishes.
      ASSERT_OK_AND_ASSIGN(uint64_t orphaned,
                           db_->DeleteWhere("r", [d](const Tuple& t) {
                             return t.value(1).int64() == d;
                           }));
      live_rows -= orphaned;
      ASSERT_OK(db_->DeleteWhere("s", [d](const Tuple& t) {
                  return t.value(0).int64() == d;
                }).status());
      std::vector<int64_t> remaining;
      for (int64_t v : divisor_values) {
        if (v != d) remaining.push_back(v);
      }
      divisor_values = std::move(remaining);
    } else if (action == 4 && live_rows > 0) {
      int64_t q = random_value(8);
      ASSERT_OK_AND_ASSIGN(uint64_t deleted,
                           db_->DeleteWhere("r", [q](const Tuple& t) {
                             return t.value(0).int64() == q;
                           }));
      live_rows -= deleted;
    } else {
      int64_t d = divisor_values[static_cast<size_t>(random_value(
          static_cast<int64_t>(divisor_values.size())))];
      ASSERT_OK(db_->Insert("r", T(random_value(8), d)));
      live_rows++;
    }
    // From the second round on the entry is resident, so every step must
    // have re-published a current snapshot.
    if (round > 0) ExpectPublishedMatchesRecompute();
    ExpectCacheMatchesAllAlgorithms();
  }
  // The workload must actually have exercised the maintenance paths.
  EXPECT_GT(cache_.incremental_updates(), 0u);
  EXPECT_EQ(cache_.invalidations(), 0u)
      << "every mutation was notified; maintenance must never fall back";
}

}  // namespace
}  // namespace reldiv
