#ifndef RELDIV_SERVICE_QUOTIENT_CACHE_H_
#define RELDIV_SERVICE_QUOTIENT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/tuple.h"
#include "division/division.h"
#include "exec/exec_context.h"
#include "storage/record_store.h"

namespace reldiv {

/// Ordering functor so Tuples can key std::map (lexicographic Compare).
struct TupleLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return a.Compare(b) < 0;
  }
};

/// Materialized hash-division state for ONE division query, maintained
/// incrementally under dividend/divisor inserts and deletes. This is the
/// quotient table + bit maps of §3.3 kept resident between queries, with
/// the bit maps widened to counters so deletions are exact:
///
///   - divisors_ numbers each distinct divisor row (divisor-table role) and
///     counts duplicate copies, recycling retired numbers via a free list;
///   - candidates_ is the quotient table: per quotient-projection key, a
///     count vector indexed by divisor number (the counted form of the §3.3
///     bit map — bit set <=> count > 0), the number of non-zero slots, and
///     the total matched dividend multiplicity;
///   - unmatched_ parks dividend rows whose divisor-attribute values match
///     no current divisor, so a later divisor insert can adopt them without
///     rescanning the dividend.
///
/// Maintenance algebra (all counted, so duplicates round-trip exactly):
///   dividend insert  -> count[n]++ (bit-set) or park in unmatched_;
///   dividend delete  -> count[n]-- , candidate evicted at total == 0
///                       (counted invalidation);
///   divisor insert   -> new number widens every candidate's count vector,
///                       then drains the matching unmatched_ bucket;
///   divisor delete   -> retires the number, moving its column back into
///                       unmatched_.
/// The quotient is exactly the candidates whose non-zero slot count equals
/// the number of distinct divisors (empty when the divisor is empty, the
/// engine-wide convention). It is materialized once and shared: a step that
/// can change membership — a candidate crossing nonzero == required, or a
/// change to the distinct divisor set — drops it, and the next Quotient()
/// call rebuilds it; every other step keeps the same vector. Any
/// inconsistency — a delete for a row the state never saw — marks the entry
/// broken; the cache then falls back to version-checked invalidation and a
/// rebuild.
///
/// Not thread-safe; QuotientCache guards each entry with its own mutex.
class QuotientCacheEntry {
 public:
  explicit QuotientCacheEntry(const ResolvedDivision& resolved);

  /// Full build: scans the divisor store then the dividend store through
  /// the maintenance paths (one pass each — the build IS the quotient
  /// computation), then stamps the store versions the state reflects.
  /// Reads both stores with Drain(), which polls ctx->CheckCancelled()
  /// before every batch when ctx != nullptr.
  Status Build(ExecContext* ctx);

  // Incremental maintenance. Internal status on inconsistent state (the
  // caller marks the entry broken and rebuilds).
  Status ApplyDividendInsert(const Tuple& tuple);
  Status ApplyDividendDelete(const Tuple& tuple);
  Status ApplyDivisorInsert(const Tuple& tuple);
  Status ApplyDivisorDelete(const Tuple& tuple);

  /// The current quotient, in sorted (deterministic) order. Immutable and
  /// shared: repeated calls return the same vector until a maintenance step
  /// changes membership.
  std::shared_ptr<const std::vector<Tuple>> Quotient();

  /// True when the stamped versions equal the stores' current versions —
  /// i.e. every mutation since Build()/maintenance was notified through the
  /// observer. A direct store write (bypassing Database) breaks this and
  /// forces invalidation.
  bool VersionsMatch() const;

  /// Re-stamps the synced versions from the live stores. Called at the end
  /// of Build(); every invalidation-and-rebuild path runs through it.
  void SyncVersions();

  /// One notified mutation was applied: advance the synced version of the
  /// mutated role by exactly one step. Advancing by one — never jumping to
  /// store->version() — keeps unnotified writes detectable as a version gap.
  void AdvanceDividendVersion() { dividend_version_++; }
  void AdvanceDivisorVersion() { divisor_version_++; }

  bool built() const { return built_; }
  bool broken() const { return broken_; }
  void MarkBroken() { broken_ = true; }

  RecordStore* dividend_store() const { return dividend_store_; }
  RecordStore* divisor_store() const { return divisor_store_; }
  uint64_t dividend_version() const { return dividend_version_; }
  uint64_t divisor_version() const { return divisor_version_; }
  size_t num_divisors() const { return divisors_.size(); }
  size_t num_candidates() const { return candidates_.size(); }
  size_t bitmap_width() const { return width_; }

  /// Clears all maintained state (rebuild path).
  void Clear();

 private:
  struct DivisorSlot {
    uint32_t number = 0;  ///< column index into Candidate::counts
    uint64_t copies = 0;  ///< duplicate divisor rows with this value
  };
  struct Candidate {
    std::vector<uint32_t> counts;  ///< per-divisor-number match multiplicity
    uint32_t nonzero = 0;          ///< slots with counts > 0 (bit-map rank)
    uint64_t total = 0;            ///< matched dividend rows, with duplicates
  };

  /// Candidate for `key`, created zeroed at the current width if absent.
  Candidate& CandidateFor(const Tuple& key);

  RecordStore* dividend_store_;
  RecordStore* divisor_store_;
  Schema dividend_schema_;
  Schema divisor_schema_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;

  std::map<Tuple, DivisorSlot, TupleLess> divisors_;
  std::map<Tuple, Candidate, TupleLess> candidates_;
  /// match-key -> (quotient-key -> multiplicity) for divisor-less rows.
  std::map<Tuple, std::map<Tuple, uint64_t, TupleLess>, TupleLess> unmatched_;
  std::vector<uint32_t> free_numbers_;
  size_t width_ = 0;  ///< count-vector length (max live number + 1)
  /// Materialized quotient; null when a step may have changed membership.
  std::shared_ptr<const std::vector<Tuple>> quotient_;

  uint64_t dividend_version_ = 0;
  uint64_t divisor_version_ = 0;
  bool built_ = false;
  bool broken_ = false;
};

/// LRU-bounded cache of QuotientCacheEntry keyed on (dividend store
/// identity, divisor store identity, match attributes) — the same identity
/// the stats cache uses: stores have no global names, and the match columns
/// pick the quotient. Entry versions carry the "+ version" half of the key:
/// a lookup whose entry is stale (version mismatch) or broken invalidates
/// and rebuilds in place.
///
/// Wire OnStoreUpdate as a Database update observer to get incremental
/// maintenance; without it every mutation costs a full rebuild on the next
/// lookup (the version check catches the drift either way).
///
/// Thread-safe. The cache mutex guards only the map, the recency list and the
/// statistics; each entry has its own mutex, taken with the cache mutex
/// released, so a slow cold build never blocks hits on other keys. Every
/// change to an entry (build, applied maintenance step, breakage, failed
/// build) re-publishes the slot's immutable Snapshot, so TryHit serves a
/// hit without the entry mutex. A notified mutation is
/// applied only when the store version is exactly one ahead of the entry's
/// synced version; racing writers that interleave (a gap appears) mark the
/// entry broken, and the next lookup rebuilds — correctness never depends
/// on the maintenance path keeping up.
class QuotientCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 64;

  using QuotientPtr = std::shared_ptr<const std::vector<Tuple>>;

  explicit QuotientCache(size_t max_entries = kDefaultMaxEntries);

  /// Serves the quotient for `resolved`: from the maintained entry when its
  /// versions match (hit), otherwise by (re)building from the stores. Sets
  /// *was_hit accordingly when non-null. `ctx` is polled for cancellation
  /// during builds and may be nullptr.
  Result<QuotientPtr> GetOrCompute(const ResolvedDivision& resolved,
                                   ExecContext* ctx, bool* was_hit = nullptr);

  /// The hit path that takes no entry mutex: the published quotient when
  /// the entry for `resolved` exists and its snapshot's stamped versions
  /// equal both stores' current versions (counted as a hit), else null with
  /// nothing counted. Never creates an entry, builds or invalidates; a
  /// lookup that races a write between its version bump and its observer
  /// sees a mismatch and returns null.
  QuotientPtr TryHit(const ResolvedDivision& resolved);

  /// Database update-observer entry point: applies `tuple` to every resident
  /// entry in which `store` plays the dividend and/or divisor role.
  void OnStoreUpdate(RecordStore* store, const Tuple& tuple, bool inserted);

  /// Caps resident entries, evicting LRU immediately if over the new bound
  /// (0 is pinned to 1).
  void set_max_entries(size_t max_entries);
  size_t max_entries() const;
  size_t size() const;

  // Lifetime statistics (mirror the reldiv_qcache_* metric family).
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t invalidations() const;
  uint64_t incremental_updates() const;
  uint64_t evictions() const;

  void Clear();

 private:
  struct Key {
    const void* dividend;
    const void* divisor;
    std::vector<size_t> match_attrs;
    bool operator<(const Key& other) const {
      if (dividend != other.dividend) return dividend < other.dividend;
      if (divisor != other.divisor) return divisor < other.divisor;
      return match_attrs < other.match_attrs;
    }
  };
  static Key KeyFor(const ResolvedDivision& resolved);

  /// What a hit reads: the quotient and the store versions it reflects.
  struct Snapshot {
    QuotientPtr quotient;
    uint64_t dividend_version = 0;
    uint64_t divisor_version = 0;
  };

  /// An entry plus its lock, published snapshot and recency position.
  /// shared_ptr so eviction can drop the map slot while a builder still
  /// holds the entry.
  struct Slot {
    explicit Slot(const ResolvedDivision& resolved) : entry(resolved) {}
    /// Re-publishes the snapshot from the entry: null unless the entry is
    /// built and not broken.
    void Publish() REQUIRES(mu);

    Mutex mu;
    QuotientCacheEntry entry GUARDED_BY(mu);
    /// Guards only the `snapshot` pointer, so TryHit never waits for a
    /// build or a maintenance step holding `mu`.
    Mutex snapshot_mu;
    std::shared_ptr<const Snapshot> snapshot GUARDED_BY(snapshot_mu);
    std::list<Key>::iterator lru_pos;
  };

  std::shared_ptr<Slot> FindOrCreateSlot(const ResolvedDivision& resolved);
  void EnforceBound() REQUIRES(mu_);
  void CountHit();
  void CountInvalidation(const char* reason);

  mutable Mutex mu_;
  std::map<Key, std::shared_ptr<Slot>> slots_ GUARDED_BY(mu_);
  std::list<Key> lru_ GUARDED_BY(mu_);  ///< most recent first
  size_t max_entries_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ GUARDED_BY(mu_) = 0;
  uint64_t incremental_updates_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace reldiv

#endif  // RELDIV_SERVICE_QUOTIENT_CACHE_H_
