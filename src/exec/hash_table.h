#ifndef RELDIV_EXEC_HASH_TABLE_H_
#define RELDIV_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/result.h"
#include "common/tuple.h"
#include "exec/exec_context.h"
#include "storage/memory_manager.h"

namespace reldiv {

/// Bucket-chaining hash table over tuples, the common core of the hash
/// semi-join, hash aggregation, and both tables of hash-division. Matches
/// the paper's implementation notes (§5.1): conflict resolution by bucket
/// chaining; chain elements are auxiliary structures holding a pointer to
/// the next element in the bucket, the tuple, and "the divisor count or the
/// pointer to the bit map respectively" — generalized here to a 64-bit
/// payload plus an optional pointer.
///
/// Memory for chain elements, bit maps, and tuple bytes is charged to an
/// Arena; when the arena's pool is exhausted, mutations return
/// ResourceExhausted, which the partitioned division algorithms translate
/// into hash-table-overflow handling (§3.4).
class TupleHashTable {
 public:
  /// One chain element. `num` holds the divisor number, group count, or any
  /// other per-entry integer; `extra` points at an arena-allocated bit map
  /// for hash-division's quotient table.
  struct Entry {
    Entry* next = nullptr;
    const Tuple* tuple = nullptr;
    uint64_t hash = 0;  ///< memoized key hash: chain walks skip the tuple
                        ///< dereference unless the hashes collide
    uint64_t num = 0;
    uint64_t* extra = nullptr;
  };

  /// `key_indices`: the stored tuples' key columns. `num_buckets` is the
  /// initial bucket count; it changes only through Rehash, or by growth once
  /// set_growable(true) is called. Memory overflow is never answered by
  /// resizing: the paper sizes tables for an average bucket size of ~2
  /// (hbs) and handles overflow by partitioning (§3.4). Bucket arrays are
  /// not charged to the Arena, so resizing moves no overflow point.
  TupleHashTable(ExecContext* ctx, Arena* arena,
                 std::vector<size_t> key_indices, size_t num_buckets);

  TupleHashTable(const TupleHashTable&) = delete;
  TupleHashTable& operator=(const TupleHashTable&) = delete;

  /// Inserts `tuple` without looking for an existing match (multi-table
  /// build). Returns the new entry.
  Result<Entry*> Insert(Tuple tuple);

  /// Finds the entry whose key equals `tuple`'s key, or inserts `tuple` as a
  /// new entry. `*inserted` reports which happened.
  Result<Entry*> FindOrInsert(Tuple tuple, bool* inserted);

  /// Probes with `probe`'s `probe_indices` columns against stored keys.
  /// Returns nullptr if absent. Counts one Hash plus one Comp per chain
  /// element inspected. Inline: one probe per dividend tuple.
  Entry* Find(const Tuple& probe,
              const std::vector<size_t>& probe_indices) const {
    return FindCounted(ctx_, probe, probe_indices);
  }

  /// Find with the Table 1 accounting charged to `ctx` instead of the
  /// table's own context — the shared-table probe path: when parallel
  /// fragments probe one read-only divisor table (§6 quotient partitioning
  /// in-process), each fragment counts on its private context, so
  /// concurrent probes never race on counters. The table itself must not
  /// be mutated while shared.
  Entry* FindCounted(ExecContext* ctx, const Tuple& probe,
                     const std::vector<size_t>& probe_indices) const {
    const uint64_t hash = HashKeyCounted(ctx, probe, probe_indices);
    for (Entry* e = buckets_[hash % buckets_.size()]; e != nullptr;
         e = e->next) {
      // One counted Comp per chain element inspected, exactly as in the
      // paper's model; the memoized hash only short-circuits the physical
      // tuple comparison.
      ctx->CountComparisons(1);
      if (e->hash == hash && KeysEqualUncounted(probe, probe_indices, *e->tuple)) {
        return e;
      }
    }
    return nullptr;
  }

  /// FindOrInsert without materializing the stored tuple on the hit path:
  /// probes with `probe`'s `probe_indices` columns and calls `make()` to
  /// produce the tuple to store only on a miss. `make()` must return a tuple
  /// whose `key_indices` columns equal the probe columns (same values, same
  /// order), so the probe hash and the stored key hash coincide. Cost
  /// accounting is identical to FindOrInsert: one Hash, one Comp per chain
  /// element inspected.
  template <typename MakeTuple>
  Result<Entry*> FindOrInsertWith(const Tuple& probe,
                                  const std::vector<size_t>& probe_indices,
                                  MakeTuple make, bool* inserted) {
    return FindOrInsertPrehashed(probe, probe_indices,
                                 HashKey(probe, probe_indices), make,
                                 inserted);
  }

  // --- Staged probe support -------------------------------------------------
  //
  // A batch-native caller splits a probe into stages across the whole batch:
  // compute all key hashes, issue bucket prefetches (PrefetchBucket, then
  // BucketHead), then walk the chains. The hashes come either from
  // ProbeHash, which charges one Hash each, or from kernels::HashInt64Keys,
  // whose caller charges the batch with one CountHashes; the chain walks are
  // FindPrehashedCounted and FindOrInsertPrehashed. The counted work per
  // probe is exactly that of FindCounted/FindOrInsertWith — only the memory
  // stalls overlap.

  /// Counted probe-hash computation: bumps the Hash counter exactly as
  /// Find/FindOrInsert would before their chain walk.
  uint64_t ProbeHash(const Tuple& probe,
                     const std::vector<size_t>& probe_indices) const {
    return HashKey(probe, probe_indices);
  }

  /// Prefetch hint for the bucket-head slot of `hash`. No cost accounting:
  /// prefetches do no comparisons or hash computations.
  void PrefetchBucket(uint64_t hash) const {
    Prefetch(&buckets_[hash % buckets_.size()]);
  }

  /// Current head of `hash`'s chain (possibly nullptr) — a prefetch hint for
  /// the second stage of a staged probe. The value may go stale if the table
  /// is mutated afterwards; correctness must come from the final
  /// FindOrInsertPrehashed, which re-reads the bucket.
  Entry* BucketHead(uint64_t hash) const {
    return buckets_[hash % buckets_.size()];
  }

  static void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  /// FindCounted with the key hash computed (and counted) earlier — the
  /// chain-walk half of a batched probe whose hashes came from a kernel
  /// (kernels::HashInt64Keys) with one batched CountHashes charge. `hash`
  /// MUST equal ProbeHash(probe, probe_indices); accounting here is the
  /// remaining one Comp per chain element inspected.
  Entry* FindPrehashedCounted(ExecContext* ctx, const Tuple& probe,
                              const std::vector<size_t>& probe_indices,
                              uint64_t hash) const {
    for (Entry* e = buckets_[hash % buckets_.size()]; e != nullptr;
         e = e->next) {
      ctx->CountComparisons(1);
      if (e->hash == hash && KeysEqualUncounted(probe, probe_indices, *e->tuple)) {
        return e;
      }
    }
    return nullptr;
  }

  /// FindOrInsertWith with the key hash computed (and counted) earlier via
  /// ProbeHash. `hash` MUST be ProbeHash(probe, probe_indices) — it selects
  /// the bucket and is memoized in a newly inserted entry.
  template <typename MakeTuple>
  Result<Entry*> FindOrInsertPrehashed(const Tuple& probe,
                                       const std::vector<size_t>& probe_indices,
                                       uint64_t hash, MakeTuple make,
                                       bool* inserted) {
    for (Entry* e = buckets_[hash % buckets_.size()]; e != nullptr;
         e = e->next) {
      ctx_->CountComparisons(1);
      if (e->hash == hash && KeysEqualUncounted(probe, probe_indices, *e->tuple)) {
        *inserted = false;
        return e;
      }
    }
    *inserted = true;
    return InsertIntoBucket(make(), hash);
  }

  /// Visits every entry (bucket order). `fn` returning false stops early.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (Entry* head : buckets_) {
      for (Entry* e = head; e != nullptr; e = e->next) {
        if (!fn(e)) return;
      }
    }
  }

  /// Relinks every entry into a fresh array of `num_buckets` buckets by its
  /// memoized hash. Hashes no key and compares no key, so it charges no
  /// Table 1 counter. Tuples and entries stay where they are: Entry*
  /// pointers held by callers remain valid. Must not run while the table is
  /// shared (FindCounted).
  void Rehash(size_t num_buckets);

  /// For tables built without a cardinality hint: an insert that leaves more
  /// than 2 entries per bucket on average doubles the bucket array
  /// (Rehash), so chains stay at the paper's hbs = 2. Growth depends only on
  /// the number of inserts, so counters stay identical across batch sizes
  /// and lanes. A hinted table keeps its size.
  void set_growable(bool growable) { growable_ = growable; }

  size_t size() const { return size_; }
  size_t num_buckets() const { return buckets_.size(); }
  Arena* arena() const { return arena_; }

  /// Picks a bucket count targeting the paper's average bucket size of 2.
  static size_t BucketsFor(uint64_t expected_entries);

 private:
  uint64_t HashKey(const Tuple& tuple,
                   const std::vector<size_t>& indices) const {
    return HashKeyCounted(ctx_, tuple, indices);
  }

  static uint64_t HashKeyCounted(ExecContext* ctx, const Tuple& tuple,
                                 const std::vector<size_t>& indices) {
    ctx->CountHashes(1);
    return tuple.HashAt(indices);
  }

  /// Physical key equality of `probe`'s probe columns against a stored
  /// tuple's key columns; the caller does the Comp accounting. The
  /// single-column case — every division probe in the paper's workloads —
  /// skips the general projected-compare loop.
  bool KeysEqualUncounted(const Tuple& probe,
                          const std::vector<size_t>& probe_indices,
                          const Tuple& stored) const {
    if (probe_indices.size() == 1 && key_indices_.size() == 1) {
      return probe.value(probe_indices[0])
                 .Compare(stored.value(key_indices_[0])) == 0;
    }
    return probe.CompareProjected(probe_indices, stored, key_indices_) == 0;
  }
  Result<Entry*> InsertIntoBucket(Tuple tuple, uint64_t hash);

  ExecContext* ctx_;
  Arena* arena_;
  std::vector<size_t> key_indices_;
  std::vector<Entry*> buckets_;
  std::deque<Tuple> tuples_;  ///< owns tuple storage (strings not arena-safe)
  size_t size_ = 0;
  bool growable_ = false;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_HASH_TABLE_H_
