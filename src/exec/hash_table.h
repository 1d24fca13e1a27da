#ifndef RELDIV_EXEC_HASH_TABLE_H_
#define RELDIV_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/row_codec.h"
#include "common/tuple.h"
#include "exec/exec_context.h"
#include "exec/kernels/kernels.h"
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
/// The table owns its keys. Each entry is ONE Arena allocation: a 48-byte
/// header followed by the stored tuple as a flat RowCodec row, key columns
/// first. The pool is therefore charged exactly the bytes an entry occupies
/// (56 for one int64 column); when it is exhausted, mutations return
/// ResourceExhausted, which the partitioned division algorithms translate
/// into hash-table-overflow handling (§3.4).
///
/// The first insert fixes the row layout (the stored value types); a later
/// tuple of another layout is refused with InvalidArgument. For that layout
/// kernels::SortKeyCodeIsComplete decides, once, how a probe decides
/// equality:
///   - codes complete (at most two key columns, all int64): on `hash` and
///     the exact whole-key `code` alone, never reading the row — the same
///     code the sort decides on;
///   - otherwise: on `hash`, then the row's key columns compared in place,
///     type tag first, as Value::Compare does.
/// Either way a probe key of another type never matches, and Table 1
/// accounting is one Hash per probe and one Comp per chain element
/// inspected.
class TupleHashTable {
 public:
  /// One chain element's header. `num` holds the divisor number, group
  /// index or any other per-entry integer; `extra` points at an
  /// arena-allocated bit map for hash-division's quotient table. `code` is
  /// kernels::EncodeSortKey of the stored key. The stored tuple follows the
  /// header in the same allocation (row()); Decode returns it in its
  /// original column order.
  struct Entry {
    Entry* next = nullptr;
    uint64_t hash = 0;  ///< memoized key hash: chain walks compare it first
    uint64_t num = 0;
    uint64_t* extra = nullptr;
    kernels::SortKeyCode code;

    /// The stored tuple's RowCodec row, key columns first.
    const char* row() const { return reinterpret_cast<const char*>(this + 1); }
  };
  static_assert(sizeof(Entry) == 48, "the entry header is charged per entry");

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

  /// Stores `tuple` without looking for an existing match (multi-table
  /// build). Returns the new entry.
  Result<Entry*> Insert(const Tuple& tuple);

  /// Finds the entry whose key equals `tuple`'s key, or stores `tuple` as a
  /// new entry. `*inserted` reports which happened.
  Result<Entry*> FindOrInsert(const Tuple& tuple, bool* inserted);

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
    return FindPrehashedCounted(ctx, probe, probe_indices,
                                HashKeyCounted(ctx, probe, probe_indices));
  }

  /// The next entry after `after` (a match of this probe) whose key equals
  /// `probe`'s `probe_indices` columns, or nullptr: a join's fan-out over
  /// every match of one probe. Counts one Comp per chain element inspected
  /// and no Hash — a match's memoized hash is the probe's.
  Entry* NextMatch(ExecContext* ctx, const Entry* after, const Tuple& probe,
                   const std::vector<size_t>& probe_indices) const {
    return MatchFrom(ctx, after->next, after->hash, probe, probe_indices);
  }

  // --- Staged probe support -------------------------------------------------
  //
  // A batch-native caller splits a probe into stages across the whole batch:
  // compute all key hashes, issue bucket prefetches (PrefetchBucket, then
  // BucketHead), then walk the chains. The hashes come either from
  // ProbeHash, which charges one Hash each, or from kernels::HashInt64Keys,
  // whose caller charges the batch with one CountHashes; the chain walks are
  // the *Prehashed and *Int64 forms. The counted work per probe is exactly
  // that of FindCounted/FindOrInsert — only the memory stalls overlap.

  /// Counted probe-hash computation: bumps the Hash counter exactly as
  /// Find/FindOrInsert would before their chain walk.
  uint64_t ProbeHash(const Tuple& probe,
                     const std::vector<size_t>& probe_indices) const {
    return HashKeyCounted(ctx_, probe, probe_indices);
  }

  /// Prefetch hint for the bucket-head slot of `hash`. No cost accounting:
  /// prefetches do no comparisons or hash computations.
  void PrefetchBucket(uint64_t hash) const {
    Prefetch(&buckets_[hash % buckets_.size()]);
  }

  /// Current head of `hash`'s chain (possibly nullptr) — a prefetch hint for
  /// the second stage of a staged probe. The value may go stale if the table
  /// is mutated afterwards; correctness must come from the final chain walk,
  /// which re-reads the bucket.
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

  /// FindCounted with the key hash computed (and counted) earlier. `hash`
  /// MUST equal ProbeHash(probe, probe_indices); accounting here is the
  /// remaining one Comp per chain element inspected.
  Entry* FindPrehashedCounted(ExecContext* ctx, const Tuple& probe,
                              const std::vector<size_t>& probe_indices,
                              uint64_t hash) const {
    return MatchFrom(ctx, BucketHead(hash), hash, probe, probe_indices);
  }

  /// FindOrInsert for a table whose key is its whole stored tuple (key
  /// indices a permutation of 0..n-1): probes with `probe`'s
  /// `probe_indices` columns and, on a miss, stores exactly those columns —
  /// no tuple is materialized on either path. `hash` MUST be
  /// ProbeHash(probe, probe_indices) — it selects the bucket and is memoized
  /// in a newly inserted entry. Accounting as FindOrInsert.
  Result<Entry*> FindOrInsertPrehashed(const Tuple& probe,
                                       const std::vector<size_t>& probe_indices,
                                       uint64_t hash, bool* inserted);

  /// The single-int64-key probe of a batched caller that extracted the key
  /// column (kernels::ExtractInt64Column) and hashed it
  /// (kernels::HashInt64Key, counted by the caller): decides on the hash
  /// and kernels::Int64KeyCode(key), reading no tuple. One Comp per chain
  /// element inspected.
  Entry* FindInt64Counted(ExecContext* ctx, int64_t key, uint64_t hash) const {
    if (!single_int64_key_) return Walk(ctx, BucketHead(hash), hash, NoMatch);
    const kernels::SortKeyCode code = kernels::Int64KeyCode(key);
    return Walk(ctx, BucketHead(hash), hash,
                [&](const Entry& e) { return e.code == code; });
  }

  /// FindOrInsertPrehashed for a table whose stored tuple is one int64 key
  /// (key indices {0}), from the extracted key and its precomputed hash.
  Result<Entry*> FindOrInsertInt64(int64_t key, uint64_t hash, bool* inserted);

  /// The stored tuple of `entry`, decoded from its row into the original
  /// column order.
  Tuple Decode(const Entry* entry) const;

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
  /// Table 1 counter. Entries stay where they are: Entry* pointers held by
  /// callers remain valid. Must not run while the table is shared
  /// (FindCounted).
  void Rehash(size_t num_buckets);

  /// For tables built without a cardinality hint: an insert that leaves more
  /// than 2 entries per bucket on average doubles the bucket array
  /// (Rehash), so chains stay at the paper's hbs = 2. Growth depends only on
  /// the number of inserts, so counters stay identical across batch sizes
  /// and lanes. A hinted table keeps its size.
  void set_growable(bool growable) { growable_ = growable; }

  /// Whether probes decide on the whole-key code (see the class comment).
  /// False until the first insert fixes the layout.
  bool codes_decide() const { return codes_complete_; }

  size_t size() const { return size_; }
  size_t num_buckets() const { return buckets_.size(); }
  Arena* arena() const { return arena_; }

  /// Picks a bucket count targeting the paper's average bucket size of 2.
  static size_t BucketsFor(uint64_t expected_entries);

 private:
  static uint64_t HashKeyCounted(ExecContext* ctx, const Tuple& tuple,
                                 const std::vector<size_t>& indices) {
    ctx->CountHashes(1);
    return tuple.HashAt(indices);
  }

  /// The one chain walk: from `e` on, the first entry with `hash` that
  /// `equal` accepts. One counted Comp per chain element inspected, exactly
  /// as in the paper's model; the memoized hash only short-circuits the
  /// physical key comparison.
  template <typename Equal>
  static Entry* Walk(ExecContext* ctx, Entry* e, uint64_t hash,
                     Equal equal) {
    for (; e != nullptr; e = e->next) {
      ctx->CountComparisons(1);
      if (e->hash == hash && equal(*e)) return e;
    }
    return nullptr;
  }
  static bool NoMatch(const Entry&) { return false; }

  /// Walk with the table's equality rule for a tuple probe: on codes while
  /// they are complete, else on the row's key columns in place. A probe
  /// whose key columns differ in number or type from the layout matches no
  /// entry (but is still charged its walk).
  Entry* MatchFrom(ExecContext* ctx, Entry* from, uint64_t hash,
                   const Tuple& probe,
                   const std::vector<size_t>& probe_indices) const {
    if (probe_indices.size() != key_indices_.size()) {
      return Walk(ctx, from, hash, NoMatch);
    }
    if (codes_complete_) {
      for (size_t index : probe_indices) {
        if (probe.value(index).type() != ValueType::kInt64) {
          return Walk(ctx, from, hash, NoMatch);
        }
      }
      const kernels::SortKeyCode code =
          kernels::EncodeSortKey(probe, probe_indices);
      return Walk(ctx, from, hash,
                  [&](const Entry& e) { return e.code == code; });
    }
    // An entry exists only once the layout, and with it codec_, is fixed.
    return Walk(ctx, from, hash, [&](const Entry& e) {
      return codec_->PrefixEquals(e.row(), probe, probe_indices);
    });
  }

  /// Fixes the row layout from the first stored tuple (original column
  /// order): key columns first, then the rest in order.
  Status FixLayout(const Tuple& stored);

  /// Stores the row encoded in row_ as a new entry of `hash` and `code`:
  /// one arena allocation of header plus row.
  Result<Entry*> InsertRow(uint64_t hash, const kernels::SortKeyCode& code);

  /// Insert of a whole tuple with its key hash already counted.
  Result<Entry*> InsertTuple(const Tuple& tuple, uint64_t hash);

  /// Insert of a probe's key columns as the whole stored tuple.
  Result<Entry*> InsertKey(const Tuple& probe,
                           const std::vector<size_t>& probe_indices,
                           uint64_t hash);

  ExecContext* ctx_;
  Arena* arena_;
  std::vector<size_t> key_indices_;
  std::vector<Entry*> buckets_;
  size_t size_ = 0;
  bool growable_ = false;

  // The row layout, fixed by the first insert.
  std::optional<RowCodec> codec_;  ///< stored order: key columns first
  std::vector<size_t> stored_columns_;  ///< original column of each field
  bool identity_order_ = true;     ///< stored order is the original order
  bool codes_complete_ = false;    ///< probes decide on hash and code
  bool single_int64_key_ = false;  ///< one int64 key column (FindInt64*)
  std::string row_;                ///< encode scratch, reused per insert
  Tuple int64_key_{Value::Int64(0)};  ///< FindOrInsertInt64's key tuple
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_HASH_TABLE_H_
