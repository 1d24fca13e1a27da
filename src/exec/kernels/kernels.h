#ifndef RELDIV_EXEC_KERNELS_KERNELS_H_
#define RELDIV_EXEC_KERNELS_KERNELS_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/schema.h"
#include "common/tuple.h"
#include "common/value.h"
#include "exec/batch.h"

namespace reldiv {
namespace kernels {

/// Flat-array inner-loop kernels shared by the division operators and the
/// sort, one scalar implementation per job: batched int64 probe hashing,
/// int64 column extraction and the per-tuple whole-key sort code.
///
/// Counter-accounting invariant (DESIGN.md §12): kernels perform PHYSICAL
/// work only and never touch ExecContext counters. The caller charges the
/// Table 1 operations the replaced per-tuple loop would have charged — one
/// Hash per probe key — so a kernelized run and a per-tuple run produce
/// bit-identical counter totals.
///
/// Layering: kernels may depend on common/ and exec/batch.h but never on
/// Operator — no exec/operator.h include and no virtual NextBatch dispatch
/// inside a kernel (enforced by tools/analyze.py `kernel-purity`).

// --- Batched probe hashing --------------------------------------------------

/// The probe hash of a single-int64-key tuple, in closed form:
/// HashInt64Key(k) == Tuple{Value::Int64(k)}.HashAt({0}) for every k — the
/// exact value TupleHashTable::ProbeHash computes on the single-int64-column
/// fast path (kernels_test pins the equality). Keeping the composition in
/// one place lets the batched kernel and the scalar probe agree bit for bit.
inline uint64_t HashInt64Key(int64_t key) {
  const uint64_t value_hash =
      HashCombine(static_cast<uint64_t>(ValueType::kInt64) + 1,
                  Hash64(static_cast<uint64_t>(key)));
  return HashCombine(Tuple::kHashSeed, value_hash);
}

/// out[i] = HashInt64Key(keys[i]) for i in [0, n).
void HashInt64Keys(const int64_t* keys, size_t n, uint64_t* out);

// --- Column extraction (row-batch bridge) -----------------------------------

/// Gathers column `col` of the batch's live prefix into `out` iff every
/// value in that column is an int64; returns false (leaving `out`
/// unspecified) otherwise, and the caller takes the generic tuple path.
/// Uncounted: eligibility checks and gathers are Moves the generic path pays
/// identically via Value copies, and the accounting model charges neither.
bool ExtractInt64Column(const TupleBatch& batch, size_t col,
                        std::vector<int64_t>* out);

// --- Whole-key sort codes --------------------------------------------------

/// Order-preserving 128-bit code of a tuple's sort key, two words compared
/// lexicographically, memoized by the sort so most comparisons resolve on
/// integers (Do/Graefe/Naughton's normalized keys). The key columns fill the
/// words in key order: an int64 takes a whole word, its sign-flipped bits,
/// and coding goes on only while every earlier column was coded exactly. A
/// string contributes its first eight bytes big-endian and ends the code.
/// For tuples whose key columns agree in type:
///
///   code(a) <  code(b)  =>  a.CompareAt(keys, b) < 0
///   code(a) == code(b)  =>  a.CompareAt(keys, b) == 0 if the code is
///                           complete (SortKeyCodeIsComplete); nothing
///                           otherwise, and the caller compares the tuples.
struct SortKeyCode {
  uint64_t hi = 0;
  uint64_t lo = 0;
  friend auto operator<=>(const SortKeyCode&, const SortKeyCode&) = default;
};

SortKeyCode EncodeSortKey(const Tuple& tuple, const std::vector<size_t>& keys);

/// The sign-flipped bits of an int64 key column: unsigned order is signed
/// order.
inline uint64_t Int64CodeWord(int64_t key) {
  return static_cast<uint64_t>(key) ^ (uint64_t{1} << 63);
}

/// EncodeSortKey of a key that is one int64 column, in closed form, so a
/// batched probe codes the int64 column it already extracted.
inline SortKeyCode Int64KeyCode(int64_t key) {
  return SortKeyCode{Int64CodeWord(key), 0};
}

/// True iff EncodeSortKey codes `keys` of a `schema` tuple exactly: every key
/// column is int64 and there are at most two of them.
bool SortKeyCodeIsComplete(const Schema& schema,
                           const std::vector<size_t>& keys);

}  // namespace kernels
}  // namespace reldiv

#endif  // RELDIV_EXEC_KERNELS_KERNELS_H_
