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

/// Vectorized inner-loop kernels shared by the division operators and the
/// sort. Every batched kernel exists in two variants — a scalar reference
/// implementation and a SIMD one — selected once per process by
/// ActiveLevel(); callers use the dispatching entry points and never branch
/// on the level themselves. The per-tuple sort-key code is scalar only.
///
/// Counter-accounting invariant (DESIGN.md §12): kernels perform PHYSICAL
/// work only and never touch ExecContext counters. The caller charges the
/// Table 1 operations the replaced scalar loop would have charged — one Hash
/// per probe key, one Bit per word initialized/tested, one Comp per count
/// compare — so scalar and SIMD runs produce bit-identical counter totals.
///
/// Layering: kernels may depend on common/ and exec/batch.h but never on
/// Operator — no exec/operator.h include and no virtual NextBatch dispatch
/// inside a kernel (enforced by tools/analyze.py `kernel-purity`).

/// Which implementation the dispatching kernels resolved to.
enum class Level {
  kScalar,
  kSimd,
};

/// The level selected for this process: the SIMD variants when the CPU
/// supports them (SimdAvailable), the scalar reference implementations
/// otherwise. Resolved once, then constant.
Level ActiveLevel();

/// True when the SIMD variants are usable on this CPU (AVX2).
bool SimdAvailable();

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
void HashInt64KeysScalar(const int64_t* keys, size_t n, uint64_t* out);
void HashInt64KeysSimd(const int64_t* keys, size_t n, uint64_t* out);

// --- Bitmap word kernels ----------------------------------------------------

/// True iff the first `num_bits` bits of `words` are all set; whole words
/// are tested and the trailing partial word is masked — the semantics of
/// Bitmap::AllSet (the scalar reference these are tested against).
bool AllWordsSet(const uint64_t* words, size_t num_bits);
bool AllWordsSetScalar(const uint64_t* words, size_t num_bits);
bool AllWordsSetSimd(const uint64_t* words, size_t num_bits);

/// Zeroes `num_words` words (bit-map initialization).
void ClearWords(uint64_t* words, size_t num_words);

// --- Count-filter compare kernel --------------------------------------------

/// Comparison predicates of the compare kernel.
enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

/// mask[i] = (values[i] <op> rhs) ? 1 : 0 for i in [0, n); returns the
/// number of matches. The caller counts one Comp per element.
size_t CompareInt64(const int64_t* values, size_t n, CmpOp op, int64_t rhs,
                    uint8_t* mask);
size_t CompareInt64Scalar(const int64_t* values, size_t n, CmpOp op,
                          int64_t rhs, uint8_t* mask);
size_t CompareInt64Simd(const int64_t* values, size_t n, CmpOp op,
                        int64_t rhs, uint8_t* mask);

// --- Column extraction (row-batch bridge) -----------------------------------

/// Gathers column `col` of the batch's live prefix into `out` iff every
/// value in that column is an int64; returns false (leaving `out`
/// unspecified) otherwise, and the caller takes the generic tuple path.
/// Uncounted: eligibility checks and gathers are Moves the scalar path pays
/// identically via Value copies, and the accounting model charges neither.
bool ExtractInt64Column(const TupleBatch& batch, size_t col,
                        std::vector<int64_t>* out);

// --- Whole-key sort codes --------------------------------------------------

/// Order-preserving 128-bit code of a tuple's sort key, two words compared
/// lexicographically, memoized by the sort so most comparisons resolve on
/// integers (Do/Graefe/Naughton's normalized keys). The key columns fill the
/// words in key order: an int64 takes a whole word, its sign-flipped bits,
/// and coding goes on only while every earlier column was coded exactly. A
/// string contributes its first eight bytes big-endian and ends the code; a
/// double ends it uncoded (NaN makes any prefix unsafe). For tuples whose
/// key columns agree in type:
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

/// True iff EncodeSortKey codes `keys` of a `schema` tuple exactly: every key
/// column is int64 and there are at most two of them.
bool SortKeyCodeIsComplete(const Schema& schema,
                           const std::vector<size_t>& keys);

}  // namespace kernels
}  // namespace reldiv

#endif  // RELDIV_EXEC_KERNELS_KERNELS_H_
