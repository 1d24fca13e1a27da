#include "exec/kernels/kernels.h"

#include <cstring>
#include <string>

#include "common/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RELDIV_KERNELS_X86 1
#include <immintrin.h>
#else
#define RELDIV_KERNELS_X86 0
#endif

namespace reldiv {
namespace kernels {

bool SimdAvailable() {
#if RELDIV_KERNELS_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Level ActiveLevel() {
  static const Level level = SimdAvailable() ? Level::kSimd : Level::kScalar;
  return level;
}

// --- Batched probe hashing --------------------------------------------------

void HashInt64KeysScalar(const int64_t* keys, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = HashInt64Key(keys[i]);
}

#if RELDIV_KERNELS_X86

namespace {

/// 64-bit modular multiply from 32-bit lane products (AVX2 has no
/// _mm256_mullo_epi64): lo(a)lo(b) + ((lo(a)hi(b) + hi(a)lo(b)) << 32).
__attribute__((target("avx2"))) inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo_product = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo_product, _mm256_slli_epi64(cross, 32));
}

/// Four-lane Hash64 (common/hash.h splitmix64), same constants bit for bit.
__attribute__((target("avx2"))) inline __m256i Hash64Vec(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15ll));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ull)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebull)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

}  // namespace

__attribute__((target("avx2"))) void HashInt64KeysAvx2(const int64_t* keys,
                                                       size_t n,
                                                       uint64_t* out) {
  // HashInt64Key(k) = HashCombine(S, HashCombine(T, Hash64(k))) with
  // HashCombine(seed, v) = Hash64(seed ^ (v + K + (seed << 6) + (seed >> 2)))
  // — so each combine step is one add of a seed-derived constant, one xor
  // with the seed, and one more Hash64. Constants precomputed per seed.
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  constexpr uint64_t kTag = static_cast<uint64_t>(ValueType::kInt64) + 1;
  constexpr uint64_t kSeed = Tuple::kHashSeed;
  const __m256i tag_add =
      _mm256_set1_epi64x(static_cast<long long>(kGolden + (kTag << 6) +
                                                (kTag >> 2)));
  const __m256i tag_xor = _mm256_set1_epi64x(static_cast<long long>(kTag));
  const __m256i seed_add =
      _mm256_set1_epi64x(static_cast<long long>(kGolden + (kSeed << 6) +
                                                (kSeed >> 2)));
  const __m256i seed_xor = _mm256_set1_epi64x(static_cast<long long>(kSeed));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i h = Hash64Vec(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)));
    h = Hash64Vec(_mm256_xor_si256(_mm256_add_epi64(h, tag_add), tag_xor));
    h = Hash64Vec(_mm256_xor_si256(_mm256_add_epi64(h, seed_add), seed_xor));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = HashInt64Key(keys[i]);
}

#endif  // RELDIV_KERNELS_X86

void HashInt64KeysSimd(const int64_t* keys, size_t n, uint64_t* out) {
#if RELDIV_KERNELS_X86
  RELDIV_CHECK(SimdAvailable()) << "SIMD kernels not supported on this CPU";
  HashInt64KeysAvx2(keys, n, out);
#else
  RELDIV_CHECK(false) << "SIMD kernels not compiled for this target";
  (void)keys;
  (void)n;
  (void)out;
#endif
}

void HashInt64Keys(const int64_t* keys, size_t n, uint64_t* out) {
  if (ActiveLevel() == Level::kSimd) {
    HashInt64KeysSimd(keys, n, out);
  } else {
    HashInt64KeysScalar(keys, n, out);
  }
}

// --- Bitmap word kernels ----------------------------------------------------

bool AllWordsSetScalar(const uint64_t* words, size_t num_bits) {
  const size_t full_words = num_bits / 64;
  for (size_t i = 0; i < full_words; ++i) {
    if (words[i] != ~uint64_t{0}) return false;
  }
  const size_t tail = num_bits & 63;
  if (tail != 0) {
    const uint64_t mask = (uint64_t{1} << tail) - 1;
    if ((words[full_words] & mask) != mask) return false;
  }
  return true;
}

#if RELDIV_KERNELS_X86

__attribute__((target("avx2"))) bool AllWordsSetAvx2(const uint64_t* words,
                                                     size_t num_bits) {
  const size_t full_words = num_bits / 64;
  const __m256i ones = _mm256_set1_epi64x(-1);
  size_t i = 0;
  for (; i + 4 <= full_words; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi64(v, ones)) != -1) return false;
  }
  for (; i < full_words; ++i) {
    if (words[i] != ~uint64_t{0}) return false;
  }
  const size_t tail = num_bits & 63;
  if (tail != 0) {
    const uint64_t mask = (uint64_t{1} << tail) - 1;
    if ((words[full_words] & mask) != mask) return false;
  }
  return true;
}

#endif  // RELDIV_KERNELS_X86

bool AllWordsSetSimd(const uint64_t* words, size_t num_bits) {
#if RELDIV_KERNELS_X86
  RELDIV_CHECK(SimdAvailable()) << "SIMD kernels not supported on this CPU";
  return AllWordsSetAvx2(words, num_bits);
#else
  RELDIV_CHECK(false) << "SIMD kernels not compiled for this target";
  (void)words;
  (void)num_bits;
  return false;
#endif
}

bool AllWordsSet(const uint64_t* words, size_t num_bits) {
  if (ActiveLevel() == Level::kSimd) return AllWordsSetSimd(words, num_bits);
  return AllWordsSetScalar(words, num_bits);
}

void ClearWords(uint64_t* words, size_t num_words) {
  std::memset(words, 0, num_words * sizeof(uint64_t));
}

// --- Count-filter compare kernel --------------------------------------------

namespace {

template <typename Pred>
size_t CompareInt64Loop(const int64_t* values, size_t n, int64_t rhs,
                        uint8_t* mask, Pred pred) {
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t hit = pred(values[i], rhs) ? 1 : 0;
    mask[i] = hit;
    matches += hit;
  }
  return matches;
}

}  // namespace

size_t CompareInt64Scalar(const int64_t* values, size_t n, CmpOp op,
                          int64_t rhs, uint8_t* mask) {
  switch (op) {
    case CmpOp::kEq:
      return CompareInt64Loop(values, n, rhs, mask,
                              [](int64_t a, int64_t b) { return a == b; });
    case CmpOp::kNe:
      return CompareInt64Loop(values, n, rhs, mask,
                              [](int64_t a, int64_t b) { return a != b; });
    case CmpOp::kLt:
      return CompareInt64Loop(values, n, rhs, mask,
                              [](int64_t a, int64_t b) { return a < b; });
    case CmpOp::kLe:
      return CompareInt64Loop(values, n, rhs, mask,
                              [](int64_t a, int64_t b) { return a <= b; });
    case CmpOp::kGt:
      return CompareInt64Loop(values, n, rhs, mask,
                              [](int64_t a, int64_t b) { return a > b; });
    case CmpOp::kGe:
      return CompareInt64Loop(values, n, rhs, mask,
                              [](int64_t a, int64_t b) { return a >= b; });
  }
  return 0;
}

#if RELDIV_KERNELS_X86

__attribute__((target("avx2"))) size_t CompareInt64Avx2(const int64_t* values,
                                                        size_t n, CmpOp op,
                                                        int64_t rhs,
                                                        uint8_t* mask) {
  // Every predicate from the two signed primitives: eq = cmpeq, gt = cmpgt;
  // lt(v) = gt(rhs, v); the rest are negations (invert = true).
  const __m256i rhs_vec = _mm256_set1_epi64x(rhs);
  bool invert = false;
  size_t matches = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    __m256i cmp = _mm256_setzero_si256();
    switch (op) {
      case CmpOp::kEq:
      case CmpOp::kNe:
        cmp = _mm256_cmpeq_epi64(v, rhs_vec);
        invert = op == CmpOp::kNe;
        break;
      case CmpOp::kGt:
      case CmpOp::kLe:
        cmp = _mm256_cmpgt_epi64(v, rhs_vec);
        invert = op == CmpOp::kLe;
        break;
      case CmpOp::kLt:
      case CmpOp::kGe:
        cmp = _mm256_cmpgt_epi64(rhs_vec, v);
        invert = op == CmpOp::kGe;
        break;
    }
    unsigned bits = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(cmp)));
    if (invert) bits ^= 0xfu;
    for (size_t lane = 0; lane < 4; ++lane) {
      mask[i + lane] = static_cast<uint8_t>((bits >> lane) & 1u);
    }
    matches += static_cast<size_t>(__builtin_popcount(bits));
  }
  if (i < n) matches += CompareInt64Scalar(values + i, n - i, op, rhs, mask + i);
  return matches;
}

#endif  // RELDIV_KERNELS_X86

size_t CompareInt64Simd(const int64_t* values, size_t n, CmpOp op, int64_t rhs,
                        uint8_t* mask) {
#if RELDIV_KERNELS_X86
  RELDIV_CHECK(SimdAvailable()) << "SIMD kernels not supported on this CPU";
  return CompareInt64Avx2(values, n, op, rhs, mask);
#else
  RELDIV_CHECK(false) << "SIMD kernels not compiled for this target";
  (void)values;
  (void)n;
  (void)op;
  (void)rhs;
  (void)mask;
  return 0;
#endif
}

size_t CompareInt64(const int64_t* values, size_t n, CmpOp op, int64_t rhs,
                    uint8_t* mask) {
  if (ActiveLevel() == Level::kSimd) {
    return CompareInt64Simd(values, n, op, rhs, mask);
  }
  return CompareInt64Scalar(values, n, op, rhs, mask);
}

// --- Column extraction ------------------------------------------------------

bool ExtractInt64Column(const TupleBatch& batch, size_t col,
                        std::vector<int64_t>* out) {
  out->clear();
  out->reserve(batch.size());
  for (const Tuple& tuple : batch) {
    if (col >= tuple.size() || tuple.value(col).type() != ValueType::kInt64) {
      return false;
    }
    out->push_back(tuple.value(col).int64());
  }
  return true;
}

// --- Whole-key sort codes --------------------------------------------------

SortKeyCode EncodeSortKey(const Tuple& tuple,
                          const std::vector<size_t>& keys) {
  uint64_t words[2] = {0, 0};
  size_t filled = 0;
  for (size_t key : keys) {
    if (filled == 2) break;
    const Value& v = tuple.value(key);
    if (v.type() == ValueType::kInt64) {
      // The sign-flipped bijection: unsigned order is signed order.
      words[filled++] = static_cast<uint64_t>(v.int64()) ^ (uint64_t{1} << 63);
      continue;
    }
    if (v.type() == ValueType::kString) {
      // Byte-wise big-endian, so a word difference agrees with
      // std::string's unsigned byte order; a prefix tie promises nothing.
      const std::string& str = v.string_value();
      const size_t take = str.size() < 8 ? str.size() : 8;
      for (size_t i = 0; i < take; ++i) {
        const auto byte = static_cast<unsigned char>(str[i]);
        words[filled] |= static_cast<uint64_t>(byte) << (56 - 8 * i);
      }
    }
    break;  // a string prefix or a double ends the code
  }
  return SortKeyCode{words[0], words[1]};
}

bool SortKeyCodeIsComplete(const Schema& schema,
                           const std::vector<size_t>& keys) {
  if (keys.size() > 2) return false;
  for (size_t key : keys) {
    if (schema.field(key).type != ValueType::kInt64) return false;
  }
  return true;
}

}  // namespace kernels
}  // namespace reldiv
