#ifndef RELDIV_PARALLEL_BIT_VECTOR_FILTER_H_
#define RELDIV_PARALLEL_BIT_VECTOR_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace reldiv {

/// Babb-style bit vector filter (§6): built from the hash values of the
/// divisor tuples and used to avoid shipping dividend tuples for which no
/// divisor record exists. The selection is a heuristic — a tuple may
/// erroneously pass if its hash collides with a divisor tuple's (the
/// paper's agriculture-course example) — but it never drops a matching
/// tuple.
class BitVectorFilter {
 public:
  /// `num_bits` is rounded up to a whole 64-bit word; must be > 0.
  explicit BitVectorFilter(size_t num_bits)
      : num_bits_(num_bits == 0 ? 64 : num_bits),
        words_((num_bits_ + 63) / 64, 0) {}

  void InsertHash(uint64_t hash) {
    const uint64_t bit = hash % num_bits_;
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }

  bool MayContain(uint64_t hash) const {
    const uint64_t bit = hash % num_bits_;
    return (words_[bit >> 6] & (uint64_t{1} << (bit & 63))) != 0;
  }

  size_t num_bits() const { return num_bits_; }

  /// Wire size when the filter itself is shipped between nodes.
  uint64_t byte_size() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace reldiv

#endif  // RELDIV_PARALLEL_BIT_VECTOR_FILTER_H_
