#ifndef RELDIV_COMMON_BITMAP_H_
#define RELDIV_COMMON_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace reldiv {

/// Fixed-size bit map processed a 64-bit word at a time, as required by the
/// hash-division algorithm (paper §3.3, point 4): initialization and the
/// "any zero bit?" scan inspect whole words, and only the popcount-style
/// operations touch individual bits.
///
/// A Bitmap may either own its words or be laid over caller-provided storage
/// (e.g. memory obtained from the quotient table's arena); see MapOnto().
class Bitmap {
 public:
  /// Empty bitmap of zero bits.
  Bitmap() = default;

  /// Owning bitmap of `num_bits` bits, all clear.
  explicit Bitmap(size_t num_bits);

  /// Number of 64-bit words needed for `num_bits` bits.
  static size_t WordsForBits(size_t num_bits) { return (num_bits + 63) / 64; }

  /// Bytes needed for `num_bits` bits (whole words).
  static size_t BytesForBits(size_t num_bits) {
    return WordsForBits(num_bits) * sizeof(uint64_t);
  }

  /// Non-owning bitmap over `words` (caller keeps the storage alive and
  /// zero-initialized via ClearAll()). Used for arena-allocated bit maps in
  /// the quotient table. Inline along with Set/Test: hash-division touches
  /// one bit per dividend tuple.
  static Bitmap MapOnto(uint64_t* words, size_t num_bits) {
    Bitmap bm;
    bm.words_ = words;
    bm.num_bits_ = num_bits;
    return bm;
  }

  size_t num_bits() const { return num_bits_; }

  /// Clears every bit, one word at a time.
  void ClearAll();

  /// Sets bit `i`. Returns true if the bit was previously clear (needed by
  /// the early-output variant's counter update, paper §3.3 point 2).
  bool Set(size_t i) {
    RELDIV_DCHECK_LT(i, num_bits_) << "bit index beyond the bit map width";
    const uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t& word = words_[i >> 6];
    const bool was_clear = (word & mask) == 0;
    word |= mask;
    return was_clear;
  }

  bool Test(size_t i) const {
    RELDIV_DCHECK_LT(i, num_bits_) << "bit index beyond the bit map width";
    return (words_[i >> 6] & (uint64_t{1} << (i & 63))) != 0;
  }

  /// True iff every one of the `num_bits` bits is set. Scans whole words;
  /// the trailing partial word is masked.
  bool AllSet() const;

  /// Number of set bits.
  size_t CountSet() const;

  /// "1010..." for diagnostics (most significant bit last, i.e. index order).
  std::string ToString() const;

 private:
  uint64_t* words_ = nullptr;       // points at owned_ or external storage
  size_t num_bits_ = 0;
  std::vector<uint64_t> owned_;
};

}  // namespace reldiv

#endif  // RELDIV_COMMON_BITMAP_H_
