#include "common/bitmap.h"

namespace reldiv {

Bitmap::Bitmap(size_t num_bits)
    : num_bits_(num_bits), owned_(WordsForBits(num_bits), 0) {
  words_ = owned_.data();
}

void Bitmap::ClearAll() {
  const size_t words = WordsForBits(num_bits_);
  for (size_t i = 0; i < words; ++i) words_[i] = 0;
}

bool Bitmap::AllSet() const {
  if (num_bits_ == 0) return true;
  const size_t full_words = num_bits_ / 64;
  for (size_t i = 0; i < full_words; ++i) {
    if (words_[i] != ~uint64_t{0}) return false;
  }
  const size_t tail = num_bits_ & 63;
  if (tail != 0) {
    const uint64_t mask = (uint64_t{1} << tail) - 1;
    if ((words_[full_words] & mask) != mask) return false;
  }
  return true;
}

size_t Bitmap::CountSet() const {
  size_t count = 0;
  const size_t words = WordsForBits(num_bits_);
  for (size_t i = 0; i < words; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(words_[i]));
  }
  return count;
}

std::string Bitmap::ToString() const {
  std::string out;
  out.reserve(num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) out += Test(i) ? '1' : '0';
  return out;
}

}  // namespace reldiv
