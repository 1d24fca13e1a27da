#include "exec/kernels/kernels.h"

#include <string>

namespace reldiv {
namespace kernels {

// --- Batched probe hashing --------------------------------------------------

void HashInt64Keys(const int64_t* keys, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = HashInt64Key(keys[i]);
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
      words[filled++] = Int64CodeWord(v.int64());
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
    break;  // a string prefix ends the code
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
