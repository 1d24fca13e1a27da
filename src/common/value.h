#ifndef RELDIV_COMMON_VALUE_H_
#define RELDIV_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/hash.h"

namespace reldiv {

/// Column data types supported by the engine. The paper's experiments use
/// small fixed-width records (8-byte divisor/quotient, 16-byte dividend),
/// which map onto kInt64 columns; strings support the university examples.
/// The tag is mixed into every value hash, so the numbers are fixed: a
/// renumbering would move every hash partition and bucket.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kString = 2,
};

/// Name of a value type ("int64", "string").
const char* ValueTypeName(ValueType type);

/// A single typed column value. Cheap to copy for numeric payloads; strings
/// own their bytes. Values of different types have a stable total order
/// (ordered by type tag first) so heterogeneous comparison never asserts,
/// but schema-checked plans only ever compare like types.
class Value {
 public:
  Value() : type_(ValueType::kInt64), int64_(0) {}
  static Value Int64(int64_t v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  ValueType type() const { return type_; }

  int64_t int64() const { return int64_; }
  const std::string& string_value() const { return string_; }

  /// Overwrites the value in place without reallocating (decode hot path).
  void SetInt64(int64_t v) {
    if (!string_.empty()) string_.clear();
    type_ = ValueType::kInt64;
    int64_ = v;
  }

  /// Three-way comparison; types compare by tag first, then by value.
  /// Inline: this sits on the innermost loop of every hash probe and sort.
  int Compare(const Value& other) const {
    if (type_ != other.type_) {
      return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
    }
    switch (type_) {
      case ValueType::kInt64:
        if (int64_ < other.int64_) return -1;
        if (int64_ > other.int64_) return 1;
        return 0;
      case ValueType::kString:
        return string_.compare(other.string_) < 0
                   ? -1
                   : (string_ == other.string_ ? 0 : 1);
    }
    return 0;
  }

  /// 64-bit hash of the value (type-tag mixed in). Inline for the same
  /// reason as Compare.
  uint64_t Hash() const {
    const uint64_t tag = static_cast<uint64_t>(type_) + 1;
    switch (type_) {
      case ValueType::kInt64:
        return HashCombine(tag, Hash64(static_cast<uint64_t>(int64_)));
      case ValueType::kString:
        return HashCombine(tag, HashBytes(string_.data(), string_.size()));
    }
    return 0;
  }

  /// Renders the value for diagnostics ("42", "abc").
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  explicit Value(int64_t v) : type_(ValueType::kInt64), int64_(v) {}
  explicit Value(std::string v)
      : type_(ValueType::kString), int64_(0), string_(std::move(v)) {}

  ValueType type_;
  int64_t int64_;
  std::string string_;
};

}  // namespace reldiv

#endif  // RELDIV_COMMON_VALUE_H_
