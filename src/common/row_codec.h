#ifndef RELDIV_COMMON_ROW_CODEC_H_
#define RELDIV_COMMON_ROW_CODEC_H_

#include <string>
#include <vector>

#include "common/schema.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/tuple.h"

namespace reldiv {

/// Serializes tuples to the byte format stored in record files:
/// int64 as 8 bytes little-endian, strings as a 4-byte length prefix
/// followed by the bytes. Encoding is schema-driven; decoding verifies that
/// the payload is consistent with the schema and returns Corruption
/// otherwise.
class RowCodec {
 public:
  explicit RowCodec(Schema schema) : schema_(std::move(schema)) {
    fixed_width_ = true;
    types_.reserve(schema_.num_fields());
    for (size_t i = 0; i < schema_.num_fields(); ++i) {
      types_.push_back(schema_.field(i).type);
      if (schema_.field(i).type == ValueType::kString) fixed_width_ = false;
    }
  }

  const Schema& schema() const { return schema_; }

  /// Bytes of every row when all fields are int64 (8 per field), else 0:
  /// rows of a fixed width are located by their index alone.
  size_t fixed_row_bytes() const {
    return fixed_width_ ? types_.size() * 8 : 0;
  }

  /// The int64 field format, 8 bytes little-endian, unchecked: field `c` of
  /// a fixed-width row starts at byte 8 * c.
  static void StoreInt64(int64_t v, char* p) {
    for (int i = 0; i < 8; ++i) {
      p[i] = static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) & 0xff);
    }
  }
  static int64_t LoadInt64(const char* p) {
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    return static_cast<int64_t>(out);
  }

  /// Appends the encoding of `tuple` to `out`. InvalidArgument on a
  /// schema/tuple mismatch.
  Status Encode(const Tuple& tuple, std::string* out) const;

  /// Appends the encoding of `tuple`'s `columns`, in that order, as one row
  /// of this schema — the row of `tuple.Project(columns)` without building
  /// that tuple.
  Status Encode(const Tuple& tuple, const std::vector<size_t>& columns,
                std::string* out) const;

  /// Decodes one record payload into `tuple`.
  Status Decode(Slice payload, Tuple* tuple) const;

  /// Byte length of the row Encode wrote at `row`. Trusted input: string
  /// lengths are read, not checked.
  size_t RowSize(const char* row) const;

  /// True iff the first `columns.size()` fields of the row at `row` equal
  /// `probe`'s `columns`, compared in place without decoding the row, as
  /// Value::Compare decides: type tag first, then the value. Trusted input,
  /// like RowSize; `columns` may not outnumber the schema's fields.
  bool PrefixEquals(const char* row, const Tuple& probe,
                    const std::vector<size_t>& columns) const;

 private:
  template <typename ValueAt>
  Status EncodeValues(ValueAt value_at, std::string* out) const;

  Schema schema_;
  std::vector<ValueType> types_;  ///< densely packed field types (hot loop)
  bool fixed_width_ = false;      ///< no string fields: 8 bytes per column
};

}  // namespace reldiv

#endif  // RELDIV_COMMON_ROW_CODEC_H_
