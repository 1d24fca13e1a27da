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
/// int64/double as 8 bytes little-endian, strings as a 4-byte length prefix
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

  /// Appends the encoding of `tuple` to `out`. InvalidArgument on a
  /// schema/tuple mismatch.
  Status Encode(const Tuple& tuple, std::string* out) const;

  /// Decodes one record payload into `tuple`.
  Status Decode(Slice payload, Tuple* tuple) const;

 private:
  Schema schema_;
  std::vector<ValueType> types_;  ///< densely packed field types (hot loop)
  bool fixed_width_ = false;      ///< no string fields: 8 bytes per column
};

}  // namespace reldiv

#endif  // RELDIV_COMMON_ROW_CODEC_H_
