#include "common/row_codec.h"

#include <cstring>

namespace reldiv {

namespace {

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

bool GetU64(Slice payload, size_t* pos, uint64_t* v) {
  if (*pos + 8 > payload.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<unsigned char>(payload[*pos + i]))
           << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

uint32_t LoadLE32(const char* p) {
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return out;
}

bool GetU32(Slice payload, size_t* pos, uint32_t* v) {
  if (*pos + 4 > payload.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(
               static_cast<unsigned char>(payload[*pos + i]))
           << (8 * i);
  }
  *pos += 4;
  *v = out;
  return true;
}

}  // namespace

template <typename ValueAt>
Status RowCodec::EncodeValues(ValueAt value_at, std::string* out) const {
  const size_t n = schema_.num_fields();
  if (fixed_width_) {
    // All columns are int64: the row's size is known up front, so
    // the buffer grows once and each value is stored in place.
    const size_t base = out->size();
    out->resize(base + n * 8);
    char* p = out->data() + base;
    for (size_t i = 0; i < n; ++i, p += 8) {
      const Value& v = value_at(i);
      if (v.type() != types_[i]) {
        out->resize(base);
        return Status::InvalidArgument(
            "value type mismatch in field '" + schema_.field(i).name + "'");
      }
      StoreInt64(v.int64(), p);
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    const Value& v = value_at(i);
    if (v.type() != types_[i]) {
      return Status::InvalidArgument(
          "value type mismatch in field '" + schema_.field(i).name + "'");
    }
    switch (v.type()) {
      case ValueType::kInt64:
        PutU64(static_cast<uint64_t>(v.int64()), out);
        break;
      case ValueType::kString: {
        const std::string& s = v.string_value();
        PutU32(static_cast<uint32_t>(s.size()), out);
        out->append(s);
        break;
      }
    }
  }
  return Status::OK();
}

Status RowCodec::Encode(const Tuple& tuple, std::string* out) const {
  if (tuple.size() != schema_.num_fields()) {
    return Status::InvalidArgument("tuple arity " +
                                   std::to_string(tuple.size()) +
                                   " does not match schema " +
                                   schema_.ToString());
  }
  return EncodeValues(
      [&](size_t i) -> const Value& { return tuple.value(i); }, out);
}

Status RowCodec::Encode(const Tuple& tuple, const std::vector<size_t>& columns,
                        std::string* out) const {
  if (columns.size() != schema_.num_fields()) {
    return Status::InvalidArgument("column count " +
                                   std::to_string(columns.size()) +
                                   " does not match schema " +
                                   schema_.ToString());
  }
  return EncodeValues(
      [&](size_t i) -> const Value& { return tuple.value(columns[i]); }, out);
}

Status RowCodec::Decode(Slice payload, Tuple* tuple) const {
  if (fixed_width_) {
    // All columns are int64: one bounds check for the whole row,
    // values overwritten in place so a reused tuple costs no allocation.
    const size_t n = schema_.num_fields();
    if (payload.size() != n * 8) {
      return Status::Corruption("fixed-width record size mismatch");
    }
    tuple->Resize(n);
    const char* p = payload.data();
    for (size_t i = 0; i < n; ++i, p += 8) {
      tuple->value(i).SetInt64(LoadInt64(p));
    }
    return Status::OK();
  }
  tuple->Clear();
  size_t pos = 0;
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    switch (types_[i]) {
      case ValueType::kInt64: {
        uint64_t v;
        if (!GetU64(payload, &pos, &v)) {
          return Status::Corruption("truncated int64 field");
        }
        tuple->Append(Value::Int64(static_cast<int64_t>(v)));
        break;
      }
      case ValueType::kString: {
        uint32_t len;
        if (!GetU32(payload, &pos, &len)) {
          return Status::Corruption("truncated string length");
        }
        if (pos + len > payload.size()) {
          return Status::Corruption("truncated string payload");
        }
        tuple->Append(Value::String(std::string(payload.data() + pos, len)));
        pos += len;
        break;
      }
    }
  }
  if (pos != payload.size()) {
    return Status::Corruption("trailing bytes after decoding record");
  }
  return Status::OK();
}

size_t RowCodec::RowSize(const char* row) const {
  if (fixed_width_) return types_.size() * 8;
  const char* p = row;
  for (ValueType type : types_) {
    p += type == ValueType::kString ? 4 + LoadLE32(p) : 8;
  }
  return static_cast<size_t>(p - row);
}

bool RowCodec::PrefixEquals(const char* row, const Tuple& probe,
                            const std::vector<size_t>& columns) const {
  const char* p = row;
  for (size_t i = 0; i < columns.size(); ++i) {
    const Value& v = probe.value(columns[i]);
    // Value::Compare's rule: the type tag first, then the value.
    if (v.type() != types_[i]) return false;
    switch (types_[i]) {
      case ValueType::kInt64:
        if (v.int64() != LoadInt64(p)) return false;
        p += 8;
        break;
      case ValueType::kString: {
        const uint32_t len = LoadLE32(p);
        const std::string& str = v.string_value();
        if (str.size() != len ||
            (len != 0 && std::memcmp(str.data(), p + 4, len) != 0)) {
          return false;
        }
        p += 4 + len;
        break;
      }
    }
  }
  return true;
}

}  // namespace reldiv
