#include "common/value.h"

#include "common/hash.h"

namespace reldiv {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kInt64:
      return std::to_string(int64_);
    case ValueType::kString:
      return string_;
  }
  return "";
}

}  // namespace reldiv
