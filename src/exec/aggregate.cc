#include "exec/aggregate.h"

namespace reldiv {

AggState::AggState(const std::vector<AggSpec>& specs)
    : counts_(specs.size()) {}

void AggState::Update(const std::vector<AggSpec>& specs) {
  for (size_t i = 0; i < specs.size(); ++i) counts_[i]++;
}

void AggState::Finish(const std::vector<AggSpec>& specs, Tuple* out) const {
  for (size_t i = 0; i < specs.size(); ++i) {
    out->Append(Value::Int64(counts_[i]));
  }
}

std::vector<Field> AggOutputFields(const std::vector<AggSpec>& specs) {
  std::vector<Field> fields;
  for (const AggSpec& spec : specs) {
    fields.push_back(Field{spec.name, ValueType::kInt64});
  }
  return fields;
}

}  // namespace reldiv
