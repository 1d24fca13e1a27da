#include "exec/aggregate.h"

namespace reldiv {

AggState::AggState(const std::vector<AggSpec>& specs)
    : counts_(specs.size()), distinct_(specs.size()) {}

void AggState::Update(const std::vector<AggSpec>& specs, const Tuple& tuple) {
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggSpec& spec = specs[i];
    switch (spec.fn) {
      case AggFn::kCount:
        counts_[i]++;
        break;
      case AggFn::kCountDistinct:
        distinct_[i].insert(tuple.Project(spec.distinct_columns()));
        break;
    }
  }
}

void AggState::Finish(const std::vector<AggSpec>& specs, Tuple* out) const {
  for (size_t i = 0; i < specs.size(); ++i) {
    switch (specs[i].fn) {
      case AggFn::kCount:
        out->Append(Value::Int64(counts_[i]));
        break;
      case AggFn::kCountDistinct:
        out->Append(
            Value::Int64(static_cast<int64_t>(distinct_[i].size())));
        break;
    }
  }
}

Result<std::vector<Field>> AggOutputFields(const Schema& input,
                                           const std::vector<AggSpec>& specs) {
  std::vector<Field> fields;
  for (const AggSpec& spec : specs) {
    if (spec.fn == AggFn::kCountDistinct) {
      for (size_t col : spec.distinct_columns()) {
        if (col >= input.num_fields()) {
          return Status::InvalidArgument("aggregate argument out of range");
        }
      }
    }
    fields.push_back(Field{spec.name, ValueType::kInt64});
  }
  return fields;
}

}  // namespace reldiv
