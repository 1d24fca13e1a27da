#include "planner/logical_plan.h"

namespace reldiv {

namespace {

std::string IndexList(const std::vector<size_t>& indices) {
  std::string out = "[";
  for (size_t i = 0; i < indices.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(indices[i]);
  }
  out += "]";
  return out;
}

}  // namespace

void LogicalNode::Render(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(Describe());
  out->push_back('\n');
  for (size_t i = 0; i < num_children(); ++i) {
    child(i).Render(out, indent + 1);
  }
}

std::string LogicalNode::ToString() const {
  std::string out;
  Render(&out, 0);
  return out;
}

std::string LogicalRelationNode::Describe() const {
  return "Relation " + name_ + " " + relation_.schema.ToString();
}

std::string LogicalSelectNode::Describe() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "Select (selectivity %.2f)", selectivity_);
  return buf;
}

std::string LogicalProjectNode::Describe() const {
  return std::string("Project ") + IndexList(indices_) +
         (distinct_ ? " DISTINCT" : "");
}

std::string LogicalSemiJoinNode::Describe() const {
  return "SemiJoin left" + IndexList(left_keys_) + " = right" +
         IndexList(right_keys_);
}

std::string LogicalAntiJoinNode::Describe() const {
  return "AntiJoin left" + IndexList(left_keys_) + " = right" +
         IndexList(right_keys_);
}

LogicalCrossJoinNode::LogicalCrossJoinNode(LogicalNodePtr left,
                                           LogicalNodePtr right)
    : LogicalNode(LogicalNodeKind::kCrossJoin),
      left_(std::move(left)),
      right_(std::move(right)) {
  std::vector<Field> fields = left_->output_schema().fields();
  for (const Field& f : right_->output_schema().fields()) {
    fields.push_back(f);
  }
  schema_ = Schema(std::move(fields));
}

std::string LogicalCrossJoinNode::Describe() const { return "CrossJoin"; }

std::string LogicalExceptNode::Describe() const {
  return "Except (positional, set semantics)";
}

LogicalGroupCountNode::LogicalGroupCountNode(LogicalNodePtr input,
                                             std::vector<size_t> group_indices)
    : LogicalNode(LogicalNodeKind::kGroupCount),
      input_(std::move(input)),
      group_indices_(std::move(group_indices)) {
  std::vector<Field> fields;
  for (size_t idx : group_indices_) {
    fields.push_back(input_->output_schema().field(idx));
  }
  fields.push_back(Field{"count", ValueType::kInt64});
  schema_ = Schema(std::move(fields));
}

std::string LogicalGroupCountNode::Describe() const {
  return "GroupCount by " + IndexList(group_indices_);
}

LogicalCountFilterNode::LogicalCountFilterNode(LogicalNodePtr input,
                                               LogicalNodePtr compare_to)
    : LogicalNode(LogicalNodeKind::kCountFilter),
      input_(std::move(input)),
      compare_to_(std::move(compare_to)) {
  std::vector<Field> fields = input_->output_schema().fields();
  if (!fields.empty()) fields.pop_back();  // the count column
  schema_ = Schema(std::move(fields));
}

std::string LogicalCountFilterNode::Describe() const {
  return "CountFilter (count == |child 1|)";
}

LogicalDivisionNode::LogicalDivisionNode(LogicalNodePtr dividend,
                                         LogicalNodePtr divisor,
                                         std::vector<size_t> match_attrs)
    : LogicalNode(LogicalNodeKind::kDivision),
      dividend_(std::move(dividend)),
      divisor_(std::move(divisor)),
      match_attrs_(std::move(match_attrs)),
      quotient_attrs_(
          dividend_->output_schema().ComplementIndices(match_attrs_)),
      schema_(dividend_->output_schema().Project(quotient_attrs_)) {}

std::string LogicalDivisionNode::Describe() const {
  return "Division on dividend" + IndexList(match_attrs_) + " (quotient " +
         IndexList(quotient_attrs_) + ")";
}

}  // namespace reldiv
