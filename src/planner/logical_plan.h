#ifndef RELDIV_PLANNER_LOGICAL_PLAN_H_
#define RELDIV_PLANNER_LOGICAL_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"
#include "exec/relation.h"

namespace reldiv {

/// Logical algebra used by the rewriter and the cost-based physical
/// planner. The paper's closing argument (§5.2/§7) is that a query
/// optimizer should either expose universal quantification directly or
/// "detect [it] automatically in a complex aggregate expression"; this
/// module provides both paths: build a LogicalDivision node directly, or
/// build the aggregate/count/filter formulation and let
/// RewriteForAllPattern() (planner/rewrite.h) recognize it.
enum class LogicalNodeKind {
  kRelation,     ///< stored base relation
  kSelect,       ///< selection with an opaque predicate
  kProject,      ///< projection, optionally duplicate-eliminating
  kSemiJoin,     ///< left semi-join
  kAntiJoin,     ///< left anti-join (NOT EXISTS)
  kCrossJoin,    ///< Cartesian product
  kExcept,       ///< positional set difference (set semantics)
  kGroupCount,   ///< group by + COUNT(*)
  kCountFilter,  ///< keep groups whose count equals |scalar input|
  kDivision,     ///< relational division
};

/// Base class of the logical plan tree. Nodes own their children.
class LogicalNode {
 public:
  explicit LogicalNode(LogicalNodeKind kind) : kind_(kind) {}
  virtual ~LogicalNode() = default;

  LogicalNode(const LogicalNode&) = delete;
  LogicalNode& operator=(const LogicalNode&) = delete;

  LogicalNodeKind kind() const { return kind_; }
  virtual const Schema& output_schema() const = 0;
  virtual size_t num_children() const = 0;
  virtual const LogicalNode& child(size_t i) const = 0;

  /// Indented multi-line tree rendering for diagnostics.
  std::string ToString() const;

 protected:
  /// One-line description of this node (without children).
  virtual std::string Describe() const = 0;

 private:
  void Render(std::string* out, int indent) const;

  LogicalNodeKind kind_;
};

using LogicalNodePtr = std::unique_ptr<LogicalNode>;

/// Leaf: a stored relation.
class LogicalRelationNode : public LogicalNode {
 public:
  LogicalRelationNode(std::string name, Relation relation)
      : LogicalNode(LogicalNodeKind::kRelation),
        name_(std::move(name)),
        relation_(std::move(relation)) {}

  const Schema& output_schema() const override { return relation_.schema; }
  size_t num_children() const override { return 0; }
  const LogicalNode& child(size_t) const override { std::abort(); }

  const std::string& name() const { return name_; }
  const Relation& relation() const { return relation_; }

 protected:
  std::string Describe() const override;

 private:
  std::string name_;
  Relation relation_;
};

/// Selection. `selectivity` is the planner's cardinality factor estimate.
class LogicalSelectNode : public LogicalNode {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  LogicalSelectNode(LogicalNodePtr input, Predicate predicate,
                    double selectivity = 0.5)
      : LogicalNode(LogicalNodeKind::kSelect),
        input_(std::move(input)),
        predicate_(std::move(predicate)),
        selectivity_(selectivity) {}

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  size_t num_children() const override { return 1; }
  const LogicalNode& child(size_t) const override { return *input_; }

  const Predicate& predicate() const { return predicate_; }
  double selectivity() const { return selectivity_; }
  LogicalNodePtr TakeInput() { return std::move(input_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr input_;
  Predicate predicate_;
  double selectivity_;
};

/// Projection to `indices`; with `distinct`, duplicates are eliminated.
class LogicalProjectNode : public LogicalNode {
 public:
  LogicalProjectNode(LogicalNodePtr input, std::vector<size_t> indices,
                     bool distinct = false)
      : LogicalNode(LogicalNodeKind::kProject),
        input_(std::move(input)),
        indices_(std::move(indices)),
        distinct_(distinct),
        schema_(input_->output_schema().Project(indices_)) {}

  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  const LogicalNode& child(size_t) const override { return *input_; }

  const std::vector<size_t>& indices() const { return indices_; }
  bool distinct() const { return distinct_; }
  LogicalNodePtr TakeInput() { return std::move(input_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr input_;
  std::vector<size_t> indices_;
  bool distinct_;
  Schema schema_;
};

/// Left semi-join: left tuples with a match in the right input.
class LogicalSemiJoinNode : public LogicalNode {
 public:
  LogicalSemiJoinNode(LogicalNodePtr left, LogicalNodePtr right,
                      std::vector<size_t> left_keys,
                      std::vector<size_t> right_keys)
      : LogicalNode(LogicalNodeKind::kSemiJoin),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)) {}

  const Schema& output_schema() const override {
    return left_->output_schema();
  }
  size_t num_children() const override { return 2; }
  const LogicalNode& child(size_t i) const override {
    return i == 0 ? *left_ : *right_;
  }

  const std::vector<size_t>& left_keys() const { return left_keys_; }
  const std::vector<size_t>& right_keys() const { return right_keys_; }
  LogicalNodePtr TakeLeft() { return std::move(left_); }
  LogicalNodePtr TakeRight() { return std::move(right_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr left_;
  LogicalNodePtr right_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
};

/// Left anti-join: left tuples WITHOUT a match in the right input — the
/// NOT EXISTS building block of the double-negation formulation of
/// universal quantification ("courses for which no required course is
/// missing from the transcript").
class LogicalAntiJoinNode : public LogicalNode {
 public:
  LogicalAntiJoinNode(LogicalNodePtr left, LogicalNodePtr right,
                      std::vector<size_t> left_keys,
                      std::vector<size_t> right_keys)
      : LogicalNode(LogicalNodeKind::kAntiJoin),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)) {}

  const Schema& output_schema() const override {
    return left_->output_schema();
  }
  size_t num_children() const override { return 2; }
  const LogicalNode& child(size_t i) const override {
    return i == 0 ? *left_ : *right_;
  }

  const std::vector<size_t>& left_keys() const { return left_keys_; }
  const std::vector<size_t>& right_keys() const { return right_keys_; }
  LogicalNodePtr TakeLeft() { return std::move(left_); }
  LogicalNodePtr TakeRight() { return std::move(right_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr left_;
  LogicalNodePtr right_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
};

/// Cartesian product; output schema is left columns followed by right
/// columns. Appears only inside the double-negation shapes (candidates ×
/// divisor), where the rewriter eliminates it.
class LogicalCrossJoinNode : public LogicalNode {
 public:
  LogicalCrossJoinNode(LogicalNodePtr left, LogicalNodePtr right);

  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 2; }
  const LogicalNode& child(size_t i) const override {
    return i == 0 ? *left_ : *right_;
  }

  LogicalNodePtr TakeLeft() { return std::move(left_); }
  LogicalNodePtr TakeRight() { return std::move(right_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr left_;
  LogicalNodePtr right_;
  Schema schema_;
};

/// Positional set difference with set semantics: DISTINCT left tuples with
/// no positionally-equal right tuple. The EXCEPT of the double-negation
/// formulation; arities and column types of the inputs must agree.
class LogicalExceptNode : public LogicalNode {
 public:
  LogicalExceptNode(LogicalNodePtr left, LogicalNodePtr right)
      : LogicalNode(LogicalNodeKind::kExcept),
        left_(std::move(left)),
        right_(std::move(right)) {}

  const Schema& output_schema() const override {
    return left_->output_schema();
  }
  size_t num_children() const override { return 2; }
  const LogicalNode& child(size_t i) const override {
    return i == 0 ? *left_ : *right_;
  }

  LogicalNodePtr TakeLeft() { return std::move(left_); }
  LogicalNodePtr TakeRight() { return std::move(right_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr left_;
  LogicalNodePtr right_;
};

/// Group by `group_indices`, computing COUNT(*). Output schema = group
/// columns + an int64 "count" column.
class LogicalGroupCountNode : public LogicalNode {
 public:
  LogicalGroupCountNode(LogicalNodePtr input,
                        std::vector<size_t> group_indices);

  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  const LogicalNode& child(size_t) const override { return *input_; }

  const std::vector<size_t>& group_indices() const { return group_indices_; }
  LogicalNodePtr TakeInput() { return std::move(input_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr input_;
  std::vector<size_t> group_indices_;
  Schema schema_;
};

/// Keeps groups (from a GroupCount input whose last column is the count)
/// whose count equals the CARDINALITY of the `compare_to` input — the
/// "having count(...) = (select count(*) from S)" formulation of for-all.
/// Output schema drops the count column.
class LogicalCountFilterNode : public LogicalNode {
 public:
  LogicalCountFilterNode(LogicalNodePtr input, LogicalNodePtr compare_to);

  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 2; }
  const LogicalNode& child(size_t i) const override {
    return i == 0 ? *input_ : *compare_to_;
  }

  LogicalNodePtr TakeInput() { return std::move(input_); }
  LogicalNodePtr TakeCompareTo() { return std::move(compare_to_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr input_;
  LogicalNodePtr compare_to_;
  Schema schema_;
};

/// Relational division: dividend ÷ divisor; `match_attrs` are the dividend
/// columns matched positionally against all divisor columns.
class LogicalDivisionNode : public LogicalNode {
 public:
  LogicalDivisionNode(LogicalNodePtr dividend, LogicalNodePtr divisor,
                      std::vector<size_t> match_attrs);

  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 2; }
  const LogicalNode& child(size_t i) const override {
    return i == 0 ? *dividend_ : *divisor_;
  }

  const std::vector<size_t>& match_attrs() const { return match_attrs_; }
  const std::vector<size_t>& quotient_attrs() const {
    return quotient_attrs_;
  }
  LogicalNodePtr TakeDividend() { return std::move(dividend_); }
  LogicalNodePtr TakeDivisor() { return std::move(divisor_); }

 protected:
  std::string Describe() const override;

 private:
  LogicalNodePtr dividend_;
  LogicalNodePtr divisor_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;
  Schema schema_;
};

}  // namespace reldiv

#endif  // RELDIV_PLANNER_LOGICAL_PLAN_H_
