#ifndef RELDIV_EXEC_CONTRACT_CHECK_H_
#define RELDIV_EXEC_CONTRACT_CHECK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/counters.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Runtime validator for the Operator protocol documented on
/// exec/operator.h. Wraps any operator, forwards every call, and fails the
/// query with Status::Internal on the first contract violation — by the
/// wrapped operator (produces more tuples than the batch capacity, emits
/// tuples that do not conform to its output schema, rewinds the plan's cost
/// counters) or by the caller (NextBatch before Open or after end-of-stream,
/// unbalanced Open/Close).
///
/// The wrapper is pure overhead in correct plans — it changes no tuples, no
/// ordering and no counter accounting of its child — so plan builders insert
/// it only when ExecContext::contract_checks() is on. Tests flip that flag
/// to run entire division plans under protocol validation; see
/// tests/contract_check_test.cc for deliberately broken operators it must
/// catch.
class ContractCheckOperator : public Operator {
 public:
  /// `label` names the wrapped operator in violation messages (defaults to
  /// "operator").
  ContractCheckOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                        std::string label = "operator");

  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;
  void ExportGauges(GaugeList* gauges) const override {
    child_->ExportGauges(gauges);
  }

  /// Number of violations detected so far (each one also failed the
  /// offending call with an Internal status).
  uint64_t violations() const { return violations_; }

 private:
  /// Lifecycle of one Open()/Close() cycle, as specified on operator.h.
  enum class State : uint8_t {
    kClosed,     ///< before Open() or after Close(); no pulls allowed
    kOpen,       ///< streaming; NextBatch() legal
    kExhausted,  ///< end-of-stream reported; only Close() is legal
  };

  /// Records the violation and builds the Internal status for it.
  Status Violation(const std::string& what);

  /// Checks one emitted tuple against the child's output schema (arity and
  /// per-column value types).
  Status CheckSchemaConformance(const Tuple& tuple);

  /// Checks that the child call did not rewind any CPU cost counter.
  Status CheckCounterDeltas(const CpuCounters& before, const char* call);

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::string label_;
  State state_ = State::kClosed;
  bool ever_opened_ = false;
  uint64_t violations_ = 0;
};

/// Wraps `plan` in a ContractCheckOperator when the context has contract
/// checks enabled; returns it unchanged otherwise. Plan builders call this
/// on the operators they hand out.
std::unique_ptr<Operator> MaybeContractCheck(ExecContext* ctx,
                                             std::unique_ptr<Operator> plan,
                                             std::string label);

}  // namespace reldiv

#endif  // RELDIV_EXEC_CONTRACT_CHECK_H_
