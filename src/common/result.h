#ifndef RELDIV_COMMON_RESULT_H_
#define RELDIV_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/status.h"

namespace reldiv {

/// A value-or-error carrier: either holds a `T` or a non-OK Status.
/// Mirrors arrow::Result. Constructing from an OK status is a programming
/// error (DCHECKed in debug builds, degraded to Internal otherwise).
/// [[nodiscard]] like Status: a dropped Result is a dropped error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /* implicit */ Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}
  /* implicit */ Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    RELDIV_DCHECK(!status_.ok()) << "Result constructed from an OK status";
    if (status_.ok()) status_ = Status::Internal("Result built from OK");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    RELDIV_DCHECK(ok()) << "value() on an error Result: "
                        << status_.ToString();
    return *value_;
  }
  T& value() & {
    RELDIV_DCHECK(ok()) << "value() on an error Result: "
                        << status_.ToString();
    return *value_;
  }
  T&& MoveValue() {
    RELDIV_DCHECK(ok()) << "MoveValue() on an error Result: "
                        << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Assign a Result's value to `lhs`, or propagate its error Status.
#define RELDIV_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = tmp.MoveValue();

#define RELDIV_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  RELDIV_ASSIGN_OR_RETURN_IMPL(RELDIV_CONCAT_(_result_, __LINE__), lhs, rexpr)

}  // namespace reldiv

#endif  // RELDIV_COMMON_RESULT_H_
