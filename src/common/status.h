#ifndef RELDIV_COMMON_STATUS_H_
#define RELDIV_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace reldiv {

/// Error categories used throughout the library. The library never throws;
/// every fallible operation returns a Status (or a Result<T>, see result.h).
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIOError = 3,
  kResourceExhausted = 4,
  kCorruption = 5,
  kNotSupported = 6,
  kInternal = 7,
  kCancelled = 8,
};

/// Lightweight status object in the RocksDB/Arrow style: a code plus an
/// optional human-readable message. The OK status carries no allocation.
///
/// The class is [[nodiscard]]: every function returning a Status by value
/// makes the caller handle it — propagate (RELDIV_RETURN_NOT_OK), check, or
/// discard EXPLICITLY with a `(void)` cast plus a comment saying why the
/// error cannot matter (builds run -Werror=unused-result; DESIGN.md §13).
/// PR 4 found silently-dropped Status in Close paths by hand; this makes
/// the bug class unrepresentable.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Name of a status code, e.g. "InvalidArgument".
std::string_view StatusCodeName(StatusCode code);

#define RELDIV_CONCAT_INNER_(a, b) a##b
#define RELDIV_CONCAT_(a, b) RELDIV_CONCAT_INNER_(a, b)

/// Propagate a non-OK Status to the caller. `expr` must evaluate to a Status.
/// The temporary is named per line, so a use inside a lambda that is itself
/// the argument of an outer use does not shadow the outer one.
#define RELDIV_RETURN_NOT_OK(expr) \
  RELDIV_RETURN_NOT_OK_IMPL(RELDIV_CONCAT_(_st_, __LINE__), expr)

#define RELDIV_RETURN_NOT_OK_IMPL(tmp, expr) \
  do {                                       \
    ::reldiv::Status tmp = (expr);           \
    if (!tmp.ok()) return tmp;               \
  } while (false)

}  // namespace reldiv

#endif  // RELDIV_COMMON_STATUS_H_
