#ifndef RELDIV_COMMON_CHECK_H_
#define RELDIV_COMMON_CHECK_H_

#include <memory>
#include <sstream>
#include <string>
#include <utility>

namespace reldiv {

/// Executable invariants.
///
/// RELDIV_CHECK(cond) fires in every build type; use it for cold-path
/// invariants whose violation means the process must not continue (table
/// construction, partition-phase agreement, cross-structure width checks).
/// RELDIV_DCHECK(cond) compiles away in optimized builds (see
/// RELDIV_DEBUG_CHECKS below); use it on hot paths — per-tuple, per-bit,
/// per-slot preconditions that the surrounding loop already bounds.
///
/// Both accept streamed context and have _EQ/_NE/_LT/_LE/_GT/_GE variants
/// that capture and print the two operand values:
///
///   RELDIV_CHECK_EQ(bitmap.num_bits(), divisor_count)
///       << "quotient bit map width must equal the divisor cardinality";
///
/// A failed check formats "RELDIV_CHECK(expr) failed ..." and hands the
/// message to the installed failure handler. The default handler prints to
/// stderr and aborts; tests may install their own (e.g. one that throws) via
/// SetCheckFailureHandler to assert that an invariant fires without a death
/// test. A handler that returns normally resumes execution after the failed
/// check, so non-aborting handlers are for tests only.
using CheckFailureHandler = void (*)(const char* file, int line,
                                     const std::string& message);

/// Installs `handler` process-wide and returns the previous one; nullptr
/// restores the default abort handler.
CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler);

/// Last-words hook run by the DEFAULT (aborting) failure handler after
/// printing the message and before abort() — the flight ring
/// (EventLog::Flight, obs/event_log.h) installs its stderr dump here so the
/// events leading up to an invariant violation appear in the crash output. The
/// hook must not fail a check itself. Custom handlers installed via
/// SetCheckFailureHandler are not affected (a throwing test handler keeps
/// the process alive; it can dump explicitly if it wants to).
using CheckFailureDumpHook = void (*)();

/// Installs `hook` process-wide and returns the previous one; nullptr
/// clears it.
CheckFailureDumpHook SetCheckFailureDumpHook(CheckFailureDumpHook hook);

namespace check_internal {

/// Accumulates a failure message; the destructor hands the completed message
/// (including everything streamed after the macro) to the installed failure
/// handler. noexcept(false) so a test handler may throw through it.
class CheckFailureStream {
 public:
  CheckFailureStream(const char* file, int line, const char* head);
  CheckFailureStream(const char* file, int line, std::string head);
  ~CheckFailureStream() noexcept(false);

  CheckFailureStream(const CheckFailureStream&) = delete;
  CheckFailureStream& operator=(const CheckFailureStream&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Makes the ternary in RELDIV_CHECK type out to void on both arms.
/// operator& binds looser than operator<<, so streamed context attaches to
/// the CheckFailureStream before Voidify swallows it.
struct Voidify {
  void operator&(std::ostream&) {}
};

/// Best-effort rendering of a checked operand for the _EQ/_LT/... message.
template <typename T>
std::string CheckOpValue(const T& v) {
  if constexpr (requires(std::ostream& os) { os << v; }) {
    std::ostringstream os;
    os << v;
    return os.str();
  } else {
    return "(unprintable)";
  }
}

/// Builds the "expr (lhs vs. rhs)" head of a binary-check failure.
std::string MakeCheckOpMessage(const char* expr, const std::string& lhs,
                               const std::string& rhs);

#define RELDIV_CHECK_DEFINE_OP_(name, op)                                   \
  template <typename A, typename B>                                         \
  std::unique_ptr<std::string> Check##name(const A& a, const B& b,          \
                                           const char* expr) {              \
    if (a op b) return nullptr; /* fast path: invariant holds */            \
    return std::make_unique<std::string>(                                   \
        MakeCheckOpMessage(expr, CheckOpValue(a), CheckOpValue(b)));        \
  }

RELDIV_CHECK_DEFINE_OP_(EQ, ==)
RELDIV_CHECK_DEFINE_OP_(NE, !=)
RELDIV_CHECK_DEFINE_OP_(LT, <)
RELDIV_CHECK_DEFINE_OP_(LE, <=)
RELDIV_CHECK_DEFINE_OP_(GT, >)
RELDIV_CHECK_DEFINE_OP_(GE, >=)

#undef RELDIV_CHECK_DEFINE_OP_

}  // namespace check_internal
}  // namespace reldiv

/// Always-on invariant check. Expression-shaped (usable wherever a void
/// expression is), evaluates `condition` exactly once.
#define RELDIV_CHECK(condition)                                              \
  (__builtin_expect(static_cast<bool>(condition), 1))                        \
      ? (void)0                                                              \
      : ::reldiv::check_internal::Voidify() &                                \
            ::reldiv::check_internal::CheckFailureStream(                    \
                __FILE__, __LINE__, "RELDIV_CHECK(" #condition ") failed")   \
                .stream()

/// Binary always-on checks; operands are evaluated exactly once and their
/// values appear in the failure message. Statement-shaped (the switch
/// wrapper keeps them safe in dangling-else positions).
#define RELDIV_CHECK_OP_(name, op, a, b)                                     \
  switch (0)                                                                 \
  case 0:                                                                    \
  default:                                                                   \
    if (::std::unique_ptr<::std::string> reldiv_check_failed_ =              \
            ::reldiv::check_internal::Check##name(                           \
                (a), (b), "RELDIV_CHECK(" #a " " #op " " #b ") failed");     \
        reldiv_check_failed_ == nullptr)                                     \
      ;                                                                      \
    else                                                                     \
      ::reldiv::check_internal::CheckFailureStream(                          \
          __FILE__, __LINE__, ::std::move(*reldiv_check_failed_))            \
          .stream()

#define RELDIV_CHECK_EQ(a, b) RELDIV_CHECK_OP_(EQ, ==, a, b)
#define RELDIV_CHECK_NE(a, b) RELDIV_CHECK_OP_(NE, !=, a, b)
#define RELDIV_CHECK_LT(a, b) RELDIV_CHECK_OP_(LT, <, a, b)
#define RELDIV_CHECK_LE(a, b) RELDIV_CHECK_OP_(LE, <=, a, b)
#define RELDIV_CHECK_GT(a, b) RELDIV_CHECK_OP_(GT, >, a, b)
#define RELDIV_CHECK_GE(a, b) RELDIV_CHECK_OP_(GE, >=, a, b)

/// Debug checks are on whenever NDEBUG is off, and can be forced on in
/// optimized builds (the asan/tsan presets pass -DRELDIV_FORCE_DCHECKS=1 so
/// sanitizer runs exercise every DCHECK too).
#if !defined(NDEBUG) || defined(RELDIV_FORCE_DCHECKS)
#define RELDIV_DEBUG_CHECKS 1
#else
#define RELDIV_DEBUG_CHECKS 0
#endif

#if RELDIV_DEBUG_CHECKS
#define RELDIV_DCHECK(condition) RELDIV_CHECK(condition)
#define RELDIV_DCHECK_EQ(a, b) RELDIV_CHECK_EQ(a, b)
#define RELDIV_DCHECK_NE(a, b) RELDIV_CHECK_NE(a, b)
#define RELDIV_DCHECK_LT(a, b) RELDIV_CHECK_LT(a, b)
#define RELDIV_DCHECK_LE(a, b) RELDIV_CHECK_LE(a, b)
#define RELDIV_DCHECK_GT(a, b) RELDIV_CHECK_GT(a, b)
#define RELDIV_DCHECK_GE(a, b) RELDIV_CHECK_GE(a, b)
#else
/// Compiled out: the condition stays type-checked but is never evaluated,
/// and streamed context is discarded with it.
#define RELDIV_DCHECK(condition) \
  while (false) RELDIV_CHECK(condition)
#define RELDIV_DCHECK_EQ(a, b) \
  while (false) RELDIV_CHECK_EQ(a, b)
#define RELDIV_DCHECK_NE(a, b) \
  while (false) RELDIV_CHECK_NE(a, b)
#define RELDIV_DCHECK_LT(a, b) \
  while (false) RELDIV_CHECK_LT(a, b)
#define RELDIV_DCHECK_LE(a, b) \
  while (false) RELDIV_CHECK_LE(a, b)
#define RELDIV_DCHECK_GT(a, b) \
  while (false) RELDIV_CHECK_GT(a, b)
#define RELDIV_DCHECK_GE(a, b) \
  while (false) RELDIV_CHECK_GE(a, b)
#endif  // RELDIV_DEBUG_CHECKS

#endif  // RELDIV_COMMON_CHECK_H_
