#ifndef RELDIV_TESTING_FAILPOINT_H_
#define RELDIV_TESTING_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace reldiv {

/// Deterministic fault injection for the layers that can actually fail:
/// disk transfers, buffer-pool pins, memory grants, extent growth, network
/// sends. Production code marks each such spot with a named *site*
/// (RELDIV_FAILPOINT below); tests arm sites with a trigger policy and the
/// site then returns an injected error Status (or a forced "memory denied"
/// verdict) exactly when the policy says so.
///
/// Zero overhead when disabled: the macros compile to one relaxed atomic
/// load of a global armed-site counter plus a predicted-not-taken branch.
/// The registry (map lookup, policy evaluation, hit/fire counters) is only
/// entered while at least one site is armed anywhere in the process.
///
/// Determinism: every policy is a pure function of the site's hit index —
/// WithProbability draws by HASHING (seed, hit index) rather than advancing
/// a stateful stream, so which hits fire is fixed by the policy alone. Under
/// concurrent traversal the ASSIGNMENT of hit indices to threads depends on
/// the schedule, but the fired SET {k : draw(seed, k) < percent} and hence
/// the total fire count for a given hit count do not — stress failures
/// reproduce from the printed seed alone, and multi-threaded runs fire
/// exactly as often as serial ones. (The earlier design advanced one
/// xorshift stream per site; interleaved threads then consumed draws in
/// schedule order, making fire placement — and with it, which thread's
/// operation failed — irreproducible. That was the latent bug.)
///
/// The full site catalog lives in kFailpointSites below; tools/analyze.py
/// rejects RELDIV_FAILPOINT invocations whose site string is not listed,
/// and checks that the files owning each site still contain it.

/// Per-site trigger policy. Construct via the factories; the default
/// (never fires) is what an unarmed site behaves like.
struct FailpointPolicy {
  enum class Trigger {
    kNever,
    kAlways,       ///< fires on every hit
    kOnNthHit,     ///< fires exactly on hit number `n` (1-based), once
    kProbability,  ///< fires on each hit with probability pct/100, seeded
  };

  Trigger trigger = Trigger::kNever;
  uint64_t n = 0;               ///< kOnNthHit: the 1-based hit to fire on
  uint32_t percent = 0;         ///< kProbability: fire chance in [0, 100]
  uint64_t seed = 0;            ///< kProbability: per-site Rng seed
  StatusCode code = StatusCode::kIOError;  ///< injected error code
  std::string message;          ///< appended to the injected error text

  static FailpointPolicy Always(StatusCode code = StatusCode::kIOError,
                                std::string message = "") {
    FailpointPolicy p;
    p.trigger = Trigger::kAlways;
    p.code = code;
    p.message = std::move(message);
    return p;
  }

  /// Fires exactly on the `n`-th hit after arming (1-based); earlier and
  /// later hits pass through. Models one transient fault at a precise
  /// moment — "the third page read of this query fails".
  static FailpointPolicy OnNthHit(uint64_t n,
                                  StatusCode code = StatusCode::kIOError,
                                  std::string message = "") {
    FailpointPolicy p;
    p.trigger = Trigger::kOnNthHit;
    p.n = n == 0 ? 1 : n;
    p.code = code;
    p.message = std::move(message);
    return p;
  }

  /// Fires on each hit independently with probability `percent`/100. The
  /// per-hit draw is ProbabilityFiresOnHit — a stateless hash of (seed, hit
  /// index), schedule-independent by construction.
  static FailpointPolicy WithProbability(
      uint32_t percent, uint64_t seed,
      StatusCode code = StatusCode::kIOError, std::string message = "") {
    FailpointPolicy p;
    p.trigger = Trigger::kProbability;
    p.percent = percent > 100 ? 100 : percent;
    p.seed = seed;
    p.code = code;
    p.message = std::move(message);
    return p;
  }

  /// Whether a WithProbability(percent, seed) policy fires on its
  /// `hit_index`-th hit (1-based). Pure function of its arguments, so tests
  /// can precompute the exact fire set a hammering run must observe — even
  /// when the hits arrive from many threads at once.
  static bool ProbabilityFiresOnHit(uint32_t percent, uint64_t seed,
                                    uint64_t hit_index);
};

/// Process-wide failpoint registry. Thread-safe: sites are hit from worker
/// threads (the §6 shared-nothing nodes) while tests arm and read counters
/// from the main thread.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global();

  /// Arms `site` with `policy`, resetting its hit/fire counters. Arming an
  /// armed site replaces its policy.
  void Arm(const std::string& site, FailpointPolicy policy);

  /// Disarms `site`; its counters stay readable until the next Arm or
  /// DisarmAll. Unknown sites are ignored.
  void Disarm(const std::string& site);

  /// Disarms every site and forgets all counters.
  void DisarmAll();

  /// Times the site was evaluated while armed / times it fired. 0 for
  /// unknown sites.
  uint64_t hits(const std::string& site) const;
  uint64_t fires(const std::string& site) const;

  /// True while at least one site is armed anywhere. This is the macros'
  /// entire fast path.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // Slow path entry points used by the macros; call only behind AnyArmed().
  Status Check(const char* site);
  bool CheckDeny(const char* site);

 private:
  struct SiteState {
    FailpointPolicy policy;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  FailpointRegistry() = default;
  /// Mutates the hit/fire counters of a site in sites_, so the registry
  /// lock must be held.
  bool ShouldFire(SiteState* state) REQUIRES(mu_);

  static std::atomic<int> armed_count_;
  /// Guards the site map (policies and hit/fire counters).
  mutable Mutex mu_;
  std::map<std::string, SiteState> sites_ GUARDED_BY(mu_);
};

/// RAII arming: arms `site` on construction, disarms it on destruction.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, FailpointPolicy policy)
      : site_(std::move(site)) {
    FailpointRegistry::Global().Arm(site_, std::move(policy));
  }
  ~ScopedFailpoint() { FailpointRegistry::Global().Disarm(site_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Site catalog — one entry per RELDIV_FAILPOINT site compiled into the
/// tree, with the failure it simulates. tools/analyze.py enforces that the
/// macros and this list stay in sync (failpoint-site / failpoint-coverage).
inline constexpr const char* kFailpointSites[] = {
    "sim_disk/read",          // SimDisk::Read transfer error
    "sim_disk/write",         // SimDisk::Write transfer error
    "sim_disk/seek",          // arm movement fails (checked when it moves)
    "buffer/fix",             // BufferManager::Fix page-pin failure
    "memory/reserve",         // MemoryPool::Reserve denied (§3.4 trigger)
    "virtual_device/append",  // VirtualDevice::Append failure
    "extent_file/append",     // RecordFile fresh-page extent growth failure
    "network/send",           // Interconnect shipment lost on send
    "network/recv",           // Interconnect shipment lost on receive
};

}  // namespace reldiv

/// Error-injection site: in a function returning Status (or Result<T>),
/// returns the injected error when `site` is armed and its policy fires.
/// Disabled cost: one relaxed atomic load.
#define RELDIV_FAILPOINT(site)                                              \
  do {                                                                      \
    if (__builtin_expect(::reldiv::FailpointRegistry::AnyArmed(), 0)) {     \
      ::reldiv::Status reldiv_failpoint_status_ =                           \
          ::reldiv::FailpointRegistry::Global().Check(site);                \
      if (!reldiv_failpoint_status_.ok()) return reldiv_failpoint_status_;  \
    }                                                                       \
  } while (0)

/// Verdict-injection site: boolean expression, true when the armed policy
/// fires — used where failure is a denial rather than a Status (memory
/// grants). Disabled cost: one relaxed atomic load.
#define RELDIV_FAILPOINT_DENIED(site)                     \
  (__builtin_expect(::reldiv::FailpointRegistry::AnyArmed(), 0) && \
   ::reldiv::FailpointRegistry::Global().CheckDeny(site))

#endif  // RELDIV_TESTING_FAILPOINT_H_
