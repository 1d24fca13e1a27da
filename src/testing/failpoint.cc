#include "testing/failpoint.h"

#include "common/metric_names.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"

namespace reldiv {

namespace {

/// A fired failpoint is a simulated fault — exactly the history the flight
/// recorder should replay after a crash or a failed differential run. Cold
/// path by definition (only armed sites reach here, only fires recorded).
void RecordFire(const char* site) {
  if (!Telemetry::counting()) return;
  static TelemetryCounter* fires =
      MetricRegistry::Global().FindOrCreateCounter(
          metric_names::kFailpointFiresTotal);
  fires->Add(1);
  EventLog::Flight().Record("failpoint", "failpoint_fire", site);
}

/// SplitMix64 finalizer over (seed, hit index) — the stateless per-hit draw
/// behind WithProbability (same mixer family as common/rng.h's seeding).
uint64_t MixSeedAndHit(uint64_t seed, uint64_t hit_index) {
  uint64_t z = seed ^ (hit_index * 0x9e3779b97f4a7c15ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

bool FailpointPolicy::ProbabilityFiresOnHit(uint32_t percent, uint64_t seed,
                                            uint64_t hit_index) {
  return MixSeedAndHit(seed, hit_index) % 100 < percent;
}

std::atomic<int> FailpointRegistry::armed_count_{0};

FailpointRegistry& FailpointRegistry::Global() {
  // Intentionally leaked so late-destroyed threads can still consult it.
  static FailpointRegistry* registry =
      new FailpointRegistry();  // NOLINT(reldiv/naked-new): intentional static leak, see comment above
  return *registry;
}

void FailpointRegistry::Arm(const std::string& site, FailpointPolicy policy) {
  MutexLock lock(mu_);
  SiteState& state = sites_[site];
  if (!state.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.hits = 0;
  state.fires = 0;
  state.policy = std::move(policy);
}

void FailpointRegistry::Disarm(const std::string& site) {
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FailpointRegistry::DisarmAll() {
  MutexLock lock(mu_);
  for (auto& [site, state] : sites_) {
    if (state.armed) armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  sites_.clear();
}

uint64_t FailpointRegistry::hits(const std::string& site) const {
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FailpointRegistry::fires(const std::string& site) const {
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

bool FailpointRegistry::ShouldFire(SiteState* state) {
  state->hits++;
  bool fire = false;
  switch (state->policy.trigger) {
    case FailpointPolicy::Trigger::kNever:
      break;
    case FailpointPolicy::Trigger::kAlways:
      fire = true;
      break;
    case FailpointPolicy::Trigger::kOnNthHit:
      fire = state->hits == state->policy.n;
      break;
    case FailpointPolicy::Trigger::kProbability:
      // Stateless hit-indexed draw: the set of firing hit indices is fixed
      // by (percent, seed) alone, never by which thread hit the site when.
      fire = FailpointPolicy::ProbabilityFiresOnHit(
          state->policy.percent, state->policy.seed, state->hits);
      break;
  }
  if (fire) state->fires++;
  return fire;
}

Status FailpointRegistry::Check(const char* site) {
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return Status::OK();
  SiteState& state = it->second;
  if (!ShouldFire(&state)) return Status::OK();
  RecordFire(site);
  std::string message = "failpoint '" + std::string(site) + "' fired";
  if (!state.policy.message.empty()) message += ": " + state.policy.message;
  return Status(state.policy.code, std::move(message));
}

bool FailpointRegistry::CheckDeny(const char* site) {
  MutexLock lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return false;
  const bool fired = ShouldFire(&it->second);
  if (fired) RecordFire(site);
  return fired;
}

}  // namespace reldiv
