#include "service/quotient_cache.h"

#include <utility>

#include "common/metric_names.h"
#include "exec/scan.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"

namespace reldiv {

QuotientCacheEntry::QuotientCacheEntry(const ResolvedDivision& resolved)
    : dividend_store_(resolved.dividend.store),
      divisor_store_(resolved.divisor.store),
      dividend_schema_(resolved.dividend.schema),
      divisor_schema_(resolved.divisor.schema),
      match_attrs_(resolved.match_attrs),
      quotient_attrs_(resolved.quotient_attrs) {}

void QuotientCacheEntry::Clear() {
  divisors_.clear();
  candidates_.clear();
  unmatched_.clear();
  free_numbers_.clear();
  width_ = 0;
  quotient_.reset();
  dividend_version_ = 0;
  divisor_version_ = 0;
  built_ = false;
  broken_ = false;
}

QuotientCacheEntry::Candidate& QuotientCacheEntry::CandidateFor(
    const Tuple& key) {
  auto it = candidates_.find(key);
  if (it == candidates_.end()) {
    Candidate fresh;
    fresh.counts.assign(width_, 0);
    it = candidates_.emplace(key, std::move(fresh)).first;
  }
  return it->second;
}

Status QuotientCacheEntry::ApplyDividendInsert(const Tuple& tuple) {
  Tuple match_key = tuple.Project(match_attrs_);
  Tuple quotient_key = tuple.Project(quotient_attrs_);
  auto divisor_it = divisors_.find(match_key);
  if (divisor_it == divisors_.end()) {
    unmatched_[std::move(match_key)][std::move(quotient_key)]++;
    return Status::OK();
  }
  const uint32_t number = divisor_it->second.number;
  Candidate& candidate = CandidateFor(quotient_key);
  if (candidate.counts[number]++ == 0 &&
      ++candidate.nonzero == divisors_.size()) {
    quotient_.reset();  // it joined the quotient
  }
  candidate.total++;
  return Status::OK();
}

Status QuotientCacheEntry::ApplyDividendDelete(const Tuple& tuple) {
  Tuple match_key = tuple.Project(match_attrs_);
  Tuple quotient_key = tuple.Project(quotient_attrs_);
  auto divisor_it = divisors_.find(match_key);
  if (divisor_it == divisors_.end()) {
    // The row matched no divisor; it must be parked in unmatched_.
    auto bucket_it = unmatched_.find(match_key);
    if (bucket_it == unmatched_.end()) {
      return Status::Internal("quotient cache: delete of unseen dividend row");
    }
    auto row_it = bucket_it->second.find(quotient_key);
    if (row_it == bucket_it->second.end() || row_it->second == 0) {
      return Status::Internal("quotient cache: delete of unseen dividend row");
    }
    if (--row_it->second == 0) bucket_it->second.erase(row_it);
    if (bucket_it->second.empty()) unmatched_.erase(bucket_it);
    return Status::OK();
  }
  const uint32_t number = divisor_it->second.number;
  auto candidate_it = candidates_.find(quotient_key);
  if (candidate_it == candidates_.end() ||
      candidate_it->second.counts[number] == 0) {
    return Status::Internal("quotient cache: delete of unseen dividend row");
  }
  Candidate& candidate = candidate_it->second;
  if (--candidate.counts[number] == 0 &&
      candidate.nonzero-- == divisors_.size()) {
    // It left the quotient; a member is erased below only after this.
    quotient_.reset();
  }
  // Counted invalidation: the candidate disappears only when its last
  // supporting dividend row does.
  if (--candidate.total == 0) candidates_.erase(candidate_it);
  return Status::OK();
}

Status QuotientCacheEntry::ApplyDivisorInsert(const Tuple& tuple) {
  auto it = divisors_.find(tuple);
  if (it != divisors_.end()) {
    it->second.copies++;
    return Status::OK();
  }
  // A new distinct value raises `required`: membership may change anywhere.
  quotient_.reset();
  uint32_t number;
  if (!free_numbers_.empty()) {
    number = free_numbers_.back();
    free_numbers_.pop_back();
  } else {
    // Divisor growth widens every candidate's count vector (the §3.3 bit
    // maps gaining a column).
    number = static_cast<uint32_t>(width_++);
    for (auto& [key, candidate] : candidates_) candidate.counts.push_back(0);
  }
  divisors_.emplace(tuple, DivisorSlot{number, 1});
  // Adopt dividend rows that were waiting for exactly this divisor value.
  auto bucket_it = unmatched_.find(tuple);
  if (bucket_it != unmatched_.end()) {
    for (const auto& [quotient_key, copies] : bucket_it->second) {
      Candidate& candidate = CandidateFor(quotient_key);
      if (candidate.counts[number] == 0 && copies > 0) candidate.nonzero++;
      candidate.counts[number] += static_cast<uint32_t>(copies);
      candidate.total += copies;
    }
    unmatched_.erase(bucket_it);
  }
  return Status::OK();
}

Status QuotientCacheEntry::ApplyDivisorDelete(const Tuple& tuple) {
  auto it = divisors_.find(tuple);
  if (it == divisors_.end() || it->second.copies == 0) {
    return Status::Internal("quotient cache: delete of unseen divisor row");
  }
  if (--it->second.copies > 0) return Status::OK();
  // Last copy gone: retire the number, parking its column in unmatched_ so
  // a re-insert of the same value adopts the rows back. `required` drops,
  // so membership may change anywhere.
  quotient_.reset();
  const uint32_t number = it->second.number;
  auto& bucket = unmatched_[tuple];
  for (auto candidate_it = candidates_.begin();
       candidate_it != candidates_.end();) {
    Candidate& candidate = candidate_it->second;
    const uint32_t copies = candidate.counts[number];
    if (copies == 0) {
      ++candidate_it;
      continue;
    }
    candidate.counts[number] = 0;
    candidate.nonzero--;
    candidate.total -= copies;
    bucket[candidate_it->first] += copies;
    if (candidate.total == 0) {
      candidate_it = candidates_.erase(candidate_it);
    } else {
      ++candidate_it;
    }
  }
  if (bucket.empty()) unmatched_.erase(tuple);
  divisors_.erase(it);
  free_numbers_.push_back(number);
  return Status::OK();
}

Status QuotientCacheEntry::Build(ExecContext* ctx) {
  Clear();
  // Capture the pre-scan versions; a writer racing the build bumps them and
  // is detected below (the entry comes up broken and the next lookup
  // rebuilds — correctness never leans on the scan/observer interleaving).
  const uint64_t dividend_before = dividend_store_->version();
  const uint64_t divisor_before = divisor_store_->version();

  const size_t capacity =
      ctx != nullptr ? ctx->batch_capacity() : TupleBatch::kDefaultCapacity;
  ScanOperator divisor_scan(ctx, Relation{divisor_schema_, divisor_store_});
  RELDIV_RETURN_NOT_OK(
      Drain(&divisor_scan, capacity, ctx, [&](TupleBatch& batch) -> Status {
        for (const Tuple& tuple : batch) {
          RELDIV_RETURN_NOT_OK(ApplyDivisorInsert(tuple));
        }
        return Status::OK();
      }));
  ScanOperator dividend_scan(ctx, Relation{dividend_schema_, dividend_store_});
  RELDIV_RETURN_NOT_OK(
      Drain(&dividend_scan, capacity, ctx, [&](TupleBatch& batch) -> Status {
        for (const Tuple& tuple : batch) {
          RELDIV_RETURN_NOT_OK(ApplyDividendInsert(tuple));
        }
        return Status::OK();
      }));

  SyncVersions();
  built_ = true;
  if (dividend_store_->version() != dividend_before ||
      divisor_store_->version() != divisor_before) {
    broken_ = true;
  }
  return Status::OK();
}

std::shared_ptr<const std::vector<Tuple>> QuotientCacheEntry::Quotient() {
  if (quotient_ != nullptr) return quotient_;
  auto quotient = std::make_shared<std::vector<Tuple>>();
  // Engine-wide convention: an empty divisor divides nothing.
  if (!divisors_.empty()) {
    const size_t required = divisors_.size();
    for (const auto& [key, candidate] : candidates_) {
      if (candidate.nonzero == required) quotient->push_back(key);
    }
  }
  quotient_ = std::move(quotient);
  return quotient_;
}

bool QuotientCacheEntry::VersionsMatch() const {
  return dividend_version_ == dividend_store_->version() &&
         divisor_version_ == divisor_store_->version();
}

void QuotientCacheEntry::SyncVersions() {
  dividend_version_ = dividend_store_->version();
  divisor_version_ = divisor_store_->version();
}

void QuotientCache::Slot::Publish() {
  std::shared_ptr<const Snapshot> published;
  if (entry.built() && !entry.broken()) {
    published = std::make_shared<const Snapshot>(Snapshot{
        entry.Quotient(), entry.dividend_version(), entry.divisor_version()});
  }
  {
    MutexLock lock(snapshot_mu);
    snapshot.swap(published);
  }
  // The replaced snapshot (maybe the last owner of its quotient) is freed
  // here, outside the pointer lock.
}

QuotientCache::QuotientCache(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

QuotientCache::Key QuotientCache::KeyFor(const ResolvedDivision& resolved) {
  return Key{resolved.dividend.store, resolved.divisor.store,
             resolved.match_attrs};
}

void QuotientCache::EnforceBound() {
  while (slots_.size() > max_entries_) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    evictions_++;
    if (Telemetry::counting()) {
      MetricRegistry::Global()
          .FindOrCreateCounter(metric_names::kQcacheEvictionsTotal)
          ->Add(1);
    }
  }
  if (Telemetry::counting()) {
    MetricRegistry::Global()
        .FindOrCreateGauge(metric_names::kQcacheEntries)
        ->Set(slots_.size());
  }
}

std::shared_ptr<QuotientCache::Slot> QuotientCache::FindOrCreateSlot(
    const ResolvedDivision& resolved) {
  Key key = KeyFor(resolved);
  MutexLock lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    auto slot = std::make_shared<Slot>(resolved);
    slot->lru_pos = lru_.insert(lru_.begin(), key);
    it = slots_.emplace(std::move(key), std::move(slot)).first;
    EnforceBound();
  } else {
    lru_.splice(lru_.begin(), lru_, it->second->lru_pos);
  }
  return it->second;
}

void QuotientCache::CountHit() {
  {
    MutexLock lock(mu_);
    hits_++;
  }
  if (Telemetry::counting()) {
    MetricRegistry::Global()
        .FindOrCreateCounter(metric_names::kQcacheHitsTotal)
        ->Add(1);
  }
}

void QuotientCache::CountInvalidation(const char* reason) {
  {
    MutexLock lock(mu_);
    invalidations_++;
  }
  if (Telemetry::counting()) {
    MetricRegistry::Global()
        .FindOrCreateCounter(metric_names::kQcacheInvalidationsTotal)
        ->Add(1);
    EventLog::Flight().Record("fallback", "qcache_invalidate", reason);
  }
}

Result<QuotientCache::QuotientPtr> QuotientCache::GetOrCompute(
    const ResolvedDivision& resolved, ExecContext* ctx, bool* was_hit) {
  std::shared_ptr<Slot> slot = FindOrCreateSlot(resolved);
  MutexLock entry_lock(slot->mu);
  QuotientCacheEntry& entry = slot->entry;
  if (entry.built() && !entry.broken() && entry.VersionsMatch()) {
    CountHit();
    if (was_hit != nullptr) *was_hit = true;
    return entry.Quotient();
  }

  if (entry.built()) {
    CountInvalidation(entry.broken() ? "maintenance_broken"
                                     : "version_mismatch");
  } else {
    {
      MutexLock lock(mu_);
      misses_++;
    }
    if (Telemetry::counting()) {
      MetricRegistry::Global()
          .FindOrCreateCounter(metric_names::kQcacheMissesTotal)
          ->Add(1);
    }
  }

  Status built = entry.Build(ctx);
  if (!built.ok()) {
    // A cancelled or failed build leaves partial state; drop it so the next
    // lookup starts from scratch.
    entry.Clear();
    slot->Publish();
    return built;
  }
  slot->Publish();
  if (was_hit != nullptr) *was_hit = false;
  return entry.Quotient();
}

QuotientCache::QuotientPtr QuotientCache::TryHit(
    const ResolvedDivision& resolved) {
  QuotientPtr quotient;
  {
    MutexLock lock(mu_);
    auto it = slots_.find(KeyFor(resolved));
    if (it == slots_.end()) return nullptr;
    // The snapshot is loaded before the store versions: when they match,
    // the stores stood at the stamped versions when it was loaded.
    std::shared_ptr<const Snapshot> snapshot;
    {
      MutexLock snapshot_lock(it->second->snapshot_mu);
      snapshot = it->second->snapshot;
    }
    if (snapshot == nullptr ||
        snapshot->dividend_version != resolved.dividend.store->version() ||
        snapshot->divisor_version != resolved.divisor.store->version()) {
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second->lru_pos);
    quotient = snapshot->quotient;
  }
  CountHit();
  return quotient;
}

void QuotientCache::OnStoreUpdate(RecordStore* store, const Tuple& tuple,
                                  bool inserted) {
  std::vector<std::shared_ptr<Slot>> interested;
  {
    MutexLock lock(mu_);
    for (const auto& [key, slot] : slots_) {
      if (key.dividend == store || key.divisor == store) {
        interested.push_back(slot);
      }
    }
  }
  uint64_t applied = 0;
  for (const std::shared_ptr<Slot>& slot : interested) {
    MutexLock entry_lock(slot->mu);
    QuotientCacheEntry& entry = slot->entry;
    if (!entry.built() || entry.broken()) continue;
    const uint64_t applied_before = applied;
    if (entry.dividend_store() == store) {
      const uint64_t version = store->version();
      if (version <= entry.dividend_version()) {
        // The build scan already covered this mutation.
      } else if (version == entry.dividend_version() + 1) {
        Status status = inserted ? entry.ApplyDividendInsert(tuple)
                                 : entry.ApplyDividendDelete(tuple);
        if (status.ok()) {
          entry.AdvanceDividendVersion();
          applied++;
        } else {
          entry.MarkBroken();
        }
      } else {
        // A version gap: some mutation bypassed the observer. Fall back to
        // version-checked invalidation on the next lookup.
        entry.MarkBroken();
      }
    }
    if (entry.divisor_store() == store && !entry.broken()) {
      const uint64_t version = store->version();
      if (version <= entry.divisor_version()) {
        // Covered by the build scan.
      } else if (version == entry.divisor_version() + 1) {
        Status status = inserted ? entry.ApplyDivisorInsert(tuple)
                                 : entry.ApplyDivisorDelete(tuple);
        if (status.ok()) {
          entry.AdvanceDivisorVersion();
          applied++;
        } else {
          entry.MarkBroken();
        }
      } else {
        entry.MarkBroken();
      }
    }
    if (applied != applied_before || entry.broken()) slot->Publish();
  }
  if (applied > 0) {
    {
      MutexLock lock(mu_);
      incremental_updates_ += applied;
    }
    if (Telemetry::counting()) {
      MetricRegistry::Global()
          .FindOrCreateCounter(metric_names::kQcacheIncrementalUpdatesTotal)
          ->Add(applied);
    }
  }
}

void QuotientCache::set_max_entries(size_t max_entries) {
  MutexLock lock(mu_);
  max_entries_ = max_entries == 0 ? 1 : max_entries;
  EnforceBound();
}

size_t QuotientCache::max_entries() const {
  MutexLock lock(mu_);
  return max_entries_;
}

size_t QuotientCache::size() const {
  MutexLock lock(mu_);
  return slots_.size();
}

uint64_t QuotientCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t QuotientCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

uint64_t QuotientCache::invalidations() const {
  MutexLock lock(mu_);
  return invalidations_;
}

uint64_t QuotientCache::incremental_updates() const {
  MutexLock lock(mu_);
  return incremental_updates_;
}

uint64_t QuotientCache::evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}

void QuotientCache::Clear() {
  MutexLock lock(mu_);
  slots_.clear();
  lru_.clear();
}

}  // namespace reldiv
