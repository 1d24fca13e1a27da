#include "planner/adaptive.h"

#include <algorithm>

#include "common/metric_names.h"
#include "division/hash_division.h"
#include "exec/scan.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"

namespace reldiv {

const char* ReplanTriggerName(ReplanTrigger trigger) {
  switch (trigger) {
    case ReplanTrigger::kNone:
      return "none";
    case ReplanTrigger::kDividendCardinality:
      return "dividend-cardinality";
    case ReplanTrigger::kDivisorCardinality:
      return "divisor-cardinality";
    case ReplanTrigger::kQuotientGrowth:
      return "quotient-growth";
    case ReplanTrigger::kMemoryPressure:
      return "memory-pressure";
  }
  return "unknown";
}

DivisionStatsCache& DivisionStatsCache::Global() {
  // Leaked like the other process singletons so late observers stay valid.
  static DivisionStatsCache* cache = new DivisionStatsCache();  // NOLINT(reldiv/naked-new): intentional static leak, see comment above
  return *cache;
}

DivisionStatsCache::Key DivisionStatsCache::KeyFor(
    const ResolvedDivision& resolved) {
  return Key{resolved.dividend.store, resolved.divisor.store,
             resolved.match_attrs};
}

DivisionStatsCache::Node& DivisionStatsCache::Touch(
    std::map<Key, Node>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second;
}

void DivisionStatsCache::EnforceBound() {
  while (entries_.size() > max_entries_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_++;
    if (Telemetry::counting()) {
      static TelemetryCounter* evictions_total =
          MetricRegistry::Global().FindOrCreateCounter(
              metric_names::kStatsCacheEvictions);
      evictions_total->Add(1);
    }
  }
}

std::optional<DivisionStatsCache::Entry> DivisionStatsCache::Lookup(
    const ResolvedDivision& resolved) {
  MutexLock lock(mu_);
  auto it = entries_.find(KeyFor(resolved));
  if (it == entries_.end()) return std::nullopt;
  return Touch(it).entry;
}

void DivisionStatsCache::RecordObservation(const ResolvedDivision& resolved,
                                           double dividend_tuples,
                                           double divisor_distinct,
                                           double quotient_candidates) {
  MutexLock lock(mu_);
  const Key key = KeyFor(resolved);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    it = entries_.emplace(key, Node{Entry{}, lru_.insert(lru_.begin(), key)})
             .first;
  } else {
    Touch(it);
  }
  Entry& entry = it->second.entry;
  if (entry.runs == 0) {
    entry.dividend_tuples = dividend_tuples;
    entry.divisor_distinct = divisor_distinct;
    entry.quotient_candidates = quotient_candidates;
  } else {
    // EWMA with alpha 0.5: converges geometrically toward repeated
    // observations, so a planted lie is halved per corrected run.
    entry.dividend_tuples += 0.5 * (dividend_tuples - entry.dividend_tuples);
    entry.divisor_distinct += 0.5 * (divisor_distinct - entry.divisor_distinct);
    entry.quotient_candidates +=
        0.5 * (quotient_candidates - entry.quotient_candidates);
  }
  entry.runs++;
  EnforceBound();
}

void DivisionStatsCache::InjectForTest(const ResolvedDivision& resolved,
                                       Entry entry) {
  MutexLock lock(mu_);
  if (entry.runs == 0) entry.runs = 1;
  const Key key = KeyFor(resolved);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    it = entries_.emplace(key, Node{Entry{}, lru_.insert(lru_.begin(), key)})
             .first;
  } else {
    Touch(it);
  }
  it->second.entry = entry;
  EnforceBound();
}

void DivisionStatsCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t DivisionStatsCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

void DivisionStatsCache::set_max_entries(size_t max_entries) {
  MutexLock lock(mu_);
  max_entries_ = max_entries == 0 ? 1 : max_entries;
  EnforceBound();
}

size_t DivisionStatsCache::max_entries() const {
  MutexLock lock(mu_);
  return max_entries_;
}

uint64_t DivisionStatsCache::evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}

namespace {

std::string FormatCardinality(double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

}  // namespace

std::string AdaptiveReport::ToLine() const {
  std::string line = DivisionAlgorithmName(initial.algorithm);
  if (events.empty()) {
    return std::string("none (") + line + ")";
  }
  for (const ReplanEvent& event : events) {
    line += std::string(" -> ") + DivisionAlgorithmName(event.to) + " (" +
            ReplanTriggerName(event.trigger) + " at " +
            std::to_string(event.dividend_tuples_seen) +
            " tuples; expected " + FormatCardinality(event.expected) +
            ", observed " + FormatCardinality(event.observed) + ")";
  }
  if (events.back().to != final_algorithm) {
    line += std::string(" -> ") + DivisionAlgorithmName(final_algorithm);
  }
  return line;
}

AdaptiveDivisionOperator::AdaptiveDivisionOperator(
    ExecContext* ctx, DivisionQuery query, ResolvedDivision resolved,
    const AdaptiveOptions& options)
    : ctx_(ctx),
      query_(std::move(query)),
      resolved_(std::move(resolved)),
      options_(options),
      schema_(resolved_.quotient_schema) {}

AdaptiveDivisionOperator::~AdaptiveDivisionOperator() = default;

namespace {

/// |observed / planned| beyond the threshold in either direction.
bool Diverges(double planned, double observed) {
  const double lo = std::min(planned, observed);
  const double hi = std::max(planned, observed);
  if (hi <= 0) return false;
  if (lo <= 0) return true;
  return hi / lo >= AdaptiveDivisionOperator::kDivergenceThreshold;
}

}  // namespace

void AdaptiveDivisionOperator::RecordDecision(ReplanEvent event) {
  report_.events.push_back(event);
  if (!Telemetry::counting()) return;
  MetricRegistry::Global()
      .FindOrCreateCounter(metric_names::kReplansTotal, "trigger",
                           ReplanTriggerName(event.trigger))
      ->Add(1);
  EventLog::Flight().Record(
      "fallback", "replan",
      std::string(DivisionAlgorithmName(event.from)) + "->" +
          DivisionAlgorithmName(event.to) + " (" +
          ReplanTriggerName(event.trigger) + ")",
      event.dividend_tuples_seen);
}

void AdaptiveDivisionOperator::CountCheckpoint() {
  report_.checkpoints_run++;
  if (Telemetry::counting()) {
    MetricRegistry::Global()
        .FindOrCreateCounter(metric_names::kReplanCheckpointsTotal)
        ->Add(1);
  }
}

Status AdaptiveDivisionOperator::RunStatic(DivisionAlgorithm algorithm,
                                           const DivisionOptions& options) {
  std::unique_ptr<Operator> plan;
  RELDIV_ASSIGN_OR_RETURN(plan,
                          MakeDivisionPlan(ctx_, query_, algorithm, options));
  RELDIV_ASSIGN_OR_RETURN(results_, CollectAll(ctx_, plan.get()));
  report_.final_algorithm = algorithm;
  return Status::OK();
}

Status AdaptiveDivisionOperator::DegradeOnMemoryPressure(
    uint64_t tuples_seen) {
  const double used = core_ == nullptr
                          ? 0
                          : static_cast<double>(core_->memory_bytes());
  core_.reset();
  RecordDecision(ReplanEvent{
      ReplanTrigger::kMemoryPressure, DivisionAlgorithm::kHashDivision,
      DivisionAlgorithm::kHashDivisionPartitioned,
      static_cast<double>(ctx_->hash_memory_bytes()), used, tuples_seen});
  // §3.4: the denial already proved the tables do not fit, so partition
  // the inputs and divide one cluster per phase.
  return RunStatic(DivisionAlgorithm::kHashDivisionPartitioned,
                   options_.division);
}

Status AdaptiveDivisionOperator::RunHashDivision(DivisionStats stats) {
  // The same divisor hint MakeDivisionPlan gives hash-division, so an
  // untriggered run has Table 1 parity with the static operator.
  DivisionOptions tuned = options_.division;
  if (tuned.expected_divisor_cardinality == 0) {
    tuned.expected_divisor_cardinality =
        resolved_.divisor.store->num_records();
  }
  core_ = std::make_unique<HashDivisionCore>(
      ctx_, resolved_.match_attrs, resolved_.quotient_attrs, tuned);

  ScanOperator divisor_scan(ctx_, resolved_.divisor);
  Status build = core_->BuildDivisorTable(&divisor_scan);
  if (build.code() == StatusCode::kResourceExhausted) {
    return DegradeOnMemoryPressure(0);
  }
  RELDIV_RETURN_NOT_OK(build);

  // Post-build checkpoint: the distinct divisor count is now exact and the
  // plan was priced from an estimate of it.
  CountCheckpoint();
  observed_divisor_distinct_ = static_cast<double>(core_->divisor_count());
  if (Diverges(stats.divisor_tuples, observed_divisor_distinct_)) {
    DivisionStats corrected = stats;
    corrected.divisor_tuples = observed_divisor_distinct_;
    // The cache was caught lying about the divisor; fall back to the
    // R = Q × S heuristic over the corrected count.
    corrected.quotient_estimate =
        observed_divisor_distinct_ > 0
            ? corrected.dividend_tuples / observed_divisor_distinct_
            : corrected.dividend_tuples;
    const AlgorithmChoice rechoice =
        ChooseDivisionAlgorithm(corrected, options_.units);
    RecordDecision(ReplanEvent{ReplanTrigger::kDivisorCardinality,
                               DivisionAlgorithm::kHashDivision,
                               rechoice.algorithm, stats.divisor_tuples,
                               observed_divisor_distinct_, 0});
    stats = corrected;
    if (rechoice.algorithm != DivisionAlgorithm::kHashDivision) {
      // Abandon: only the divisor table was built; the dividend is unread.
      core_.reset();
      return RunStatic(rechoice.algorithm,
                       OptionsForChoice(rechoice, options_.division));
    }
  }

  RELDIV_RETURN_NOT_OK(core_->ResetQuotientTable());
  ScanOperator dividend_scan(ctx_, resolved_.dividend);
  RELDIV_RETURN_NOT_OK(dividend_scan.Open());
  if (input_batch_.capacity() != ctx_->batch_capacity()) {
    input_batch_.ResetCapacity(ctx_->batch_capacity(), ctx_->pool());
  }

  const double total =
      static_cast<double>(resolved_.dividend.store->num_records());
  uint64_t seen = 0;
  uint64_t next_checkpoint = kCheckpointInterval;
  bool has_more = true;
  // NOLINTNEXTLINE(reldiv/hand-drain): a checkpoint may abandon the input.
  while (has_more) {
    Status step = dividend_scan.NextBatch(&input_batch_, &has_more);
    if (step.ok()) step = core_->ConsumeBatch(input_batch_, nullptr);
    if (step.code() == StatusCode::kResourceExhausted) {
      (void)dividend_scan.Close();
      return DegradeOnMemoryPressure(seen);
    }
    RELDIV_RETURN_NOT_OK(step);
    seen += input_batch_.size();

    if (seen >= next_checkpoint && has_more) {
      while (next_checkpoint <= seen) next_checkpoint += kCheckpointInterval;
      CountCheckpoint();
      // The quotient-group width so far is a hard lower bound on the final
      // width, so testing it (one-sided) cannot fire on the concave
      // distinct-value discovery curve of an honestly estimated run — a
      // linear extrapolation would, since most candidates appear within the
      // first batches.
      const double candidates =
          static_cast<double>(core_->quotient_candidates());
      const double planned = std::max(1.0, stats.quotient_estimate);
      if (candidates >= planned * kDivergenceThreshold) {
        // The lower bound already proves the plan wrong; the forward
        // extrapolation is the better estimate to re-plan from.
        const double projected =
            seen == 0
                ? candidates
                : candidates * (std::max(total, static_cast<double>(seen)) /
                                static_cast<double>(seen));
        DivisionStats corrected = stats;
        corrected.quotient_estimate = std::max(candidates, projected);
        corrected.divisor_tuples =
            static_cast<double>(core_->divisor_count());
        const AlgorithmChoice rechoice =
            ChooseDivisionAlgorithm(corrected, options_.units);
        RecordDecision(ReplanEvent{ReplanTrigger::kQuotientGrowth,
                                   DivisionAlgorithm::kHashDivision,
                                   rechoice.algorithm, planned, projected,
                                   seen});
        // Whether staying or abandoning, plan from the corrected estimate
        // from here on — one divergence, one decision, no re-firing.
        stats = corrected;
        if (rechoice.algorithm != DivisionAlgorithm::kHashDivision) {
          (void)dividend_scan.Close();
          core_.reset();
          return RunStatic(rechoice.algorithm,
                           OptionsForChoice(rechoice, options_.division));
        }
      }
    }
  }
  RELDIV_RETURN_NOT_OK(dividend_scan.Close());
  RELDIV_RETURN_NOT_OK(core_->EmitComplete(&results_));
  observed_quotient_candidates_ =
      static_cast<double>(core_->quotient_candidates());
  report_.final_algorithm = DivisionAlgorithm::kHashDivision;
  return Status::OK();
}

void AdaptiveDivisionOperator::RecordFeedback() {
  if (!options_.use_stats_cache) return;
  const double dividend =
      static_cast<double>(resolved_.dividend.store->num_records());
  const double divisor =
      observed_divisor_distinct_ > 0
          ? observed_divisor_distinct_
          : static_cast<double>(resolved_.divisor.store->num_records());
  const double quotient = observed_quotient_candidates_ > 0
                              ? observed_quotient_candidates_
                              : static_cast<double>(results_.size());
  DivisionStatsCache::Global().RecordObservation(resolved_, dividend, divisor,
                                                 quotient);
  if (Telemetry::counting()) {
    MetricRegistry::Global()
        .FindOrCreateGauge(metric_names::kReplanStatsCacheEntries)
        ->Set(DivisionStatsCache::Global().size());
  }
}

Status AdaptiveDivisionOperator::Open() {
  // Checked before anything runs, also for an operator built without
  // PlanAdaptiveDivision: the serial drive in RunHashDivision honours
  // neither early_output nor parallel_fragments.
  RELDIV_RETURN_NOT_OK(ValidatePlannerOptions(options_.division));
  results_.clear();
  emit_pos_ = 0;
  core_.reset();
  report_ = AdaptiveReport{};
  observed_divisor_distinct_ = 0;
  observed_quotient_candidates_ = 0;

  DivisionStats exact = EstimateDivisionStats(resolved_, ctx_);
  if (options_.memory_pages_override > 0) {
    exact.memory_pages = options_.memory_pages_override;
  }
  exact.may_contain_duplicates = options_.division.eliminate_duplicates;
  // Mirror PlanDivision: without schema-level integrity knowledge the
  // divisor is treated as potentially restricted.
  exact.divisor_restricted = true;

  DivisionStats stats = exact;
  if (options_.use_stats_cache) {
    if (std::optional<DivisionStatsCache::Entry> entry =
            DivisionStatsCache::Global().Lookup(resolved_)) {
      report_.stats_cache_hit = true;
      if (Telemetry::counting()) {
        MetricRegistry::Global()
            .FindOrCreateCounter(metric_names::kReplanStatsCacheHitsTotal)
            ->Add(1);
      }
      stats.dividend_tuples = entry->dividend_tuples;
      stats.divisor_tuples = entry->divisor_distinct;
      stats.quotient_estimate = entry->quotient_candidates;
    }
  }

  AlgorithmChoice choice = ChooseDivisionAlgorithm(stats, options_.units);
  if (options_.forced_initial.has_value()) {
    choice.algorithm = *options_.forced_initial;
  }
  report_.initial = choice;
  report_.planning_stats = stats;
  report_.final_algorithm = choice.algorithm;
  DivisionAlgorithm current = choice.algorithm;
  DivisionOptions static_options = OptionsForChoice(choice, options_.division);

  // Checkpoint 0, before any execution: the stores' exact counts are free
  // metadata, so a cached dividend cardinality can be validated without
  // touching a page.
  CountCheckpoint();
  if (Diverges(stats.dividend_tuples, exact.dividend_tuples)) {
    DivisionStats corrected = stats;
    corrected.dividend_tuples = exact.dividend_tuples;
    corrected.dividend_pages = exact.dividend_pages;
    const AlgorithmChoice rechoice =
        ChooseDivisionAlgorithm(corrected, options_.units);
    DivisionAlgorithm to = rechoice.algorithm;
    if (current == DivisionAlgorithm::kSortAggregate) {
      // Degrade within the aggregation family before the first merge pass:
      // hash aggregation keeps the same pipeline shape without the sort
      // whose run sizing the wrong cardinality just invalidated.
      to = DivisionAlgorithm::kHashAggregate;
    } else if (current == DivisionAlgorithm::kSortAggregateWithJoin) {
      to = DivisionAlgorithm::kHashAggregateWithJoin;
    }
    RecordDecision(ReplanEvent{ReplanTrigger::kDividendCardinality, current,
                               to, stats.dividend_tuples,
                               exact.dividend_tuples, 0});
    current = to;
    static_options = OptionsForChoice(rechoice, options_.division);
    stats = corrected;
    report_.final_algorithm = current;
  }

  RELDIV_RETURN_NOT_OK(current == DivisionAlgorithm::kHashDivision
                           ? RunHashDivision(stats)
                           : RunStatic(current, static_options));
  RecordFeedback();
  return Status::OK();
}

Status AdaptiveDivisionOperator::Step(Tuple* tuple, bool* has_next) {
  if (emit_pos_ < results_.size()) {
    *tuple = std::move(results_[emit_pos_++]);
    *has_next = true;
    return Status::OK();
  }
  *has_next = false;
  return Status::OK();
}

Status AdaptiveDivisionOperator::Close() {
  core_.reset();
  results_.clear();
  emit_pos_ = 0;
  return Status::OK();
}

void AdaptiveDivisionOperator::ExportGauges(GaugeList* gauges) const {
  gauges->emplace_back("replans", static_cast<double>(report_.events.size()));
  gauges->emplace_back("replan_checkpoints",
                       static_cast<double>(report_.checkpoints_run));
}

Result<std::unique_ptr<AdaptiveDivisionOperator>> PlanAdaptiveDivision(
    ExecContext* ctx, const DivisionQuery& query,
    const AdaptiveOptions& options) {
  RELDIV_RETURN_NOT_OK(ValidatePlannerOptions(options.division));
  RELDIV_ASSIGN_OR_RETURN(ResolvedDivision resolved, ResolveDivision(query));
  return std::make_unique<AdaptiveDivisionOperator>(ctx, query,
                                                    std::move(resolved),
                                                    options);
}

}  // namespace reldiv
