#include "division/partitioned_hash_division.h"

#include <algorithm>
#include <numeric>

#include "common/metric_names.h"
#include "common/row_codec.h"
#include "division/hash_division.h"
#include "exec/exchange.h"
#include "exec/scan.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"
#include "storage/record_file.h"

namespace reldiv {

namespace {

/// Ceiling on the recursive cluster-split depth. Each level halves a
/// cluster in expectation, so 16 levels shrink any practical cluster to
/// single tuples; a cluster that still overflows then is a single entry
/// larger than the budget, which no partitioning can fix.
constexpr size_t kMaxRepartitionDepth = 16;

/// §3.4 partitioning into temporary cluster files: DrainAndRoute (salted by
/// `salt`) places each tuple of `input` by its `attrs`, and the store step
/// appends it to its cluster's file in input order, so page writes and
/// seeks follow the tuple order.
Result<std::vector<std::unique_ptr<RecordFile>>> SpillClusters(
    ExecContext* ctx, Operator* input, const std::vector<size_t>& attrs,
    size_t num_partitions, uint64_t salt, const std::string& label) {
  std::vector<std::unique_ptr<RecordFile>> clusters;
  clusters.reserve(num_partitions);
  for (size_t i = 0; i < num_partitions; ++i) {
    clusters.push_back(std::make_unique<RecordFile>(
        ctx->disk(), ctx->buffer_manager(),
        label + "-cluster-" + std::to_string(i)));
  }
  const RowCodec codec(input->output_schema());
  std::string buffer;
  RELDIV_RETURN_NOT_OK(DrainAndRoute(
      ctx, input, attrs, num_partitions, salt,
      [&](const TupleBatch& batch, const std::vector<size_t>& to) -> Status {
        for (size_t i = 0; i < batch.size(); ++i) {
          buffer.clear();
          RELDIV_RETURN_NOT_OK(codec.Encode(batch.tuple(i), &buffer));
          RELDIV_ASSIGN_OR_RETURN(Rid rid,
                                  clusters[to[i]]->Append(Slice(buffer)));
          (void)rid;
        }
        return Status::OK();
      }));
  return clusters;
}

/// A cluster's quotient-table hint: its record count bounds its quotient
/// candidates, and the planner hint (when present) the total.
uint64_t QuotientHint(const RecordFile& cluster,
                      const DivisionOptions& options) {
  const uint64_t n = std::max<uint64_t>(cluster.num_records(), 1);
  const uint64_t total = options.expected_quotient_cardinality;
  return total == 0 ? n : std::min(n, total);
}

/// Every column of `schema`: the divisor's partitioning attributes.
std::vector<size_t> AllColumns(const Schema& schema) {
  std::vector<size_t> columns(schema.num_fields());
  std::iota(columns.begin(), columns.end(), 0);
  return columns;
}

/// Counts one recursive split (§3.4 overflow recovery) in the process-wide
/// registry and the flight ring.
void RecordRepartition(const std::string& label, size_t depth) {
  if (!Telemetry::counting()) return;
  static TelemetryCounter* repartitions_total =
      MetricRegistry::Global().FindOrCreateCounter(
          metric_names::kRepartitionsTotal);
  repartitions_total->Add(1);
  EventLog::Flight().Record("fallback", "repartition", label, depth + 1);
}

/// One level of CollectTaggedQuotients. The collector lives for one
/// attempt only, so a failed attempt's tables are released before its input
/// is split and spooled.
Status CollectLevel(ExecContext* ctx, Operator* tagged,
                    const std::vector<int64_t>& tags,
                    uint64_t expected_cardinality, size_t depth,
                    std::vector<Tuple>* out, size_t* repartitions) {
  const Schema& schema = tagged->output_schema();
  std::vector<size_t> quotient_cols(schema.num_fields() - 1);
  for (size_t i = 0; i < quotient_cols.size(); ++i) quotient_cols[i] = i;
  Status status;
  {
    // Step 1 of hash-division is skipped: the tags are seeded with dense
    // divisor numbers in the given order. The tag is the last column.
    HashDivisionCore collector(ctx, {quotient_cols.size()}, quotient_cols,
                               DivisionOptions{});
    std::vector<std::pair<Tuple, uint64_t>> numbered;
    numbered.reserve(tags.size());
    for (size_t i = 0; i < tags.size(); ++i) {
      numbered.emplace_back(Tuple{Value::Int64(tags[i])}, i);
    }
    RELDIV_RETURN_NOT_OK(
        collector.BuildDivisorTableFromNumbered(numbered, tags.size()));
    // Drain() closes `tagged` on every path, so a split below may reopen it.
    status = collector.DivideCluster(tagged, expected_cardinality, out);
    if (status.ok()) return status;
  }
  if (status.code() != StatusCode::kResourceExhausted ||
      depth >= kMaxRepartitionDepth) {
    return status;
  }
  ++*repartitions;
  RecordRepartition("collection", depth);
  RELDIV_ASSIGN_OR_RETURN(
      auto halves,
      SpillClusters(ctx, tagged, quotient_cols, 2, /*salt=*/depth + 1,
                    "collection-repart-d" + std::to_string(depth + 1) + "-" +
                        std::to_string(*repartitions)));
  for (auto& half : halves) {
    if (half->num_records() == 0) continue;
    ScanOperator scan(ctx, Relation{schema, half.get()});
    RELDIV_RETURN_NOT_OK(CollectLevel(ctx, &scan, tags, expected_cardinality,
                                      depth + 1, out, repartitions));
  }
  return Status::OK();
}

}  // namespace

Status CollectTaggedQuotients(ExecContext* ctx, Operator* tagged,
                              const std::vector<int64_t>& tags,
                              uint64_t expected_cardinality,
                              std::vector<Tuple>* out, size_t* repartitions) {
  return CollectLevel(ctx, tagged, tags, expected_cardinality, /*depth=*/0,
                      out, repartitions);
}

PartitionedHashDivisionOperator::PartitionedHashDivisionOperator(
    ExecContext* ctx, const ResolvedDivision& resolved,
    const DivisionOptions& options)
    : ctx_(ctx),
      resolved_(resolved),
      options_(options),
      schema_(resolved.quotient_schema) {}

PartitionedHashDivisionOperator::~PartitionedHashDivisionOperator() = default;

Status PartitionedHashDivisionOperator::DivideQuotientCluster(
    ExecContext* ctx, HashDivisionCore* core, RecordFile* cluster,
    uint64_t expected_cardinality, size_t depth, const std::string& label,
    bool allow_split, PhaseOutput* out) {
  ScanOperator scan(ctx, Relation{resolved_.dividend.schema, cluster});
  const Status status =
      core->DivideCluster(&scan, expected_cardinality, &out->quotient);
  if (status.ok()) {
    ++out->phases;
    return status;
  }
  if (!allow_split || status.code() != StatusCode::kResourceExhausted ||
      depth >= kMaxRepartitionDepth || cluster->num_records() <= 1) {
    return status;  // not recoverable by splitting (or splitting disallowed)
  }
  // The quotient table outgrew the budget mid-phase: split the cluster in
  // two with a depth-salted hash and divide each half in its own phase.
  // Splitting on the quotient attrs keeps every candidate's dividend
  // tuples together, so per-half quotients concatenate correctly.
  ++out->repartitions;
  RecordRepartition(label, depth);
  RELDIV_ASSIGN_OR_RETURN(
      auto halves,
      SpillClusters(ctx, &scan, resolved_.quotient_attrs, 2,
                    /*salt=*/depth + 1,
                    label + "-repart-d" + std::to_string(depth + 1) + "-" +
                        std::to_string(out->repartitions)));
  for (auto& half : halves) {
    if (half->num_records() == 0) continue;
    RELDIV_RETURN_NOT_OK(DivideQuotientCluster(
        ctx, core, half.get(), QuotientHint(*half, options_), depth + 1,
        label, allow_split, out));
  }
  return Status::OK();
}

Status PartitionedHashDivisionOperator::DivideDivisorCluster(
    ExecContext* ctx, RecordFile* divisor, RecordFile* dividend, size_t depth,
    const std::string& label, bool allow_split, PhaseOutput* out) {
  // An empty divisor cluster constrains nothing (its for-all condition is
  // vacuous): no phase, and no tag in the collection divisor.
  if (divisor->num_records() == 0) return Status::OK();
  const Relation divisor_rel{resolved_.divisor.schema, divisor};
  const size_t kept = out->quotient.size();
  Status status;
  {
    // A failed attempt's tables go before the clusters are split.
    HashDivisionCore core(ctx, resolved_.match_attrs,
                          resolved_.quotient_attrs, options_);
    ScanOperator divisor_scan(ctx, divisor_rel);
    status = core.BuildDivisorTable(&divisor_scan);
    if (status.ok()) {
      status = DivideQuotientCluster(ctx, &core, dividend,
                                     /*expected_cardinality=*/0, 0, label,
                                     allow_split, out);
    }
  }
  if (status.ok()) {
    out->tag_ends.push_back(out->quotient.size());
    return status;
  }
  if (!allow_split || status.code() != StatusCode::kResourceExhausted ||
      depth >= kMaxRepartitionDepth || divisor->num_records() <= 1) {
    return status;
  }
  // Split divisor and dividend cluster with the same depth-salted function
  // on the divisor attrs; a dividend half whose divisor half is empty
  // matches no divisor tuple.
  out->quotient.erase(out->quotient.begin() + kept, out->quotient.end());
  ++out->divisor_splits;
  RecordRepartition(label, depth);
  const std::string split_label =
      label + "-split-" + std::to_string(out->divisor_splits);
  ScanOperator divisor_scan(ctx, divisor_rel);
  RELDIV_ASSIGN_OR_RETURN(
      auto divisor_halves,
      SpillClusters(ctx, &divisor_scan, AllColumns(divisor_rel.schema), 2,
                    /*salt=*/depth + 1, split_label + "-s"));
  ScanOperator dividend_scan(ctx,
                             Relation{resolved_.dividend.schema, dividend});
  RELDIV_ASSIGN_OR_RETURN(
      auto dividend_halves,
      SpillClusters(ctx, &dividend_scan, resolved_.match_attrs, 2,
                    /*salt=*/depth + 1, split_label + "-r"));
  for (size_t h = 0; h < 2; ++h) {
    RELDIV_RETURN_NOT_OK(DivideDivisorCluster(
        ctx, divisor_halves[h].get(), dividend_halves[h].get(), depth + 1,
        label, allow_split, out));
  }
  return Status::OK();
}

Status PartitionedHashDivisionOperator::RunPhaseRegion(
    size_t num_phases, const PhaseBody& body,
    std::vector<PhaseOutput>* outputs) {
  outputs->assign(num_phases, PhaseOutput{});
  std::vector<char> deferred(num_phases, 0);
  RELDIV_RETURN_NOT_OK(RunFragments(
      ctx_, num_phases, [&](size_t i, ExecContext* fctx) -> Status {
        Status status = body(i, fctx, /*allow_split=*/false, &(*outputs)[i]);
        if (status.code() != StatusCode::kResourceExhausted) return status;
        // Concurrent phases share the memory budget, so this overflow may
        // be an artifact of the schedule. Discard the attempt completely —
        // counters, sub-page Move residue, partial output and gauges — and
        // defer the phase to the serial rerun below, which sees the whole
        // budget. A phase that fits alone then contributes its plain
        // counters at every worker count, and one that genuinely overflows
        // recovers (or fails) identically at every worker count.
        *fctx->counters() = CpuCounters{};
        fctx->ResetMoveAccumulator();
        (*outputs)[i] = PhaseOutput{};
        deferred[i] = 1;
        return Status::OK();
      }));
  // Deferred phases rerun one at a time on the parent context with the full
  // budget and overflow recovery enabled; a phase that STILL overflows
  // propagates ResourceExhausted (the quotient strategy then falls to the
  // divisor strategy).
  Status status;
  for (size_t i = 0; i < num_phases && status.ok(); ++i) {
    if (deferred[i]) {
      status = body(i, ctx_, /*allow_split=*/true, &(*outputs)[i]);
    }
  }
  for (const PhaseOutput& out : *outputs) {
    phases_run_ += out.phases;
    repartitions_ += out.repartitions;
    divisor_splits_ += out.divisor_splits;
  }
  return status;
}

Status PartitionedHashDivisionOperator::RunQuotientPartitioned() {
  ScanOperator dividend_input(ctx_, resolved_.dividend);
  RELDIV_ASSIGN_OR_RETURN(
      auto clusters,
      SpillClusters(ctx_, &dividend_input, resolved_.quotient_attrs,
                    options_.num_partitions, /*salt=*/0, "quotient-part"));

  // The divisor table is built once and kept in memory during all phases.
  // If IT overflows the budget, quotient partitioning cannot help (no
  // phase shrinks it) — the ResourceExhausted propagates to Open(), which
  // falls to the divisor strategy.
  HashDivisionCore core(ctx_, resolved_.match_attrs, resolved_.quotient_attrs,
                        options_);
  ScanOperator divisor_scan(ctx_, resolved_.divisor);
  RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor_scan));

  // One phase per cluster: each divides its cluster with a private core
  // borrowing the resident divisor table. The quotient of the whole
  // division is the concatenation of the per-phase quotients.
  std::vector<PhaseOutput> outputs;
  RELDIV_RETURN_NOT_OK(RunPhaseRegion(
      clusters.size(),
      [&](size_t c, ExecContext* ectx, bool allow_split, PhaseOutput* out) {
        HashDivisionCore cluster_core(ectx, resolved_.match_attrs,
                                      resolved_.quotient_attrs, options_);
        cluster_core.BorrowDivisorTable(core);
        return DivideQuotientCluster(
            ectx, &cluster_core, clusters[c].get(),
            QuotientHint(*clusters[c], options_), 0,
            "quotient-part-c" + std::to_string(c), allow_split, out);
      },
      &outputs));
  for (PhaseOutput& out : outputs) {
    for (Tuple& tuple : out.quotient) results_.push_back(std::move(tuple));
  }
  return Status::OK();
}

Status PartitionedHashDivisionOperator::RunDivisorPartitioned() {
  const size_t num_partitions = options_.num_partitions;
  // The same partitioning function must be applied to the divisor (on all
  // its columns) and the dividend (on the divisor attributes) so matching
  // tuples land in the same cluster.
  ScanOperator divisor_input(ctx_, resolved_.divisor);
  RELDIV_ASSIGN_OR_RETURN(
      auto divisor_clusters,
      SpillClusters(ctx_, &divisor_input,
                    AllColumns(resolved_.divisor.schema), num_partitions,
                    /*salt=*/0, "divisor-part-s"));
  ScanOperator dividend_input(ctx_, resolved_.dividend);
  RELDIV_ASSIGN_OR_RETURN(
      auto dividend_clusters,
      SpillClusters(ctx_, &dividend_input, resolved_.match_attrs,
                    num_partitions, /*salt=*/0, "divisor-part-r"));

  // One phase per non-empty divisor cluster: each builds that cluster's
  // divisor table and divides the matching dividend cluster. Phases share
  // nothing but the (thread-safe) storage layer.
  std::vector<PhaseOutput> outputs;
  RELDIV_RETURN_NOT_OK(RunPhaseRegion(
      num_partitions,
      [&](size_t p, ExecContext* ectx, bool allow_split, PhaseOutput* out) {
        return DivideDivisorCluster(
            ectx, divisor_clusters[p].get(), dividend_clusters[p].get(), 0,
            "divisor-part-p" + std::to_string(p), allow_split, out);
      },
      &outputs));

  // Tag each phase's quotient cluster and spool the union, in phase order,
  // to one temporary file whose schema is (quotient attrs..., phase) — so
  // its contents never depend on the worker count. An unsplit phase is
  // tagged with its partition number; the halves of a split phase take
  // fresh tags from num_partitions on, in phase order, then split order.
  std::vector<Field> tagged_fields = resolved_.quotient_schema.fields();
  tagged_fields.push_back(Field{"phase", ValueType::kInt64});
  RecordFile tagged_store(ctx_->disk(), ctx_->buffer_manager(),
                          "divisor-part-quotient-clusters");
  Relation tagged{Schema(std::move(tagged_fields)), &tagged_store};
  RowCodec tagged_codec(tagged.schema);
  std::string buffer;
  std::vector<int64_t> tags;
  int64_t next_tag = static_cast<int64_t>(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    PhaseOutput& out = outputs[p];
    size_t begin = 0;
    for (size_t end : out.tag_ends) {
      tags.push_back(out.tag_ends.size() == 1 ? static_cast<int64_t>(p)
                                              : next_tag++);
      for (; begin < end; ++begin) {
        Tuple& q = out.quotient[begin];
        q.Append(Value::Int64(tags.back()));
        buffer.clear();
        RELDIV_RETURN_NOT_OK(tagged_codec.Encode(q, &buffer));
        RELDIV_ASSIGN_OR_RETURN(Rid rid, tagged_store.Append(Slice(buffer)));
        (void)rid;
      }
    }
  }

  // Entire divisor empty: empty quotient by convention.
  if (tags.empty()) return Status::OK();
  // Collection phase: divide the tagged union over the phase tags.
  ScanOperator tagged_scan(ctx_, tagged);
  return CollectTaggedQuotients(ctx_, &tagged_scan, tags,
                                options_.expected_quotient_cardinality,
                                &results_, &repartitions_);
}

Status PartitionedHashDivisionOperator::Open() {
  results_.clear();
  emit_pos_ = 0;
  phases_run_ = 0;
  repartitions_ = 0;
  escalations_ = 0;
  divisor_splits_ = 0;
  RELDIV_RETURN_NOT_OK(ValidateDivisionOptions(
      DivisionAlgorithm::kHashDivisionPartitioned, options_));
  if (options_.partition_strategy == PartitionStrategy::kQuotient) {
    const Status status = RunQuotientPartitioned();
    if (status.code() != StatusCode::kResourceExhausted) return status;
    // The resident divisor table (or a cluster no quotient split shrinks)
    // outgrew the budget: fall to the divisor strategy, which splits it.
    ++escalations_;
    if (Telemetry::counting()) {
      EventLog::Flight().Record("fallback", "fall_to_divisor_partitioning",
                                "partitioned_hash_division");
    }
  }
  return RunDivisorPartitioned();
}

Status PartitionedHashDivisionOperator::NextBatch(TupleBatch* batch,
                                                  bool* has_more) {
  batch->Clear();
  while (!batch->full() && emit_pos_ < results_.size()) {
    batch->PushBack(std::move(results_[emit_pos_++]));
  }
  *has_more = emit_pos_ < results_.size();
  return Status::OK();
}

Status PartitionedHashDivisionOperator::Close() {
  results_.clear();
  return Status::OK();
}

}  // namespace reldiv
