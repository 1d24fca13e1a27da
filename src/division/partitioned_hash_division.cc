#include "division/partitioned_hash_division.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"
#include "common/metric_names.h"
#include "common/row_codec.h"
#include "division/hash_division.h"
#include "exec/exchange.h"
#include "exec/mem_source.h"
#include "exec/scan.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"
#include "storage/record_file.h"

namespace reldiv {

namespace {

/// Ceiling on the recursive cluster-split depth (quotient strategy). Each
/// level halves a cluster in expectation, so 16 levels shrink any practical
/// cluster to single tuples; a cluster that still overflows then is a
/// single entry larger than the budget, which no partitioning can fix.
constexpr size_t kMaxRepartitionDepth = 16;

/// Restart-with-doubled-partitions attempts (divisor/combined strategies)
/// before the ResourceExhausted is accepted as final.
constexpr size_t kMaxRestarts = 6;

/// Maps a tuple to its cluster: a hash of the key columns modulo the
/// partition count, which with salt 0 is HashPartitionOf. A non-zero salt
/// (the recursion depth) perturbs the hash: a recursive re-split of an
/// overflowing cluster must not reproduce the parent partitioning, or every
/// tuple would land in the same half again.
struct ClusterAssigner {
  std::vector<size_t> attrs;
  size_t num_partitions = 1;
  uint64_t salt = 0;

  size_t operator()(ExecContext* ctx, const Tuple& tuple) const {
    ctx->CountHashes(1);
    if (salt == 0) return HashPartitionOf(tuple, attrs, num_partitions);
    return HashCombine(tuple.HashAt(attrs), salt) % num_partitions;
  }
};

/// Drains `input` into temporary record files under `assigner`.
Result<std::vector<std::unique_ptr<RecordFile>>> PartitionStream(
    ExecContext* ctx, Operator* input, const ClusterAssigner& assigner,
    const std::string& label) {
  std::vector<std::unique_ptr<RecordFile>> clusters;
  clusters.reserve(assigner.num_partitions);
  for (size_t i = 0; i < assigner.num_partitions; ++i) {
    clusters.push_back(std::make_unique<RecordFile>(
        ctx->disk(), ctx->buffer_manager(),
        label + "-cluster-" + std::to_string(i)));
  }
  RowCodec codec(input->output_schema());
  RELDIV_RETURN_NOT_OK(input->Open());
  std::string buffer;
  TupleBatch batch(ctx->batch_capacity());
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(input->NextBatch(&batch, &has_more));
    for (const Tuple& tuple : batch) {
      const size_t p = assigner(ctx, tuple);
      // §3.4: the partitioning function must map every tuple into one of
      // the declared clusters, or the overflow pass would drop tuples.
      RELDIV_DCHECK_LT(p, assigner.num_partitions)
          << "cluster assigner produced an out-of-range partition";
      buffer.clear();
      RELDIV_RETURN_NOT_OK(codec.Encode(tuple, &buffer));
      RELDIV_ASSIGN_OR_RETURN(Rid rid, clusters[p]->Append(Slice(buffer)));
      (void)rid;
    }
  }
  RELDIV_RETURN_NOT_OK(input->Close());
  return clusters;
}

/// Partitions the stored relation `input` into temporary record files.
Result<std::vector<std::unique_ptr<RecordFile>>> PartitionRelation(
    ExecContext* ctx, const Relation& input, const ClusterAssigner& assigner,
    const std::string& label) {
  ScanOperator scan(ctx, input);
  return PartitionStream(ctx, &scan, assigner, label);
}

/// Feeds every tuple of `input` through `core` (step 2), one batch of
/// ExecContext::batch_capacity() tuples at a time. `input` is closed on
/// success and on error, so a caller may open it again.
Status ConsumeAll(ExecContext* ctx, HashDivisionCore* core, Operator* input) {
  RELDIV_RETURN_NOT_OK(input->Open());
  TupleBatch batch(ctx->batch_capacity());
  bool has_more = true;
  Status status;
  while (has_more && status.ok()) {
    status = input->NextBatch(&batch, &has_more);
    if (status.ok()) status = core->ConsumeBatch(batch, nullptr);
  }
  const Status close = input->Close();
  return status.ok() ? close : status;
}

Status ConsumeScan(ExecContext* ctx, HashDivisionCore* core,
                   const Relation& input) {
  ScanOperator scan(ctx, input);
  return ConsumeAll(ctx, core, &scan);
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
    status = collector.ResetQuotientTable(expected_cardinality);
    if (status.ok()) status = ConsumeAll(ctx, &collector, tagged);
    if (status.ok()) return collector.EmitComplete(out);
  }
  if (status.code() != StatusCode::kResourceExhausted ||
      depth >= kMaxRepartitionDepth) {
    return status;
  }
  ++*repartitions;
  RecordRepartition("collection", depth);
  RELDIV_ASSIGN_OR_RETURN(
      auto halves,
      PartitionStream(ctx, tagged,
                      ClusterAssigner{std::move(quotient_cols), 2,
                                      /*salt=*/depth + 1},
                      "collection-repart-d" + std::to_string(depth + 1) +
                          "-" + std::to_string(*repartitions)));
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
    size_t depth, const std::string& label, bool allow_repartition,
    PhaseOutput* out) {
  Relation rel{resolved_.dividend.schema, cluster};
  // The cluster's record count bounds its quotient candidates, and the
  // planner hint (when present) bounds the total; the smaller wins.
  uint64_t hint = cluster->num_records();
  if (options_.expected_quotient_cardinality != 0) {
    hint = std::min<uint64_t>(hint, options_.expected_quotient_cardinality);
  }
  Status status = core->ResetQuotientTable(hint == 0 ? 1 : hint);
  if (status.ok()) status = ConsumeScan(ctx, core, rel);
  if (status.ok()) {
    RELDIV_RETURN_NOT_OK(core->EmitComplete(&out->quotient));
    ++out->phases;
    return Status::OK();
  }
  if (!allow_repartition || status.code() != StatusCode::kResourceExhausted ||
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
      PartitionRelation(
          ctx, rel,
          ClusterAssigner{resolved_.quotient_attrs, 2, /*salt=*/depth + 1},
          label + "-repart-d" + std::to_string(depth + 1) + "-" +
              std::to_string(out->repartitions)));
  for (auto& half : halves) {
    if (half->num_records() == 0) continue;
    RELDIV_RETURN_NOT_OK(DivideQuotientCluster(ctx, core, half.get(),
                                               depth + 1, label,
                                               allow_repartition, out));
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
        Status status =
            body(i, fctx, /*allow_repartition=*/false, &(*outputs)[i]);
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
  // propagates ResourceExhausted so Open() can escalate or restart.
  Status status;
  for (size_t i = 0; i < num_phases && status.ok(); ++i) {
    if (deferred[i]) {
      status = body(i, ctx_, /*allow_repartition=*/true, &(*outputs)[i]);
    }
  }
  for (const PhaseOutput& out : *outputs) {
    phases_run_ += out.phases;
    repartitions_ += out.repartitions;
  }
  return status;
}

Status PartitionedHashDivisionOperator::RunQuotientPartitioned() {
  const size_t num_partitions =
      options_.num_partitions == 0 ? 1 : options_.num_partitions;
  RELDIV_ASSIGN_OR_RETURN(
      auto clusters,
      PartitionRelation(ctx_, resolved_.dividend,
                        ClusterAssigner{resolved_.quotient_attrs,
                                        num_partitions},
                        "quotient-part"));

  // The divisor table is built once and kept in memory during all phases.
  // If IT overflows the budget, quotient partitioning cannot help (no
  // phase shrinks it) — the ResourceExhausted propagates to Open(), which
  // escalates to the combined strategy.
  DivisionOptions core_options = options_;
  core_options.early_output = false;
  HashDivisionCore core(ctx_, resolved_.match_attrs, resolved_.quotient_attrs,
                        core_options);
  ScanOperator divisor_scan(ctx_, resolved_.divisor);
  RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor_scan));

  // One phase per cluster: each divides its cluster with a private core
  // borrowing the resident divisor table. The quotient of the whole
  // division is the concatenation of the per-phase quotients.
  std::vector<PhaseOutput> outputs;
  RELDIV_RETURN_NOT_OK(RunPhaseRegion(
      clusters.size(),
      [&](size_t c, ExecContext* ectx, bool allow_repartition,
          PhaseOutput* out) {
        HashDivisionCore cluster_core(ectx, resolved_.match_attrs,
                                      resolved_.quotient_attrs, core_options);
        cluster_core.BorrowDivisorTable(core);
        return DivideQuotientCluster(
            ectx, &cluster_core, clusters[c].get(), 0,
            "quotient-part-c" + std::to_string(c), allow_repartition, out);
      },
      &outputs));
  for (PhaseOutput& out : outputs) {
    for (Tuple& tuple : out.quotient) results_.push_back(std::move(tuple));
  }
  return Status::OK();
}

Status PartitionedHashDivisionOperator::RunDivisorPartitioned(
    PartitionStrategy strategy, size_t num_partitions) {
  const bool combined = strategy == PartitionStrategy::kCombined;
  const std::string label = combined ? "combined" : "divisor-part";
  // The same partitioning function must be applied to the divisor (on all
  // its columns) and the dividend (on the divisor attributes) so matching
  // tuples land in the same cluster.
  std::vector<size_t> divisor_all(resolved_.divisor.schema.num_fields());
  for (size_t i = 0; i < divisor_all.size(); ++i) divisor_all[i] = i;
  RELDIV_ASSIGN_OR_RETURN(
      auto divisor_clusters,
      PartitionRelation(ctx_, resolved_.divisor,
                        ClusterAssigner{std::move(divisor_all),
                                        num_partitions},
                        label + "-s"));
  RELDIV_ASSIGN_OR_RETURN(
      auto dividend_clusters,
      PartitionRelation(ctx_, resolved_.dividend,
                        ClusterAssigner{resolved_.match_attrs,
                                        num_partitions},
                        label + "-r"));

  // Phases whose divisor cluster is empty constrain nothing (their for-all
  // condition is vacuous) and must not appear in the collection divisor.
  std::vector<int64_t> participating;
  for (size_t p = 0; p < num_partitions; ++p) {
    if (divisor_clusters[p]->num_records() != 0) {
      participating.push_back(static_cast<int64_t>(p));
    }
  }

  // One phase per participating divisor cluster: each builds that
  // cluster's divisor table and divides the matching dividend cluster.
  // Phases share nothing but the (thread-safe) storage layer.
  DivisionOptions phase_options = options_;
  phase_options.early_output = false;
  const size_t quotient_parts = options_.num_quotient_subpartitions == 0
                                    ? num_partitions
                                    : options_.num_quotient_subpartitions;
  std::vector<PhaseOutput> outputs;
  RELDIV_RETURN_NOT_OK(RunPhaseRegion(
      participating.size(),
      [&](size_t i, ExecContext* ectx, bool allow_repartition,
          PhaseOutput* out) -> Status {
        const size_t p = static_cast<size_t>(participating[i]);
        HashDivisionCore core(ectx, resolved_.match_attrs,
                              resolved_.quotient_attrs, phase_options);
        Relation divisor_rel{resolved_.divisor.schema,
                             divisor_clusters[p].get()};
        ScanOperator divisor_scan(ectx, divisor_rel);
        RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor_scan));
        Relation dividend_rel{resolved_.dividend.schema,
                              dividend_clusters[p].get()};
        if (!combined) {
          RELDIV_RETURN_NOT_OK(core.ResetQuotientTable());
          RELDIV_RETURN_NOT_OK(ConsumeScan(ectx, &core, dividend_rel));
          RELDIV_RETURN_NOT_OK(core.EmitComplete(&out->quotient));
          ++out->phases;
          return Status::OK();
        }
        // §3.4's closing question — neither table fits: the divisor
        // clusters shrink the divisor table and the bit maps, and
        // quotient sub-partitioning of the cluster's dividend shrinks the
        // quotient table; an inner overflow splits just that sub-cluster.
        const std::string sub_label = "combined-r" + std::to_string(p);
        RELDIV_ASSIGN_OR_RETURN(
            auto sub_clusters,
            PartitionRelation(
                ectx, dividend_rel,
                ClusterAssigner{resolved_.quotient_attrs, quotient_parts},
                sub_label));
        for (auto& sub : sub_clusters) {
          RELDIV_RETURN_NOT_OK(DivideQuotientCluster(
              ectx, &core, sub.get(), 0, sub_label, allow_repartition, out));
        }
        return Status::OK();
      },
      &outputs));

  // Tag each phase's quotient cluster with its phase number and spool the
  // union, in phase order, to one temporary file whose schema is (quotient
  // attrs..., phase) — so its contents never depend on the worker count.
  std::vector<Field> tagged_fields = resolved_.quotient_schema.fields();
  tagged_fields.push_back(Field{"phase", ValueType::kInt64});
  RecordFile tagged_store(ctx_->disk(), ctx_->buffer_manager(),
                          label + "-quotient-clusters");
  Relation tagged{Schema(std::move(tagged_fields)), &tagged_store};
  RowCodec tagged_codec(tagged.schema);
  std::string buffer;
  for (size_t i = 0; i < outputs.size(); ++i) {
    for (Tuple& q : outputs[i].quotient) {
      q.Append(Value::Int64(participating[i]));
      buffer.clear();
      RELDIV_RETURN_NOT_OK(tagged_codec.Encode(q, &buffer));
      RELDIV_ASSIGN_OR_RETURN(Rid rid, tagged_store.Append(Slice(buffer)));
      (void)rid;
    }
  }
  // Entire divisor empty: empty quotient by convention.
  if (participating.empty()) return Status::OK();

  // Collection phase: divide the tagged union over the participating
  // phase numbers.
  ScanOperator tagged_scan(ctx_, tagged);
  return CollectTaggedQuotients(
      ctx_, &tagged_scan, participating,
      combined ? 0 : options_.expected_quotient_cardinality, &results_,
      &repartitions_);
}

Status PartitionedHashDivisionOperator::Open() {
  results_.clear();
  emit_pos_ = 0;
  phases_run_ = 0;
  repartitions_ = 0;
  escalations_ = 0;
  restarts_ = 0;

  PartitionStrategy strategy = options_.partition_strategy;
  size_t parts = options_.num_partitions == 0 ? 1 : options_.num_partitions;
  if (strategy == PartitionStrategy::kQuotient) {
    Status status = RunQuotientPartitioned();
    if (status.code() != StatusCode::kResourceExhausted) return status;
    // The resident divisor table (or an unsplittable cluster) outgrew the
    // budget; quotient partitioning alone cannot recover, so escalate to
    // the combined strategy, which also shrinks the divisor table.
    escalations_++;
    if (Telemetry::counting()) {
      EventLog::Flight().Record("fallback", "escalate_to_combined",
                                "partitioned_hash_division");
    }
    strategy = PartitionStrategy::kCombined;
  } else if (strategy != PartitionStrategy::kDivisor &&
             strategy != PartitionStrategy::kCombined) {
    return Status::NotSupported("unknown partition strategy");
  }

  Status status;
  for (size_t attempt = 0;; ++attempt) {
    results_.clear();
    phases_run_ = 0;
    status = RunDivisorPartitioned(strategy, parts);
    if (status.code() != StatusCode::kResourceExhausted) return status;
    if (attempt >= kMaxRestarts) return status;
    // A cluster outgrew the budget at this partition count: restart with
    // twice the partitions, which halves every cluster in expectation.
    restarts_++;
    if (Telemetry::counting()) {
      EventLog::Flight().Record("fallback", "restart_doubled_partitions",
                                "partitioned_hash_division", parts * 2);
    }
    parts *= 2;
  }
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
