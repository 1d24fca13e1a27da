#include "parallel/parallel_hash_division.h"

#include <chrono>

#include "common/check.h"
#include "common/row_codec.h"
#include "cost/cost_model.h"
#include "division/hash_division.h"
#include "division/partitioned_hash_division.h"
#include "exec/mem_source.h"
#include "exec/scheduler.h"
#include "parallel/bit_vector_filter.h"
#include "parallel/partitioner.h"

namespace reldiv {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Approximate wire size of a tuple batch under its schema.
Result<uint64_t> BatchBytes(const Schema& schema,
                            const std::vector<Tuple>& tuples) {
  RowCodec codec(schema);
  uint64_t bytes = 0;
  for (const Tuple& tuple : tuples) {
    RELDIV_ASSIGN_OR_RETURN(size_t size, codec.EncodedSize(tuple));
    bytes += size;
  }
  return bytes;
}

/// Runs one node's local hash-division over in-memory fragments, filling
/// `metrics` and (with `trace`) emitting one span on the node's lane.
Status LocalDivision(WorkerNode* node, const Schema& divisor_schema,
                     std::vector<Tuple> dividend, std::vector<Tuple> divisor,
                     const std::vector<size_t>& match_attrs,
                     const std::vector<size_t>& quotient_attrs,
                     const DivisionOptions& options,
                     std::vector<Tuple>* quotient,
                     NodeExecutionMetrics* metrics, EventLog* trace) {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t span_start_us = trace != nullptr ? NowMicros() : 0;
  metrics->node_id = node->node_id();
  metrics->dividend_tuples = dividend.size();
  const size_t quotient_before = quotient->size();
  const CpuCounters before = *node->counters();
  HashDivisionCore core(node->ctx(), match_attrs, quotient_attrs, options);
  MemSourceOperator divisor_source(divisor_schema, std::move(divisor));
  RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor_source));
  RELDIV_RETURN_NOT_OK(core.ResetQuotientTable());
  // The node's dividend stream is consumed a batch at a time; the fragment
  // is owned here, so tuples are moved into the batch rather than copied.
  TupleBatch batch(node->ctx()->batch_capacity());
  size_t pos = 0;
  do {
    batch.Clear();
    while (!batch.full() && pos < dividend.size()) {
      batch.PushBack(std::move(dividend[pos++]));
    }
    RELDIV_RETURN_NOT_OK(core.ConsumeBatch(batch, quotient));
  } while (pos < dividend.size());
  RELDIV_RETURN_NOT_OK(core.EmitComplete(quotient));
  metrics->local_ms = MsSince(start);
  metrics->quotient_tuples = quotient->size() - quotient_before;
  CpuCounters delta = *node->counters();
  delta -= before;
  metrics->cpu = delta;
  metrics->cpu_model_ms = CpuCostMs(delta);
  if (trace != nullptr) {
    trace->Complete("local-division", "parallel", span_start_us,
                    NowMicros() - span_start_us,
                    static_cast<uint32_t>(1 + node->node_id()),
                    {{"tuples_in", metrics->dividend_tuples},
                     {"quotient", metrics->quotient_tuples}});
  }
  return Status::OK();
}

}  // namespace

ParallelHashDivisionEngine::ParallelHashDivisionEngine(
    const ParallelDivisionOptions& options)
    : options_(options),
      interconnect_(options.num_nodes == 0 ? 1 : options.num_nodes) {
  const size_t n = options_.num_nodes == 0 ? 1 : options_.num_nodes;
  options_.num_nodes = n;
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<WorkerNode>(i,
                                                  options_.node_pool_bytes));
  }
}

ParallelHashDivisionEngine::~ParallelHashDivisionEngine() = default;

Result<ParallelDivisionResult> ParallelHashDivisionEngine::Execute(
    const Schema& dividend_schema, const Schema& divisor_schema,
    const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
    const std::vector<size_t>& match_attrs) {
  if (match_attrs.size() != divisor_schema.num_fields()) {
    return Status::InvalidArgument(
        "match attribute count must equal the divisor arity");
  }
  std::vector<size_t> quotient_attrs =
      dividend_schema.ComplementIndices(match_attrs);
  if (quotient_attrs.empty()) {
    return Status::InvalidArgument("division without quotient attributes");
  }

  interconnect_.set_trace(options_.trace);

  // Initial declustered placement of the base relations.
  auto dividend_frags = RoundRobinSplit(dividend, options_.num_nodes);
  auto divisor_frags = RoundRobinSplit(divisor, options_.num_nodes);

  if (options_.strategy == PartitionStrategy::kQuotient) {
    return RunQuotientPartitioned(dividend_schema, divisor_schema,
                                  dividend_frags, divisor_frags, match_attrs,
                                  quotient_attrs);
  }
  return RunDivisorPartitioned(dividend_schema, divisor_schema,
                               dividend_frags, divisor_frags, match_attrs,
                               quotient_attrs);
}

Result<ParallelDivisionResult>
ParallelHashDivisionEngine::RunQuotientPartitioned(
    const Schema& dividend_schema, const Schema& divisor_schema,
    const std::vector<std::vector<Tuple>>& dividend_frags,
    const std::vector<std::vector<Tuple>>& divisor_frags,
    const std::vector<size_t>& match_attrs,
    const std::vector<size_t>& quotient_attrs) {
  const size_t n = options_.num_nodes;
  ParallelDivisionResult result;
  const auto wall_start = std::chrono::steady_clock::now();

  // Replicate the divisor: every node's fragment is broadcast so that each
  // node holds the full divisor table.
  std::vector<Tuple> full_divisor;
  for (size_t i = 0; i < n; ++i) {
    RELDIV_ASSIGN_OR_RETURN(uint64_t bytes,
                            BatchBytes(divisor_schema, divisor_frags[i]));
    RELDIV_RETURN_NOT_OK(interconnect_.Broadcast(i, bytes));
    full_divisor.insert(full_divisor.end(), divisor_frags[i].begin(),
                        divisor_frags[i].end());
  }

  // Optional bit-vector filter over the divisor's match-key hashes.
  std::unique_ptr<BitVectorFilter> filter;
  std::vector<size_t> divisor_all(divisor_schema.num_fields());
  for (size_t i = 0; i < divisor_all.size(); ++i) divisor_all[i] = i;
  if (options_.use_bit_vector_filter) {
    filter = std::make_unique<BitVectorFilter>(options_.bit_vector_bits);
    for (const Tuple& tuple : full_divisor) {
      filter->InsertHash(tuple.HashAt(divisor_all));
    }
  }

  // Redistribute the dividend on the quotient attributes.
  RowCodec dividend_codec(dividend_schema);
  std::vector<std::vector<Tuple>> incoming(n);
  for (size_t from = 0; from < n; ++from) {
    for (const Tuple& tuple : dividend_frags[from]) {
      if (filter != nullptr &&
          !filter->MayContain(tuple.HashAt(match_attrs))) {
        result.tuples_filtered++;
        continue;
      }
      const size_t to = HashPartitionOf(tuple, quotient_attrs, n);
      RELDIV_ASSIGN_OR_RETURN(size_t bytes, dividend_codec.EncodedSize(tuple));
      RELDIV_RETURN_NOT_OK(interconnect_.Ship(from, to, bytes));
      if (to != from) result.tuples_shipped++;
      incoming[to].push_back(tuple);
    }
  }

  // All local hash-division operators work completely independently.
  std::vector<std::vector<Tuple>> local_quotients(n);
  std::vector<NodeExecutionMetrics> node_metrics(n);
  std::vector<Status> local_status(n);
  // One scheduler morsel per node. Node failures land in local_status and
  // are reported in node order below, so error precedence never depends on
  // which lane ran which node.
  RELDIV_RETURN_NOT_OK(
      TaskScheduler::Global().ParallelFor(n, n, [&](size_t i) -> Status {
        local_status[i] = LocalDivision(
            nodes_[i].get(), divisor_schema, std::move(incoming[i]),
            full_divisor, match_attrs, quotient_attrs, options_.division,
            &local_quotients[i], &node_metrics[i], options_.trace);
        return Status::OK();
      }));
  // Quotient partitioning (§6): the clusters are disjoint by construction,
  // so the quotient of the whole division is their plain concatenation.
  // Executable form: every local quotient tuple must hash back to the node
  // that produced it under the redistribution function (the projected
  // quotient columns hash identically to the dividend's quotient columns).
  std::vector<size_t> projected_attrs(quotient_attrs.size());
  for (size_t i = 0; i < projected_attrs.size(); ++i) projected_attrs[i] = i;
  for (size_t i = 0; i < n; ++i) {
    RELDIV_RETURN_NOT_OK(local_status[i]);
    for ([[maybe_unused]] const Tuple& q : local_quotients[i]) {
      RELDIV_DCHECK_EQ(HashPartitionOf(q, projected_attrs, n), i)
          << "quotient tuple emitted by a node outside its hash cluster";
    }
    result.quotient.insert(result.quotient.end(), local_quotients[i].begin(),
                           local_quotients[i].end());
    result.max_node_ms = std::max(result.max_node_ms,
                                  node_metrics[i].local_ms);
    result.max_node_cpu_ms = std::max(result.max_node_cpu_ms,
                                      node_metrics[i].cpu_model_ms);
  }
  result.node_metrics = std::move(node_metrics);
  result.wall_ms = MsSince(wall_start);
  result.network_messages = interconnect_.messages();
  result.network_bytes = interconnect_.bytes();
  return result;
}

Result<ParallelDivisionResult>
ParallelHashDivisionEngine::RunDivisorPartitioned(
    const Schema& dividend_schema, const Schema& divisor_schema,
    const std::vector<std::vector<Tuple>>& dividend_frags,
    const std::vector<std::vector<Tuple>>& divisor_frags,
    const std::vector<size_t>& match_attrs,
    const std::vector<size_t>& quotient_attrs) {
  const size_t n = options_.num_nodes;
  ParallelDivisionResult result;
  const auto wall_start = std::chrono::steady_clock::now();

  std::vector<size_t> divisor_all(divisor_schema.num_fields());
  for (size_t i = 0; i < divisor_all.size(); ++i) divisor_all[i] = i;

  // Redistribute the divisor on all its attributes.
  RowCodec divisor_codec(divisor_schema);
  std::vector<std::vector<Tuple>> divisor_in(n);
  for (size_t from = 0; from < n; ++from) {
    for (const Tuple& tuple : divisor_frags[from]) {
      const size_t to = HashPartitionOf(tuple, divisor_all, n);
      RELDIV_ASSIGN_OR_RETURN(size_t bytes, divisor_codec.EncodedSize(tuple));
      RELDIV_RETURN_NOT_OK(interconnect_.Ship(from, to, bytes));
      divisor_in[to].push_back(tuple);
    }
  }

  // Optional bit-vector filtering: each node builds a filter from its
  // divisor cluster; the union is shipped to every node and applied before
  // dividend redistribution.
  std::unique_ptr<BitVectorFilter> filter;
  if (options_.use_bit_vector_filter) {
    filter = std::make_unique<BitVectorFilter>(options_.bit_vector_bits);
    for (size_t i = 0; i < n; ++i) {
      BitVectorFilter local(options_.bit_vector_bits);
      for (const Tuple& tuple : divisor_in[i]) {
        local.InsertHash(tuple.HashAt(divisor_all));
      }
      RELDIV_RETURN_NOT_OK(interconnect_.Broadcast(i, local.byte_size()));
      filter->UnionWith(local);
    }
  }

  // Redistribute the dividend with the same function on the divisor attrs.
  RowCodec dividend_codec(dividend_schema);
  std::vector<std::vector<Tuple>> dividend_in(n);
  for (size_t from = 0; from < n; ++from) {
    for (const Tuple& tuple : dividend_frags[from]) {
      if (filter != nullptr &&
          !filter->MayContain(tuple.HashAt(match_attrs))) {
        result.tuples_filtered++;
        continue;
      }
      const size_t to = HashPartitionOf(tuple, match_attrs, n);
      RELDIV_ASSIGN_OR_RETURN(size_t bytes, dividend_codec.EncodedSize(tuple));
      RELDIV_RETURN_NOT_OK(interconnect_.Ship(from, to, bytes));
      if (to != from) result.tuples_shipped++;
      dividend_in[to].push_back(tuple);
    }
  }

  // Parallel phase: each node with a non-empty divisor cluster divides.
  std::vector<std::vector<Tuple>> local_quotients(n);
  std::vector<NodeExecutionMetrics> node_metrics(n);
  std::vector<Status> local_status(n);
  std::vector<size_t> participating;
  for (size_t i = 0; i < n; ++i) {
    if (!divisor_in[i].empty()) participating.push_back(i);
  }
  // One scheduler morsel per participating node; statuses surface in node
  // order during collection below.
  RELDIV_RETURN_NOT_OK(TaskScheduler::Global().ParallelFor(
      participating.size(), participating.size(), [&](size_t k) -> Status {
        const size_t i = participating[k];
        local_status[i] = LocalDivision(
            nodes_[i].get(), divisor_schema, std::move(dividend_in[i]),
            std::move(divisor_in[i]), match_attrs, quotient_attrs,
            options_.division, &local_quotients[i], &node_metrics[i],
            options_.trace);
        return Status::OK();
      }));

  if (participating.empty()) {
    // Entire divisor empty: empty quotient by convention.
    result.wall_ms = MsSince(wall_start);
    result.network_messages = interconnect_.messages();
    result.network_bytes = interconnect_.bytes();
    return result;
  }

  // Collection: quotient clusters arrive tagged with their processor
  // network address; divide them over the set of addresses. Either one
  // central site (node 0) or — decentralized — every node collects the
  // quotient values that hash to it.
  Schema quotient_schema = dividend_schema.Project(quotient_attrs);
  RowCodec quotient_codec(quotient_schema);
  std::vector<size_t> collect_quotient_attrs(quotient_attrs.size());
  for (size_t i = 0; i < collect_quotient_attrs.size(); ++i) {
    collect_quotient_attrs[i] = i;
  }
  const size_t collector_count = options_.decentralized_collection ? n : 1;
  std::vector<std::vector<Tuple>> tagged(collector_count);
  std::vector<int64_t> tags;
  for (size_t i : participating) {
    RELDIV_RETURN_NOT_OK(local_status[i]);
    result.max_node_ms = std::max(result.max_node_ms,
                                  node_metrics[i].local_ms);
    result.max_node_cpu_ms = std::max(result.max_node_cpu_ms,
                                      node_metrics[i].cpu_model_ms);
    result.node_metrics.push_back(node_metrics[i]);
    tags.push_back(static_cast<int64_t>(i));
    for (Tuple& q : local_quotients[i]) {
      const size_t collector =
          options_.decentralized_collection
              ? HashPartitionOf(q, collect_quotient_attrs, n)
              : 0;
      RELDIV_ASSIGN_OR_RETURN(size_t bytes, quotient_codec.EncodedSize(q));
      RELDIV_RETURN_NOT_OK(
          interconnect_.Ship(i, collector, bytes + sizeof(int64_t)));
      q.Append(Value::Int64(static_cast<int64_t>(i)));
      tagged[collector].push_back(std::move(q));
    }
  }
  std::vector<Field> tagged_fields = quotient_schema.fields();
  tagged_fields.push_back(Field{"node", ValueType::kInt64});
  const Schema tagged_schema(std::move(tagged_fields));
  for (size_t c = 0; c < collector_count; ++c) {
    MemSourceOperator source(tagged_schema, std::move(tagged[c]));
    size_t splits = 0;
    RELDIV_RETURN_NOT_OK(CollectTaggedQuotients(
        nodes_[c]->ctx(), &source, tags, /*expected_cardinality=*/0,
        &result.quotient, &splits));
  }

  result.wall_ms = MsSince(wall_start);
  result.network_messages = interconnect_.messages();
  result.network_bytes = interconnect_.bytes();
  return result;
}

}  // namespace reldiv
