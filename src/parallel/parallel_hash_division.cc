#include "parallel/parallel_hash_division.h"

#include <chrono>

#include "common/check.h"
#include "common/row_codec.h"
#include "cost/cost_model.h"
#include "division/hash_division.h"
#include "division/partitioned_hash_division.h"
#include "exec/exchange.h"
#include "exec/scheduler.h"
#include "parallel/bit_vector_filter.h"

namespace reldiv {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Hands `tuple` from node `from` to node `to`: appends its encoding to the
/// receiver's partition and ships exactly those bytes (a local hand-off is
/// free, Interconnect::Ship).
Status Route(Interconnect* net, size_t from, size_t to, const RowCodec& codec,
             const Tuple& tuple, EncodedPartition* partition) {
  const size_t before = partition->byte_size();
  RELDIV_RETURN_NOT_OK(partition->Append(codec, tuple));
  return net->Ship(from, to, partition->byte_size() - before);
}

/// Runs one node's local hash-division: the divisor table is built from the
/// node's divisor rows, and its dividend partition is divided as one
/// cluster (HashDivisionCore::DivideCluster). Fills `metrics` and (with
/// `trace`) emits one span on the node's lane.
Status LocalDivision(WorkerNode* node, const RowCodec& divisor_codec,
                     const EncodedPartition& divisor,
                     const RowCodec& dividend_codec,
                     const EncodedPartition& dividend,
                     const std::vector<size_t>& match_attrs,
                     const std::vector<size_t>& quotient_attrs,
                     const DivisionOptions& options,
                     std::vector<Tuple>* quotient,
                     NodeExecutionMetrics* metrics, EventLog* trace) {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t span_start_us = trace != nullptr ? NowMicros() : 0;
  metrics->node_id = node->node_id();
  metrics->dividend_tuples = dividend.rows();
  const size_t quotient_before = quotient->size();
  const CpuCounters before = *node->counters();
  HashDivisionCore core(node->ctx(), match_attrs, quotient_attrs, options);
  PartitionSourceOperator divisor_source(&divisor_codec, &divisor);
  RELDIV_RETURN_NOT_OK(core.BuildDivisorTable(&divisor_source));
  PartitionSourceOperator dividend_source(&dividend_codec, &dividend);
  RELDIV_RETURN_NOT_OK(core.DivideCluster(
      &dividend_source, /*expected_cardinality=*/0, quotient));
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

/// 0, 1, ..., n - 1: every column of an n-column schema.
std::vector<size_t> AllColumns(size_t n) {
  std::vector<size_t> columns(n);
  for (size_t i = 0; i < n; ++i) columns[i] = i;
  return columns;
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
    nodes_.push_back(std::make_unique<WorkerNode>(i));
  }
}

ParallelHashDivisionEngine::~ParallelHashDivisionEngine() = default;

Result<ParallelDivisionResult> ParallelHashDivisionEngine::Execute(
    const Schema& dividend_schema, const Schema& divisor_schema,
    const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
    const std::vector<size_t>& match_attrs) {
  // Each node runs one serial hash-division core, which has no fragments
  // to give that option meaning.
  if (options_.division.parallel_fragments > 0) {
    return Status::InvalidArgument(
        "parallel hash-division: parallel_fragments does not apply to the "
        "nodes' local divisions");
  }
  RELDIV_RETURN_NOT_OK(ValidateDivisionOptions(DivisionAlgorithm::kHashDivision,
                                               options_.division));
  if (match_attrs.size() != divisor_schema.num_fields()) {
    return Status::InvalidArgument(
        "match attribute count must equal the divisor arity");
  }
  std::vector<size_t> quotient_attrs =
      dividend_schema.ComplementIndices(match_attrs);
  if (quotient_attrs.empty()) {
    return Status::InvalidArgument("division without quotient attributes");
  }

  interconnect_.Reset();
  interconnect_.set_trace(options_.trace);
  const size_t n = options_.num_nodes;
  const bool by_quotient = options_.strategy == PartitionStrategy::kQuotient;
  ParallelDivisionResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  // The base relations start round-robin declustered, as in GAMMA: tuple i
  // lives on node i mod n, so node `from` sends the stride from its id.
  //
  // Divisor placement. Quotient partitioning replicates the divisor: every
  // node broadcasts its fragment, and all nodes build from the one
  // partition holding the fragments in node order. Divisor partitioning
  // redistributes it on all its attributes. Babb's bit-vector filter (§6)
  // covers every divisor tuple either way; under divisor partitioning each
  // node builds one over its cluster and broadcasts it, and their union,
  // which every sender applies, is this filter over the whole divisor.
  const std::vector<size_t> divisor_all =
      AllColumns(divisor_schema.num_fields());
  const RowCodec divisor_codec(divisor_schema);
  std::vector<EncodedPartition> divisor_in =
      MakeEncodedPartitions(divisor_codec, by_quotient ? 1 : n);
  std::unique_ptr<BitVectorFilter> filter;
  if (options_.use_bit_vector_filter) {
    filter = std::make_unique<BitVectorFilter>(options_.bit_vector_bits);
  }
  for (size_t from = 0; from < n; ++from) {
    const size_t fragment_begin = divisor_in[0].byte_size();
    for (size_t i = from; i < divisor.size(); i += n) {
      if (filter != nullptr) filter->InsertHash(divisor[i].HashAt(divisor_all));
      if (by_quotient) {
        RELDIV_RETURN_NOT_OK(divisor_in[0].Append(divisor_codec, divisor[i]));
        continue;
      }
      const size_t to = HashPartitionOf(divisor[i], divisor_all, n);
      RELDIV_RETURN_NOT_OK(Route(&interconnect_, from, to, divisor_codec,
                                 divisor[i], &divisor_in[to]));
    }
    if (by_quotient) {
      RELDIV_RETURN_NOT_OK(interconnect_.Broadcast(
          from, divisor_in[0].byte_size() - fragment_begin));
    }
  }
  if (filter != nullptr && !by_quotient) {
    for (size_t i = 0; i < n; ++i) {
      RELDIV_RETURN_NOT_OK(interconnect_.Broadcast(i, filter->byte_size()));
    }
  }

  // Redistribute the dividend: on the quotient attributes, or with the
  // divisor's function on the divisor attributes.
  const std::vector<size_t>& key_attrs =
      by_quotient ? quotient_attrs : match_attrs;
  const RowCodec dividend_codec(dividend_schema);
  std::vector<EncodedPartition> dividend_in =
      MakeEncodedPartitions(dividend_codec, n);
  for (size_t from = 0; from < n; ++from) {
    for (size_t i = from; i < dividend.size(); i += n) {
      const Tuple& tuple = dividend[i];
      if (filter != nullptr &&
          !filter->MayContain(tuple.HashAt(match_attrs))) {
        result.tuples_filtered++;
        continue;
      }
      const size_t to = HashPartitionOf(tuple, key_attrs, n);
      RELDIV_RETURN_NOT_OK(Route(&interconnect_, from, to, dividend_codec,
                                 tuple, &dividend_in[to]));
      if (to != from) result.tuples_shipped++;
    }
  }

  // The local hash-division operators work completely independently: all
  // nodes under quotient partitioning, the nodes holding a divisor cluster
  // under divisor partitioning (an empty cluster constrains nothing). One
  // scheduler morsel per node; failures land in local_status and are
  // reported in node order below, so error precedence never depends on
  // which lane ran which node.
  std::vector<size_t> participating;
  for (size_t i = 0; i < n; ++i) {
    if (by_quotient || divisor_in[i].rows() > 0) participating.push_back(i);
  }
  std::vector<std::vector<Tuple>> local_quotients(n);
  std::vector<NodeExecutionMetrics> node_metrics(n);
  std::vector<Status> local_status(n);
  RELDIV_RETURN_NOT_OK(TaskScheduler::Global().ParallelFor(
      participating.size(), participating.size(), [&](size_t k) -> Status {
        const size_t i = participating[k];
        local_status[i] = LocalDivision(
            nodes_[i].get(), divisor_codec, divisor_in[by_quotient ? 0 : i],
            dividend_codec, dividend_in[i], match_attrs, quotient_attrs,
            options_.division, &local_quotients[i], &node_metrics[i],
            options_.trace);
        return Status::OK();
      }));
  for (size_t i : participating) {
    RELDIV_RETURN_NOT_OK(local_status[i]);
    result.max_node_ms = std::max(result.max_node_ms,
                                  node_metrics[i].local_ms);
    result.max_node_cpu_ms = std::max(result.max_node_cpu_ms,
                                      node_metrics[i].cpu_model_ms);
    result.node_metrics.push_back(node_metrics[i]);
  }

  const std::vector<size_t> projected_attrs =
      AllColumns(quotient_attrs.size());
  if (by_quotient) {
    // Quotient partitioning (§6): the clusters are disjoint by
    // construction, so the quotient of the whole division is their plain
    // concatenation. Executable form: every local quotient tuple must hash
    // back to the node that produced it (the projected quotient columns
    // hash identically to the dividend's quotient columns).
    for (size_t i = 0; i < n; ++i) {
      for ([[maybe_unused]] const Tuple& q : local_quotients[i]) {
        RELDIV_DCHECK_EQ(HashPartitionOf(q, projected_attrs, n), i)
            << "quotient tuple emitted by a node outside its hash cluster";
      }
      result.quotient.insert(result.quotient.end(),
                             local_quotients[i].begin(),
                             local_quotients[i].end());
    }
  } else if (!participating.empty()) {
    // Collection: quotient clusters arrive tagged with their processor
    // network address; divide them over the set of addresses. Either one
    // central site (node 0) or — decentralized — every node collects the
    // quotient values that hash to it. (An empty divisor leaves no node
    // participating and the quotient empty by convention.)
    std::vector<Field> tagged_fields =
        dividend_schema.Project(quotient_attrs).fields();
    tagged_fields.push_back(Field{"node", ValueType::kInt64});
    const RowCodec tagged_codec{Schema(std::move(tagged_fields))};
    const size_t collector_count = options_.decentralized_collection ? n : 1;
    std::vector<EncodedPartition> tagged =
        MakeEncodedPartitions(tagged_codec, collector_count);
    std::vector<int64_t> tags;
    for (size_t i : participating) {
      tags.push_back(static_cast<int64_t>(i));
      for (Tuple& q : local_quotients[i]) {
        const size_t collector =
            options_.decentralized_collection
                ? HashPartitionOf(q, projected_attrs, n)
                : 0;
        q.Append(Value::Int64(static_cast<int64_t>(i)));
        RELDIV_RETURN_NOT_OK(Route(&interconnect_, i, collector, tagged_codec,
                                   q, &tagged[collector]));
      }
    }
    for (size_t c = 0; c < collector_count; ++c) {
      PartitionSourceOperator source(&tagged_codec, &tagged[c]);
      size_t splits = 0;
      RELDIV_RETURN_NOT_OK(CollectTaggedQuotients(
          nodes_[c]->ctx(), &source, tags, /*expected_cardinality=*/0,
          &result.quotient, &splits));
    }
  }

  result.wall_ms = MsSince(wall_start);
  result.network_messages = interconnect_.messages();
  result.network_bytes = interconnect_.bytes();
  return result;
}

}  // namespace reldiv
