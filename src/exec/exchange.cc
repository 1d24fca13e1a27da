#include "exec/exchange.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "exec/kernels/kernels.h"
#include "exec/scheduler.h"

namespace reldiv {

size_t HashPartitionOf(const Tuple& tuple, const std::vector<size_t>& attrs,
                       size_t num_partitions) {
  RELDIV_DCHECK_GT(num_partitions, 0u) << "partitioning into zero clusters";
  return static_cast<size_t>(tuple.HashAt(attrs) % num_partitions);
}

Status RunFragments(
    ExecContext* ctx, size_t num_fragments,
    const std::function<Status(size_t fragment, ExecContext* fragment_ctx)>&
        body) {
  // Sized once, so the counter addresses the fragment contexts hold stay
  // stable.
  std::vector<CpuCounters> counters(num_fragments);
  std::vector<std::unique_ptr<ExecContext>> contexts;
  contexts.reserve(num_fragments);
  for (size_t i = 0; i < num_fragments; ++i) {
    auto fragment_ctx = std::make_unique<ExecContext>(
        ctx->disk(), ctx->buffer_manager(), ctx->pool(), &counters[i]);
    fragment_ctx->set_sort_space_bytes(ctx->sort_space_bytes());
    fragment_ctx->set_hash_memory_bytes(ctx->hash_memory_bytes());
    fragment_ctx->set_batch_capacity(ctx->batch_capacity());
    fragment_ctx->set_contract_checks(ctx->contract_checks());
    // Profiling stays off in fragments: their work reports through the
    // parent's counters, not as free-standing profile roots.
    if (ctx->trace() != nullptr) fragment_ctx->set_trace(ctx->trace());
    fragment_ctx->set_cancellation_flag(ctx->cancellation_flag());
    // Nested parallel regions run inline (exec/scheduler.h); making the
    // fragment context serial keeps dop-aware operators below from even
    // trying.
    fragment_ctx->set_dop(1);
    contexts.push_back(std::move(fragment_ctx));
  }
  const Status status = TaskScheduler::Global().ParallelFor(
      std::min(ctx->dop(), num_fragments), num_fragments,
      [&](size_t i) { return body(i, contexts[i].get()); });
  // Merge even on failure: the work ran, its counters stay monotone.
  for (size_t i = 0; i < num_fragments; ++i) {
    *ctx->counters() += counters[i];
    ctx->CountMoveBytes(contexts[i]->move_remainder_bytes());
  }
  return status;
}

Result<std::vector<EncodedPartition>> DrainAndEncodeRepartition(
    ExecContext* ctx, Operator* source, const RowCodec& codec,
    const std::vector<size_t>& key_attrs, size_t num_partitions) {
  RELDIV_CHECK(num_partitions > 0);
  std::vector<EncodedPartition> partitions(num_partitions);
  RELDIV_RETURN_NOT_OK(source->Open());
  TupleBatch batch(ctx->batch_capacity());
  std::vector<int64_t> keys;
  std::vector<uint64_t> hashes;
  bool has_more = true;
  Status status;
  while (has_more && status.ok()) {
    status = ctx->CheckCancelled();
    if (status.ok()) status = source->NextBatch(&batch, &has_more);
    if (!status.ok()) break;
    // A single int64 key is hashed for the whole batch by the kernel, which
    // equals Tuple::HashAt bit for bit, so rows land where HashPartitionOf
    // would put them.
    const bool kernel_hash =
        key_attrs.size() == 1 &&
        kernels::ExtractInt64Column(batch, key_attrs[0], &keys);
    if (kernel_hash) {
      hashes.resize(batch.size());
      kernels::HashInt64Keys(keys.data(), batch.size(), hashes.data());
    }
    // One partitioning-function application per routed tuple (§3.4).
    ctx->CountHashes(batch.size());
    for (size_t i = 0; status.ok() && i < batch.size(); ++i) {
      const Tuple& tuple = batch.tuple(i);
      const size_t p =
          kernel_hash ? static_cast<size_t>(hashes[i] % num_partitions)
                      : HashPartitionOf(tuple, key_attrs, num_partitions);
      status = partitions[p].Append(codec, tuple);
    }
  }
  const Status close = source->Close();
  if (status.ok()) status = close;
  RELDIV_RETURN_NOT_OK(status);
  return partitions;
}

Status DecodeRows(const RowCodec& codec, const EncodedPartition& partition,
                  size_t begin, TupleBatch* batch) {
  batch->Clear();
  const size_t end = std::min(partition.rows(), begin + batch->capacity());
  for (size_t i = begin; i < end; ++i) {
    RELDIV_RETURN_NOT_OK(
        codec.Decode(partition.row(i), batch->AddSlotForOverwrite()));
  }
  return Status::OK();
}

Status PartitionSourceOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  RELDIV_RETURN_NOT_OK(DecodeRows(*codec_, *partition_, next_, batch));
  next_ += batch->size();
  *has_more = next_ < partition_->rows();
  return Status::OK();
}

Result<std::vector<std::vector<Tuple>>> DrainAndHashRepartition(
    ExecContext* ctx, Operator* source, const std::vector<size_t>& key_attrs,
    size_t num_partitions) {
  const RowCodec codec(source->output_schema());
  RELDIV_ASSIGN_OR_RETURN(
      std::vector<EncodedPartition> partitions,
      DrainAndEncodeRepartition(ctx, source, codec, key_attrs,
                                num_partitions));
  std::vector<std::vector<Tuple>> buckets(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    buckets[p].resize(partitions[p].rows());
    for (size_t i = 0; i < partitions[p].rows(); ++i) {
      RELDIV_RETURN_NOT_OK(codec.Decode(partitions[p].row(i), &buckets[p][i]));
    }
    partitions[p] = EncodedPartition{};  // keep one copy alive at a time
  }
  return buckets;
}

}  // namespace reldiv
