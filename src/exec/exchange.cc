#include "exec/exchange.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "exec/scheduler.h"
#include "parallel/partitioner.h"

namespace reldiv {

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

Result<std::vector<std::vector<Tuple>>> DrainAndHashRepartition(
    ExecContext* ctx, Operator* source, const std::vector<size_t>& key_attrs,
    size_t num_partitions) {
  RELDIV_CHECK(num_partitions > 0);
  std::vector<std::vector<Tuple>> buckets(num_partitions);
  RELDIV_RETURN_NOT_OK(source->Open());
  TupleBatch batch(ctx->batch_capacity());
  bool has_more = true;
  Status status;
  while (has_more) {
    status = source->NextBatch(&batch, &has_more);
    if (!status.ok()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      Tuple& tuple = batch.tuple(i);
      ctx->CountHashes(1);  // one partitioning-function application (§3.4)
      buckets[HashPartitionOf(tuple, key_attrs, num_partitions)].push_back(
          std::move(tuple));
    }
  }
  const Status close = source->Close();
  if (status.ok()) status = close;
  RELDIV_RETURN_NOT_OK(status);
  return buckets;
}

}  // namespace reldiv
