#include "exec/exchange.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/hash.h"
#include "exec/kernels/kernels.h"
#include "exec/scheduler.h"

namespace reldiv {

namespace {

/// HashPartitionOf's hash-only form: the partition of a key whose
/// Tuple::HashAt is `hash`. The router's batched kernel path calls it on the
/// kernel's hashes, which equal HashAt bit for bit.
size_t PartitionOfHash(uint64_t hash, size_t num_partitions, uint64_t salt) {
  if (salt != 0) hash = HashCombine(hash, salt);
  return static_cast<size_t>(hash % num_partitions);
}

}  // namespace

size_t HashPartitionOf(const Tuple& tuple, const std::vector<size_t>& attrs,
                       size_t num_partitions, uint64_t salt) {
  RELDIV_DCHECK_GT(num_partitions, 0u) << "partitioning into zero clusters";
  return PartitionOfHash(tuple.HashAt(attrs), num_partitions, salt);
}

Status DrainAndRoute(ExecContext* ctx, Operator* source,
                     const std::vector<size_t>& key_attrs,
                     size_t num_partitions, uint64_t salt,
                     const RoutedBatchSink& store) {
  RELDIV_CHECK(num_partitions > 0);
  std::vector<int64_t> keys;
  std::vector<uint64_t> hashes;
  std::vector<size_t> partitions;
  return Drain(
      source, ctx->batch_capacity(), ctx, [&](TupleBatch& batch) -> Status {
        const size_t n = batch.size();
        partitions.resize(n);
        if (key_attrs.size() == 1 &&
            kernels::ExtractInt64Column(batch, key_attrs[0], &keys)) {
          hashes.resize(n);
          kernels::HashInt64Keys(keys.data(), n, hashes.data());
          for (size_t i = 0; i < n; ++i) {
            partitions[i] = PartitionOfHash(hashes[i], num_partitions, salt);
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            partitions[i] =
                HashPartitionOf(batch.tuple(i), key_attrs, num_partitions, salt);
          }
        }
        // One partitioning-function application per routed tuple (§3.4).
        ctx->CountHashes(n);
        return store(batch, partitions);
      });
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

void EncodedPartition::OpenPage(size_t bytes) {
  const size_t capacity = std::max(kPartitionPageBytes, bytes);
  pages_.push_back({std::make_unique_for_overwrite<char[]>(capacity), rows_});
  cursor_ = pages_.back().data.get();
  limit_ = cursor_ + capacity;
}

size_t EncodedPartition::PageOf(size_t i) const {
  RELDIV_DCHECK_LT(i, rows_) << "row beyond the partition";
  if (row_bytes_ != 0) return i / rows_per_page_;
  const auto after = std::upper_bound(
      pages_.begin(), pages_.end(), i,
      [](size_t row, const Page& page) { return row < page.first_row; });
  return static_cast<size_t>(after - pages_.begin()) - 1;
}

Status EncodedPartition::Append(const RowCodec& codec, const Tuple& tuple) {
  scratch_.clear();
  RELDIV_RETURN_NOT_OK(codec.Encode(tuple, &scratch_));
  RELDIV_DCHECK(row_bytes_ == 0 || scratch_.size() == row_bytes_)
      << "row of another schema";
  std::memcpy(Reserve(scratch_.size()), scratch_.data(), scratch_.size());
  if (row_bytes_ == 0) {
    ends_.push_back(static_cast<size_t>(cursor_ - pages_.back().data.get()));
  }
  return Status::OK();
}

void EncodedPartition::GatherInt64Column(size_t column, size_t begin,
                                         size_t n, int64_t* out) const {
  RELDIV_DCHECK_LT(8 * column, row_bytes_)
      << "int64 gather outside a fixed-width row";
  const size_t offset = 8 * column;
  ForEachRow(begin, begin + n, [&](Slice row) {
    *out++ = RowCodec::LoadInt64(row.data() + offset);
  });
}

std::vector<EncodedPartition> MakeEncodedPartitions(const RowCodec& codec,
                                                    size_t n) {
  std::vector<EncodedPartition> partitions;
  partitions.reserve(n);
  for (size_t i = 0; i < n; ++i) partitions.emplace_back(codec);
  return partitions;
}

namespace {

/// Gathers every column of `batch` into `columns` iff each of its rows is
/// `arity` int64 values: the rows a fixed-width codec of that arity
/// encodes. False sends the batch to the per-row encoder, which reports any
/// mismatch.
bool ExtractFixedWidthColumns(const TupleBatch& batch, size_t arity,
                              std::vector<std::vector<int64_t>>* columns) {
  for (const Tuple& tuple : batch) {
    if (tuple.size() != arity) return false;
  }
  columns->resize(arity);
  for (size_t c = 0; c < arity; ++c) {
    if (!kernels::ExtractInt64Column(batch, c, &(*columns)[c])) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<EncodedPartition>> DrainAndEncodeRepartition(
    ExecContext* ctx, Operator* source, const RowCodec& codec,
    const std::vector<size_t>& key_attrs, size_t num_partitions) {
  std::vector<EncodedPartition> partitions =
      MakeEncodedPartitions(codec, num_partitions);
  std::vector<std::vector<int64_t>> columns;
  RELDIV_RETURN_NOT_OK(DrainAndRoute(
      ctx, source, key_attrs, num_partitions, /*salt=*/0,
      [&](const TupleBatch& batch, const std::vector<size_t>& to) -> Status {
        if (codec.fixed_row_bytes() != 0 &&
            ExtractFixedWidthColumns(batch, codec.schema().num_fields(),
                                     &columns)) {
          for (size_t i = 0; i < batch.size(); ++i) {
            partitions[to[i]].AppendInt64Row(columns, i);
          }
          return Status::OK();
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          RELDIV_RETURN_NOT_OK(partitions[to[i]].Append(codec, batch.tuple(i)));
        }
        return Status::OK();
      }));
  return partitions;
}

Status DecodeRows(const RowCodec& codec, const EncodedPartition& partition,
                  size_t begin, TupleBatch* batch) {
  batch->Clear();
  Status status;
  partition.ForEachRow(
      begin, std::min(partition.rows(), begin + batch->capacity()),
      [&](Slice row) {
        if (status.ok()) {
          status = codec.Decode(row, batch->AddSlotForOverwrite());
        }
      });
  return status;
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
    Tuple* next = buckets[p].data();
    Status status;
    partitions[p].ForEachRow(0, partitions[p].rows(), [&](Slice row) {
      if (status.ok()) status = codec.Decode(row, next++);
    });
    RELDIV_RETURN_NOT_OK(status);
    partitions[p] = EncodedPartition(codec);  // keep one copy alive at a time
  }
  return buckets;
}

}  // namespace reldiv
