#ifndef RELDIV_EXEC_EXCHANGE_H_
#define RELDIV_EXEC_EXCHANGE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/row_codec.h"
#include "common/slice.h"
#include "exec/batch.h"
#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Runs `num_fragments` independent fragments of one parallel region on up
/// to min(ctx->dop(), num_fragments) scheduler lanes. Fragment `i` runs
/// `body(i, fragment_ctx)`, where `fragment_ctx` is a private ExecContext
/// sharing `ctx`'s (thread-safe) disk, buffer manager and memory pool but
/// counting Table 1 work into private CpuCounters — concurrent fragments
/// never race on the parent's counters. It inherits `ctx`'s budgets, batch
/// capacity, contract checks, trace and cancellation flag, and has dop 1.
///
/// After the region, every fragment's counters and sub-page Move remainder
/// fold back into `ctx` IN FRAGMENT ORDER (through ExecContext::
/// CountMoveBytes), also on failure: executed work stays counted, keeping
/// the parent's counters monotone. Because Move units are a cumulative fold
/// of byte volume (floor per page with a carried remainder), merging the
/// remainders in a fixed order reproduces the serial fold exactly, so the
/// merged totals are independent of which lane ran which fragment and of
/// the degree of parallelism — the property the lane-equivalence suite
/// pins. The fragment COUNT is the caller's and must not depend on dop.
/// Returns the first failing fragment's status (TaskScheduler::ParallelFor).
Status RunFragments(
    ExecContext* ctx, size_t num_fragments,
    const std::function<Status(size_t fragment, ExecContext* fragment_ctx)>&
        body);

/// The one partitioning function of §3.4 overflow clusters, in-process
/// exchange fragments and §6 nodes: the cluster of `tuple` among
/// `num_partitions` by a hash of its `attrs`, HashAt(attrs) % n. A non-zero
/// `salt` (a recursion depth) is mixed into the hash first, so a recursive
/// re-split of an overflowing cluster does not reproduce its parent's
/// partitioning. Deterministic — the same tuple always lands in the same
/// cluster, which both overflow handling and shared-nothing redistribution
/// rely on.
size_t HashPartitionOf(const Tuple& tuple, const std::vector<size_t>& attrs,
                       size_t num_partitions, uint64_t salt = 0);

/// The store step of DrainAndRoute: receives one batch and, in
/// `partitions[i]`, the partition of `batch.tuple(i)`.
using RoutedBatchSink = std::function<Status(
    const TupleBatch& batch, const std::vector<size_t>& partitions)>;

/// The one router of a partition step. Drains `source` with Drain()
/// (cancellation polled before every pull, the source closed on every path
/// after a good Open), computes each batch's partition indices
/// HashPartitionOf(tuple, key_attrs, num_partitions, salt) — one batched
/// kernel hash when the key is a single int64 column, at any salt — counts
/// one Hash per routed tuple on `ctx` (§3.4's partitioning-function
/// application), and hands each batch with its indices to `store`, once per
/// batch. Where a row lands therefore depends only on the data, the key, the
/// partition count and the salt, never on the batch size or worker count.
Status DrainAndRoute(ExecContext* ctx, Operator* source,
                     const std::vector<size_t>& key_attrs,
                     size_t num_partitions, uint64_t salt,
                     const RoutedBatchSink& store);

/// Bytes per page of an EncodedPartition. A page is allocated once and
/// never copied or grown, so a partition grows without moving its rows.
inline constexpr size_t kPartitionPageBytes = 64 * 1024;

/// One partition of an in-process hash exchange, and what the §6 engine's
/// interconnect ships: rows in RowCodec encoding, back to back in fixed-size
/// pages. A row never straddles a page; a page that cannot hold the next
/// row is left with a tail unused, and a row longer than a page gets a page
/// of its own size. When every column is int64 (RowCodec::fixed_row_bytes),
/// a row's index alone locates it and the partition keeps nothing per row;
/// variable-width rows also record where each ends in its page. Appending
/// allocates nothing per row and the source's batch slots stay reusable.
/// Receivers decode rows into a batch of their own (DecodeRows) or, on the
/// int64 kernel path, gather key columns in place (GatherInt64Column).
/// Not charged to the memory pool. Concurrent readers are safe; a writer
/// must be alone.
class EncodedPartition {
 public:
  /// An empty partition for rows of `codec`'s schema.
  explicit EncodedPartition(const RowCodec& codec)
      : row_bytes_(codec.fixed_row_bytes()),
        rows_per_page_(row_bytes_ == 0
                           ? 0
                           : std::max<size_t>(1, kPartitionPageBytes /
                                                     row_bytes_)) {}

  size_t rows() const { return rows_; }
  /// Bytes of the rows appended, page tails excluded: a shipment's size.
  size_t byte_size() const { return bytes_; }

  /// Appends `tuple`, encoded with `codec` (the constructor's schema), as
  /// the next row. InvalidArgument on a schema mismatch.
  Status Append(const RowCodec& codec, const Tuple& tuple);

  /// Appends row `i` of a fixed-width batch held as one int64 array per
  /// column, without building or encoding a tuple.
  void AppendInt64Row(const std::vector<std::vector<int64_t>>& columns,
                      size_t i) {
    char* p = Reserve(row_bytes_);
    for (const std::vector<int64_t>& column : columns) {
      RowCodec::StoreInt64(column[i], p);
      p += 8;
    }
  }

  /// Calls `fn(Slice row)` on rows [begin, end) in order, walking the pages
  /// once.
  template <typename Fn>
  void ForEachRow(size_t begin, size_t end, Fn&& fn) const;

  /// out[k] = column `column` of row begin + k, for k < n, read in place.
  /// Fixed-width partitions only.
  void GatherInt64Column(size_t column, size_t begin, size_t n,
                         int64_t* out) const;

 private:
  struct Page {
    std::unique_ptr<char[]> data;
    size_t first_row;  ///< index of the page's first row
  };

  /// Room for the next row of `bytes` bytes, counted as appended.
  char* Reserve(size_t bytes) {
    if (static_cast<size_t>(limit_ - cursor_) < bytes || pages_.empty()) {
      OpenPage(bytes);
    }
    char* at = cursor_;
    cursor_ += bytes;
    bytes_ += bytes;
    rows_++;
    return at;
  }
  void OpenPage(size_t bytes);
  /// The page holding row `i`.
  size_t PageOf(size_t i) const;

  size_t row_bytes_;      ///< fixed row width; 0 = variable width
  size_t rows_per_page_;  ///< fixed width only
  std::vector<Page> pages_;
  /// Variable width only: row i ends at byte ends_[i] of its page.
  std::vector<size_t> ends_;
  char* cursor_ = nullptr;  ///< next free byte of the last page
  char* limit_ = nullptr;   ///< end of the last page
  size_t rows_ = 0;
  size_t bytes_ = 0;
  std::string scratch_;  ///< Append's encoding buffer
};

template <typename Fn>
void EncodedPartition::ForEachRow(size_t begin, size_t end, Fn&& fn) const {
  RELDIV_DCHECK_LE(end, rows_) << "rows beyond the partition";
  size_t i = begin;
  for (size_t p = i < end ? PageOf(i) : 0; i < end; ++p) {
    const Page& page = pages_[p];
    const size_t stop =
        std::min(end, p + 1 < pages_.size() ? pages_[p + 1].first_row : rows_);
    const char* data = page.data.get();
    if (row_bytes_ != 0) {
      for (const char* at = data + (i - page.first_row) * row_bytes_;
           i < stop; ++i, at += row_bytes_) {
        fn(Slice(at, row_bytes_));
      }
      continue;
    }
    for (size_t from = i == page.first_row ? 0 : ends_[i - 1]; i < stop;
         from = ends_[i++]) {
      fn(Slice(data + from, ends_[i] - from));
    }
  }
}

/// `n` empty partitions for rows of `codec`'s schema.
std::vector<EncodedPartition> MakeEncodedPartitions(const RowCodec& codec,
                                                    size_t n);

/// The serial repartition half of an in-process hash exchange: routes
/// `source` through DrainAndRoute (salt 0) and appends every tuple, encoded
/// with `codec` (the source's output schema), to its partition. A batch of
/// fixed-width rows is stored from its extracted int64 columns
/// (EncodedPartition::AppendInt64Row), with no per-row RowCodec call.
/// Partition contents, row order included, depend only on the data and the
/// partition count, never on the worker count.
Result<std::vector<EncodedPartition>> DrainAndEncodeRepartition(
    ExecContext* ctx, Operator* source, const RowCodec& codec,
    const std::vector<size_t>& key_attrs, size_t num_partitions);

/// Decodes rows [begin, begin + batch->capacity()) of `partition`, clipped
/// at its end, into `batch` (cleared first), reusing the batch's slots.
Status DecodeRows(const RowCodec& codec, const EncodedPartition& partition,
                  size_t begin, TupleBatch* batch);

/// Reads one partition back as an operator, a batch at a time through
/// DecodeRows: the receiving end of a shipment for consumers that pull their
/// input, such as a divisor-table build or a collection division. Borrows
/// `codec` and `partition`, which must outlive it.
class PartitionSourceOperator : public Operator {
 public:
  PartitionSourceOperator(const RowCodec* codec,
                          const EncodedPartition* partition)
      : codec_(codec), partition_(partition) {}

  const Schema& output_schema() const override { return codec_->schema(); }
  Status Open() override {
    next_ = 0;
    return Status::OK();
  }
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override { return Status::OK(); }

 private:
  const RowCodec* codec_;
  const EncodedPartition* partition_;
  size_t next_ = 0;
};

/// DrainAndEncodeRepartition decoded back into one tuple vector per
/// partition: the same routing, counts and row order.
Result<std::vector<std::vector<Tuple>>> DrainAndHashRepartition(
    ExecContext* ctx, Operator* source, const std::vector<size_t>& key_attrs,
    size_t num_partitions);

}  // namespace reldiv

#endif  // RELDIV_EXEC_EXCHANGE_H_
