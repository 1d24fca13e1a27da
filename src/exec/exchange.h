#ifndef RELDIV_EXEC_EXCHANGE_H_
#define RELDIV_EXEC_EXCHANGE_H_

#include <functional>
#include <string>
#include <vector>

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

/// The §3.4/§6 partitioning function: the cluster of `tuple` among
/// `num_partitions` by a hash of its `attrs`. Deterministic — the same
/// tuple always lands in the same cluster, which both overflow handling and
/// shared-nothing redistribution rely on.
size_t HashPartitionOf(const Tuple& tuple, const std::vector<size_t>& attrs,
                       size_t num_partitions);

/// One partition of an in-process hash exchange: its rows back to back in
/// RowCodec encoding, row i ending at byte ends[i]. Routing a row appends
/// its encoding — no per-row allocation, and the source's batch slots stay
/// reusable — and the receiving fragment decodes rows into a batch of its
/// own (DecodeRows). The encoded rows are also what the §6 engine's
/// interconnect ships: a shipment's bytes are the rows it appended.
struct EncodedPartition {
  std::string bytes;
  std::vector<size_t> ends;

  size_t rows() const { return ends.size(); }
  Slice row(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends[i - 1];
    return Slice(bytes.data() + begin, ends[i] - begin);
  }

  /// Appends `tuple`, encoded with `codec`, as the next row.
  Status Append(const RowCodec& codec, const Tuple& tuple) {
    RELDIV_RETURN_NOT_OK(codec.Encode(tuple, &bytes));
    ends.push_back(bytes.size());
    return Status::OK();
  }
};

/// The serial repartition half of an in-process hash exchange: drains
/// `source` (open → batches → close) and appends every tuple, encoded with
/// `codec` (the source's output schema), to partition HashPartitionOf(tuple,
/// key_attrs, num_partitions), counting one Hash per routed tuple on `ctx`.
/// Partition contents, row order included, depend only on the data and the
/// partition count, never on the worker count. Polls ctx->CheckCancelled()
/// once per batch. The source is closed on every path after a good Open.
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
