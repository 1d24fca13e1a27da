#ifndef RELDIV_EXEC_EXCHANGE_H_
#define RELDIV_EXEC_EXCHANGE_H_

#include <functional>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"

namespace reldiv {

/// Runs `num_fragments` independent fragments of one parallel region on up
/// to min(ctx->dop(), num_fragments) scheduler lanes. Fragment `i` runs
/// `body(i, fragment_ctx)`, where `fragment_ctx` is a private ExecContext
/// sharing `ctx`'s (thread-safe) disk, buffer manager and memory pool but
/// counting Table 1 work into private CpuCounters — concurrent fragments
/// never race on the parent's counters. It inherits `ctx`'s budgets, batch
/// capacity, contract checks and trace, and has dop 1.
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

/// Drains `source` (open → batches → close) and routes every tuple into
/// `num_partitions` buckets by hash of `key_attrs` (the §3.4/§6 partitioning
/// function via parallel/partitioner.h), counting one Hash per routed tuple
/// on `ctx`. The serial repartition half of an in-process hash exchange:
/// bucket contents depend only on the data and the partition count, never
/// on the worker count.
Result<std::vector<std::vector<Tuple>>> DrainAndHashRepartition(
    ExecContext* ctx, Operator* source, const std::vector<size_t>& key_attrs,
    size_t num_partitions);

}  // namespace reldiv

#endif  // RELDIV_EXEC_EXCHANGE_H_
