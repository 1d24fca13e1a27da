#ifndef RELDIV_DIVISION_HASH_DIVISION_H_
#define RELDIV_DIVISION_HASH_DIVISION_H_

#include <memory>
#include <utility>
#include <vector>

#include "division/division.h"
#include "exec/exchange.h"
#include "exec/exec_context.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "storage/memory_manager.h"

namespace reldiv {

/// Reusable engine implementing the three steps of Figure 1. Factored out of
/// the operator so that the overflow-partitioned (§3.4) and multi-processor
/// (§6) variants can drive the same logic: the divisor table can be built
/// once and divided against several dividend streams (quotient partitioning
/// keeps the divisor table resident across phases), and the quotient table
/// can be reset per phase.
class HashDivisionCore {
 public:
  /// `match_attrs`: dividend columns matched positionally against all
  /// divisor columns. `quotient_attrs`: the remaining dividend columns.
  HashDivisionCore(ExecContext* ctx, std::vector<size_t> match_attrs,
                   std::vector<size_t> quotient_attrs,
                   const DivisionOptions& options);

  /// Step 1: builds the divisor table, assigning dense divisor numbers.
  /// Duplicates in the divisor are eliminated on the fly (§3.3, point 5).
  /// `divisor` is read with Drain(), so it is closed on every path after a
  /// good Open and the build stops at a raised cancellation flag.
  /// ResourceExhausted when the table outgrows the pool or the
  /// ExecContext::hash_memory_bytes() budget (the §3.4 overflow trigger).
  Status BuildDivisorTable(Operator* divisor,
                           uint64_t expected_cardinality = 0);

  /// Seeds the divisor table from pre-numbered tuples (used by the
  /// collection phase of divisor partitioning, which divides over phase
  /// numbers instead — §3.4).
  Status BuildDivisorTableFromNumbered(
      const std::vector<std::pair<Tuple, uint64_t>>& numbered,
      uint64_t divisor_count);

  /// Shares `owner`'s already-built divisor table (and its dense numbering)
  /// instead of building one: the §6 quotient-partitioning form in-process,
  /// where parallel fragments probe one read-only divisor table. The owner
  /// must outlive this core and must not mutate the table while it is
  /// borrowed. Probes through a borrowed table charge THIS core's context,
  /// so concurrent fragments never race on cost counters. A borrowing
  /// core's memory_bytes() adds a snapshot of the shared table's footprint
  /// to its own quotient table, so hash_memory_bytes budget checks (the
  /// §3.4 overflow trigger) fire exactly where the serial plan's would.
  void BorrowDivisorTable(const HashDivisionCore& owner);

  /// Prepares an empty quotient table (step 2 state). May be called again
  /// to start a new phase; the previous table's memory is released. A
  /// cardinality hint (the argument, else
  /// DivisionOptions::expected_quotient_cardinality) fixes the bucket count
  /// for an average bucket size of 2. Without one the table starts at 512
  /// buckets and doubles whenever it holds more than 2 candidates per
  /// bucket.
  Status ResetQuotientTable(uint64_t expected_cardinality = 0);

  /// Step 2, one dividend batch: the vectorized probe/extend loop. Each
  /// tuple, in order, probes the divisor table and, on a match, the quotient
  /// table; the ExecContext cost counters are bumped once per batch with the
  /// accumulated totals, so Table 1–4 accounting is independent of the batch
  /// size. With early output enabled, quotient tuples whose bit map just
  /// filled are appended to `early_out` (§3.3, point 2); otherwise
  /// `early_out` may be nullptr. With one int64 match and one int64
  /// quotient attribute the batch takes ConsumeInt64Keys on its extracted
  /// key columns.
  Status ConsumeBatch(const TupleBatch& batch, std::vector<Tuple>* early_out);

  /// Step 2 for one match attribute and one quotient attribute, both int64,
  /// given as key columns: dividend tuple i has match key match[i] and
  /// quotient key quotient[i], i < n. The same probes, counts and early
  /// output as ConsumeBatch over the tuples, without a tuple in sight, so a
  /// fragment can feed it columns gathered straight from its partition.
  Status ConsumeInt64Keys(const int64_t* match, const int64_t* quotient,
                          size_t n, std::vector<Tuple>* early_out);

  /// Step 3: scans the quotient table and appends every tuple whose bit map
  /// contains no zero. A no-op when early output is enabled — those tuples
  /// were produced eagerly.
  Status EmitComplete(std::vector<Tuple>* out);

  /// Steps 2 and 3 over one cluster of the dividend, the one cluster call
  /// of §3.4 phases, the collection phase and §6 nodes: resets the quotient
  /// table with `expected_cardinality` (ResetQuotientTable's hint), drains
  /// `input` into ConsumeBatch with `out` as the early-output sink, and
  /// emits the complete candidates into `out`. `input` is read with Drain()
  /// on this core's context, so it is closed on every path after a good
  /// Open; a failed drain (a §3.4 overflow) releases the quotient table.
  Status DivideCluster(Operator* input, uint64_t expected_cardinality,
                       std::vector<Tuple>* out);

  uint64_t divisor_count() const { return divisor_count_; }
  size_t quotient_candidates() const {
    return quotient_table_ == nullptr ? 0 : quotient_table_->size();
  }
  size_t quotient_buckets() const {
    return quotient_table_ == nullptr ? 0 : quotient_table_->num_buckets();
  }
  size_t memory_bytes() const {
    return divisor_arena_.bytes_allocated() + borrowed_divisor_bytes_ +
           (quotient_arena_ == nullptr ? 0
                                       : quotient_arena_->bytes_allocated());
  }
  /// Distinct (quotient candidate, divisor number) pairs recorded — the
  /// number of 1-bits across all candidate bit maps. bits_set / (candidates
  /// * divisor_count) is the bit-map fill ratio.
  uint64_t bits_set() const { return bits_set_; }
  /// Quotient tuples produced eagerly by the §3.3 early-output rule.
  uint64_t early_emits() const { return early_emits_; }

 private:
  /// Cost-counter bumps accumulated across a batch and flushed once.
  struct PendingCounts {
    uint64_t comparisons = 0;
    uint64_t bit_ops = 0;
  };

  /// Enforces ExecContext::hash_memory_bytes() (0 = unlimited) over both
  /// tables' arenas. Called only when a table grew, so probe hits are free.
  Status CheckBudget(const char* stage) const;

  /// The bit-map half of one dividend tuple's step 2, after its
  /// quotient-table probe found or `inserted` `quotient_entry`: a new
  /// candidate gets a cleared bit map, then `divisor_number`'s bit is set.
  Status ExtendCandidate(TupleHashTable::Entry* quotient_entry, bool inserted,
                         uint64_t divisor_number,
                         std::vector<Tuple>* early_out,
                         PendingCounts* pending);
  void FlushCounts(const PendingCounts& pending);

  /// The start of every step-2 batch: Internal before the tables exist, and
  /// the batch's cancellation checkpoint.
  Status BeginBatch();
  /// Passes 2 and 3 of a step-2 batch over staged_: prefetch the chain
  /// heads, then probe or extend the quotient table in batch order, by the
  /// key in quotient_keys_matched_ when `int64_keys`, else by the staged
  /// dividend tuple.
  Status ExtendStaged(bool int64_keys, std::vector<Tuple>* early_out);

  /// Scratch for the staged probe: dividend tuples that matched a divisor
  /// tuple, awaiting their quotient-table chain walk (on the int64 path,
  /// by the key in quotient_keys_matched_ at the same index, with no tuple).
  struct StagedProbe {
    const Tuple* dividend;
    uint64_t divisor_number;
    uint64_t quotient_hash;
  };
  std::vector<StagedProbe> staged_;

  /// Scratch for the int64 path: ConsumeBatch's extracted key columns, the
  /// matched quotient keys and the batched probe hashes (exec/kernels).
  /// Reused across batches, so the steady state allocates nothing.
  std::vector<int64_t> match_keys_;
  std::vector<int64_t> quotient_col_;
  std::vector<int64_t> quotient_keys_matched_;
  std::vector<uint64_t> match_hashes_;
  std::vector<uint64_t> quotient_hashes_;

  ExecContext* ctx_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;
  DivisionOptions options_;

  Arena divisor_arena_;
  std::unique_ptr<Arena> quotient_arena_;
  std::unique_ptr<TupleHashTable> divisor_table_;
  std::unique_ptr<TupleHashTable> quotient_table_;
  /// The table probed in step 2: divisor_table_.get() after a build, or the
  /// owner's table after BorrowDivisorTable. All probes go through the
  /// counted-context overloads so a shared table charges the prober.
  const TupleHashTable* divisor_view_ = nullptr;
  /// Footprint of a borrowed divisor table at borrow time (the owner's
  /// table no longer grows then), counted into memory_bytes() so budget
  /// checks match the owning/serial plan's.
  size_t borrowed_divisor_bytes_ = 0;
  uint64_t divisor_count_ = 0;
  uint64_t bits_set_ = 0;
  uint64_t early_emits_ = 0;
};

/// The fragment-parallel half of §6 quotient partitioning in-process, run by
/// HashDivisionOperator::OpenParallel on the partitions of
/// DrainAndEncodeRepartition (exec/exchange.h). Each partition feeds a
/// private core that borrows `shared_core`'s divisor table, charges a
/// private counter context and sizes its quotient table from the
/// partition's row count. A fixed-width partition with one int64 match and
/// one int64 quotient attribute hands ConsumeInt64Keys its two key columns,
/// gathered from its pages a batch at a time, and builds no tuple; any
/// other partition is decoded a batch at a time into ConsumeBatch. The
/// fragment
/// outputs are concatenated into `results` in fragment order —
/// deterministic for any worker count. Fragment counters merge into `ctx` in
/// fragment order even on failure.
Status RunDivisionFragments(ExecContext* ctx,
                            const std::vector<size_t>& match_attrs,
                            const std::vector<size_t>& quotient_attrs,
                            const DivisionOptions& options,
                            const HashDivisionCore& shared_core,
                            const RowCodec& codec,
                            const std::vector<EncodedPartition>& partitions,
                            std::vector<Tuple>* results);

/// The same fragment body over DrainAndHashRepartition's tuple buckets.
Status RunDivisionFragments(ExecContext* ctx,
                            const std::vector<size_t>& match_attrs,
                            const std::vector<size_t>& quotient_attrs,
                            const DivisionOptions& options,
                            const HashDivisionCore& shared_core,
                            const std::vector<std::vector<Tuple>>& buckets,
                            std::vector<Tuple>* results);

/// Hash-division (§3): the paper's new algorithm. Two hash tables — the
/// divisor table maps divisor tuples to dense divisor numbers; the quotient
/// table holds quotient candidates, each with a bit map indexed by divisor
/// number. The quotient is exactly the candidates whose bit map has no zero
/// bit. Dividend tuples with no matching divisor tuple are discarded
/// immediately; dividend duplicates are ignored automatically; divisor
/// duplicates are eliminated while building the divisor table.
///
/// Default mode is a stop-and-go operator (inputs consumed in Open(),
/// quotient produced by scanning the table). With
/// DivisionOptions::early_output the operator becomes a pipelined producer:
/// each quotient tuple is emitted the moment its counter reaches the divisor
/// count.
class HashDivisionOperator : public Operator {
 public:
  HashDivisionOperator(ExecContext* ctx, std::unique_ptr<Operator> dividend,
                       std::unique_ptr<Operator> divisor,
                       std::vector<size_t> match_attrs,
                       std::vector<size_t> quotient_attrs,
                       const DivisionOptions& options = {});

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Status NextBatch(TupleBatch* batch, bool* has_more) override;
  Status Close() override;

  /// Divisor cardinality, quotient candidates and buckets (their ratio is
  /// the load factor the query ran at), table memory, bit-map fill ratio,
  /// and (with early output) eager emissions. Live only while the
  /// core exists, i.e. between Open() and Close().
  void ExportGauges(GaugeList* gauges) const override;

 private:
  /// The DivisionOptions::parallel_fragments path: divisor table built once,
  /// dividend hash-repartitioned on the quotient attributes, fragments
  /// divided concurrently with private quotient tables, results concatenated
  /// in fragment order (deterministic output for any worker count).
  Status OpenParallel();

  ExecContext* ctx_;
  std::unique_ptr<Operator> dividend_;
  std::unique_ptr<Operator> divisor_;
  std::vector<size_t> match_attrs_;
  std::vector<size_t> quotient_attrs_;
  DivisionOptions options_;
  Schema schema_;

  std::unique_ptr<HashDivisionCore> core_;
  std::vector<Tuple> results_;  ///< stop-and-go output / early-output buffer
  TupleBatch input_batch_{1};   ///< dividend pull buffer, pool-charged
  size_t emit_pos_ = 0;
  bool dividend_done_ = true;  ///< false while early output holds it open
};

}  // namespace reldiv

#endif  // RELDIV_DIVISION_HASH_DIVISION_H_
