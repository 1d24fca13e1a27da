#include "division/hash_division.h"

#include <algorithm>
#include <functional>

#include "common/bitmap.h"
#include "common/check.h"
#include "common/metric_names.h"
#include "exec/kernels/kernels.h"

namespace reldiv {

HashDivisionCore::HashDivisionCore(ExecContext* ctx,
                                   std::vector<size_t> match_attrs,
                                   std::vector<size_t> quotient_attrs,
                                   const DivisionOptions& options)
    : ctx_(ctx),
      match_attrs_(std::move(match_attrs)),
      quotient_attrs_(std::move(quotient_attrs)),
      options_(options),
      divisor_arena_(ctx->pool()) {}

Status HashDivisionCore::BuildDivisorTable(Operator* divisor,
                                           uint64_t expected_cardinality) {
  const uint64_t hint = expected_cardinality != 0
                            ? expected_cardinality
                            : options_.expected_divisor_cardinality;
  // Key = all divisor columns.
  std::vector<Tuple> pending;  // buffered only when no hint sizes the table
  std::vector<size_t> all_cols;
  bool table_ready = false;
  auto make_table = [&](uint64_t cardinality, size_t arity) {
    all_cols.resize(arity);
    for (size_t i = 0; i < arity; ++i) all_cols[i] = i;
    divisor_table_ = std::make_unique<TupleHashTable>(
        ctx_, &divisor_arena_, all_cols,
        TupleHashTable::BucketsFor(cardinality == 0 ? 16 : cardinality));
    table_ready = true;
  };
  divisor_count_ = 0;

  auto insert = [&](const Tuple& tuple) -> Status {
    bool inserted = false;
    RELDIV_ASSIGN_OR_RETURN(TupleHashTable::Entry * entry,
                            divisor_table_->FindOrInsert(tuple, &inserted));
    if (inserted) {
      // Assign the tuple's divisor number and count it (Figure 1, step 1);
      // a rejected duplicate gets no number (§3.3, point 5).
      entry->num = divisor_count_;
      divisor_count_++;
      RELDIV_RETURN_NOT_OK(CheckBudget("divisor table"));
    }
    return Status::OK();
  };

  // Without a hint the table is sized and filled in the finish step, while
  // the divisor is still open: its reservations then come before anything
  // the divisor's Close() releases, wherever the divisor comes from.
  RELDIV_RETURN_NOT_OK(Drain(
      divisor, ctx_->batch_capacity(), ctx_,
      [&](TupleBatch& batch) -> Status {
        for (Tuple& tuple : batch) {
          if (!table_ready) {
            if (hint != 0) {
              make_table(hint, tuple.size());
            } else {
              pending.push_back(std::move(tuple));
              continue;
            }
          }
          RELDIV_RETURN_NOT_OK(insert(tuple));
        }
        return Status::OK();
      },
      [&]() -> Status {
        if (table_ready) return Status::OK();
        make_table(pending.size(),
                   pending.empty() ? 1 : pending.front().size());
        for (const Tuple& tuple : pending) {
          RELDIV_RETURN_NOT_OK(insert(tuple));
        }
        return Status::OK();
      }));
  // Dense divisor numbering (Figure 1, step 1): every distinct divisor tuple
  // received exactly one number in [0, divisor_count_), so the table size
  // and the counter must agree — the quotient bit maps are sized from it.
  RELDIV_CHECK_EQ(divisor_count_, divisor_table_->size())
      << "divisor numbering is not dense";
  divisor_view_ = divisor_table_.get();
  return Status::OK();
}

void HashDivisionCore::BorrowDivisorTable(const HashDivisionCore& owner) {
  RELDIV_CHECK(owner.divisor_view_ != nullptr)
      << "borrowing from a core whose divisor table was never built";
  divisor_view_ = owner.divisor_view_;
  divisor_count_ = owner.divisor_count_;
  borrowed_divisor_bytes_ = owner.memory_bytes();
}

Status HashDivisionCore::CheckBudget(const char* stage) const {
  const size_t budget = ctx_->hash_memory_bytes();
  if (budget != 0 && memory_bytes() > budget) {
    return Status::ResourceExhausted(
        std::string("hash-division ") + stage + ": table memory " +
        std::to_string(memory_bytes()) +
        " bytes exceeds the hash_memory_bytes budget of " +
        std::to_string(budget));
  }
  return Status::OK();
}

Status HashDivisionCore::BuildDivisorTableFromNumbered(
    const std::vector<std::pair<Tuple, uint64_t>>& numbered,
    uint64_t divisor_count) {
  std::vector<size_t> all_cols;
  if (!numbered.empty()) {
    all_cols.resize(numbered.front().first.size());
    for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
  }
  divisor_table_ = std::make_unique<TupleHashTable>(
      ctx_, &divisor_arena_, all_cols,
      TupleHashTable::BucketsFor(numbered.empty() ? 16 : numbered.size()));
  for (const auto& [tuple, number] : numbered) {
    // The caller supplies the numbering, but density still binds it: every
    // number must index into bit maps of `divisor_count` bits.
    RELDIV_CHECK_LT(number, divisor_count)
        << "divisor number beyond the declared cardinality";
    RELDIV_ASSIGN_OR_RETURN(TupleHashTable::Entry * entry,
                            divisor_table_->Insert(tuple));
    entry->num = number;
  }
  divisor_count_ = divisor_count;
  divisor_view_ = divisor_table_.get();
  return CheckBudget("divisor table (pre-numbered)");
}

Status HashDivisionCore::ResetQuotientTable(uint64_t expected_cardinality) {
  quotient_arena_ = std::make_unique<Arena>(ctx_->pool());
  const uint64_t hint = expected_cardinality != 0
                            ? expected_cardinality
                            : options_.expected_quotient_cardinality;
  std::vector<size_t> stored_keys(quotient_attrs_.size());
  for (size_t i = 0; i < stored_keys.size(); ++i) stored_keys[i] = i;
  quotient_table_ = std::make_unique<TupleHashTable>(
      ctx_, quotient_arena_.get(), std::move(stored_keys),
      TupleHashTable::BucketsFor(hint == 0 ? 1024 : hint));
  quotient_table_->set_growable(hint == 0);
  return Status::OK();
}

Status HashDivisionCore::ExtendCandidate(TupleHashTable::Entry* quotient_entry,
                                         bool inserted,
                                         uint64_t divisor_number,
                                         std::vector<Tuple>* early_out,
                                         PendingCounts* pending) {
  if (inserted) {
    // Create and clear the candidate's bit map (a word at a time).
    const size_t words = Bitmap::WordsForBits(divisor_count_);
    auto* storage = static_cast<uint64_t*>(
        quotient_arena_->Allocate(words * sizeof(uint64_t)));
    if (storage == nullptr) {
      return Status::ResourceExhausted(
          "hash-division: quotient bit map allocation failed");
    }
    quotient_entry->extra = storage;
    Bitmap::MapOnto(storage, divisor_count_).ClearAll();
    pending->bit_ops += words;
    quotient_entry->num = 0;  // early-output counter (§3.3)
    RELDIV_RETURN_NOT_OK(CheckBudget("quotient table"));
  }
  // The bit map is exactly divisor_count_ bits wide, so a dense divisor
  // number is also a valid bit index (§3.3, points 1 and 4).
  RELDIV_DCHECK_LT(divisor_number, divisor_count_)
      << "divisor number beyond the quotient bit map width";
  Bitmap bitmap = Bitmap::MapOnto(quotient_entry->extra, divisor_count_);
  pending->bit_ops += 1;
  const bool was_clear = bitmap.Set(divisor_number);
  if (was_clear) bits_set_++;
  if (options_.early_output && was_clear) {
    quotient_entry->num++;
    // The counter counts distinct bits, so it can never pass the divisor
    // cardinality — equality is the early-output trigger (§3.3, point 2).
    RELDIV_DCHECK_LE(quotient_entry->num, divisor_count_)
        << "early-output counter overran the divisor cardinality";
    pending->comparisons += 1;
    if (quotient_entry->num == divisor_count_ && early_out != nullptr) {
      early_out->push_back(quotient_table_->Decode(quotient_entry));
      early_emits_++;
    }
  }
  return Status::OK();
}

void HashDivisionCore::FlushCounts(const PendingCounts& pending) {
  if (pending.bit_ops != 0) ctx_->CountBitOps(pending.bit_ops);
  if (pending.comparisons != 0) ctx_->CountComparisons(pending.comparisons);
}

Status HashDivisionCore::BeginBatch() {
  if (divisor_view_ == nullptr || quotient_table_ == nullptr) {
    return Status::Internal("hash-division tables not initialized");
  }
  // Cooperative cancellation checkpoint: one flag load per batch keeps a
  // long dividend consumption responsive to DivisionService::Cancel without
  // touching the per-tuple hot loop.
  return ctx_->CheckCancelled();
}

// The vectorized step-2 loop, staged across the batch. Pass 1 probes the
// (small, cache-resident) divisor table and computes + counts the quotient
// key hash for every match, issuing a bucket prefetch; pass 2 prefetches
// the chain heads; pass 3 walks the chains and extends the bit maps, in
// batch order, against the live table. The counted work per tuple is the
// same at every batch size (capacity 1 is the paper's tuple-at-a-time loop)
// — pass order only overlaps the memory stalls of independent probes. (On
// an error mid-batch the interleaving of counted work differs between batch
// sizes, but the whole query fails then.)
Status HashDivisionCore::ConsumeBatch(const TupleBatch& batch,
                                      std::vector<Tuple>* early_out) {
  // The paper's workload shape (single int64 divisor attribute, single int64
  // quotient attribute) takes the int64 probe. Eligibility is decided by
  // UNCOUNTED column extraction before anything is charged, so an
  // ineligible batch falls through to the generic loop with untouched
  // counters.
  if (match_attrs_.size() == 1 && quotient_attrs_.size() == 1 &&
      kernels::ExtractInt64Column(batch, match_attrs_[0], &match_keys_) &&
      kernels::ExtractInt64Column(batch, quotient_attrs_[0], &quotient_col_)) {
    return ConsumeInt64Keys(match_keys_.data(), quotient_col_.data(),
                            batch.size(), early_out);
  }
  RELDIV_RETURN_NOT_OK(BeginBatch());
  staged_.clear();
  for (const Tuple& dividend : batch) {
    TupleHashTable::Entry* divisor_entry =
        divisor_view_->FindCounted(ctx_, dividend, match_attrs_);
    if (divisor_entry == nullptr) {
      continue;  // immediate discard — no matching divisor tuple
    }
    const uint64_t quotient_hash =
        quotient_table_->ProbeHash(dividend, quotient_attrs_);
    quotient_table_->PrefetchBucket(quotient_hash);
    staged_.push_back({&dividend, divisor_entry->num, quotient_hash});
  }
  return ExtendStaged(/*int64_keys=*/false, early_out);
}

Status HashDivisionCore::ConsumeInt64Keys(const int64_t* match,
                                          const int64_t* quotient, size_t n,
                                          std::vector<Tuple>* early_out) {
  RELDIV_RETURN_NOT_OK(BeginBatch());
  // All probe hashes come from one batched kernel call. The kernel hash
  // equals Tuple::HashAt bit for bit (kernels.h pins this), and the batched
  // CountHashes charges — one per divisor probe, one per matched tuple's
  // quotient probe — total exactly what the generic loop charges per tuple.
  // Both probes then decide on the keys' codes (kernels::Int64KeyCode), so
  // no chain walk reads a stored or a dividend tuple.
  staged_.clear();
  match_hashes_.resize(n);
  kernels::HashInt64Keys(match, n, match_hashes_.data());
  if (n != 0) ctx_->CountHashes(n);
  quotient_keys_matched_.clear();
  for (size_t i = 0; i < n; ++i) {
    TupleHashTable::Entry* divisor_entry =
        divisor_view_->FindInt64Counted(ctx_, match[i], match_hashes_[i]);
    if (divisor_entry != nullptr) {
      staged_.push_back({nullptr, divisor_entry->num, 0});
      quotient_keys_matched_.push_back(quotient[i]);
    }
  }
  const size_t matched = staged_.size();
  quotient_hashes_.resize(matched);
  kernels::HashInt64Keys(quotient_keys_matched_.data(), matched,
                         quotient_hashes_.data());
  if (matched != 0) ctx_->CountHashes(matched);
  for (size_t j = 0; j < matched; ++j) {
    staged_[j].quotient_hash = quotient_hashes_[j];
    quotient_table_->PrefetchBucket(quotient_hashes_[j]);
  }
  return ExtendStaged(/*int64_keys=*/true, early_out);
}

Status HashDivisionCore::ExtendStaged(bool int64_keys,
                                      std::vector<Tuple>* early_out) {
  for (const StagedProbe& staged : staged_) {
    TupleHashTable::Prefetch(quotient_table_->BucketHead(staged.quotient_hash));
  }
  PendingCounts pending;
  for (size_t j = 0; j < staged_.size(); ++j) {
    // Probe / extend the quotient table on the quotient attributes; the
    // candidate is stored only when the probe misses, and the int64 path
    // decides on the key's code without reading a tuple.
    const StagedProbe& staged = staged_[j];
    bool inserted = false;
    Result<TupleHashTable::Entry*> candidate =
        int64_keys
            ? quotient_table_->FindOrInsertInt64(quotient_keys_matched_[j],
                                                 staged.quotient_hash,
                                                 &inserted)
            : quotient_table_->FindOrInsertPrehashed(
                  *staged.dividend, quotient_attrs_, staged.quotient_hash,
                  &inserted);
    Status status = candidate.ok()
                        ? ExtendCandidate(candidate.value(), inserted,
                                          staged.divisor_number, early_out,
                                          &pending)
                        : candidate.status();
    if (!status.ok()) {
      FlushCounts(pending);
      return status;
    }
  }
  FlushCounts(pending);
  return Status::OK();
}

Status HashDivisionCore::EmitComplete(std::vector<Tuple>* out) {
  if (options_.early_output) return Status::OK();
  if (quotient_table_ == nullptr) return Status::OK();
  // Figure 1, step 3: scan all buckets for bit maps with no zero bit. The
  // counter bumps for the whole scan are flushed as one batch.
  PendingCounts pending;
  quotient_table_->ForEach([&](TupleHashTable::Entry* entry) {
    pending.bit_ops += Bitmap::WordsForBits(divisor_count_);
    if (Bitmap::MapOnto(entry->extra, divisor_count_).AllSet()) {
      out->push_back(quotient_table_->Decode(entry));
    }
    return true;
  });
  FlushCounts(pending);
  return Status::OK();
}

Status HashDivisionCore::DivideCluster(Operator* input,
                                       uint64_t expected_cardinality,
                                       std::vector<Tuple>* out) {
  RELDIV_RETURN_NOT_OK(ResetQuotientTable(expected_cardinality));
  Status status = Drain(
      input, ctx_->batch_capacity(), ctx_,
      [&](TupleBatch& batch) { return ConsumeBatch(batch, out); });
  if (status.ok()) return EmitComplete(out);
  quotient_table_.reset();  // a split that follows needs the memory
  quotient_arena_.reset();
  return status;
}

HashDivisionOperator::HashDivisionOperator(
    ExecContext* ctx, std::unique_ptr<Operator> dividend,
    std::unique_ptr<Operator> divisor, std::vector<size_t> match_attrs,
    std::vector<size_t> quotient_attrs, const DivisionOptions& options)
    : ctx_(ctx),
      dividend_(std::move(dividend)),
      divisor_(std::move(divisor)),
      match_attrs_(match_attrs),
      quotient_attrs_(quotient_attrs),
      options_(options),
      schema_(dividend_->output_schema().Project(quotient_attrs_)) {}

Status HashDivisionOperator::Open() {
  results_.clear();
  emit_pos_ = 0;
  dividend_done_ = true;

  RELDIV_RETURN_NOT_OK(
      ValidateDivisionOptions(DivisionAlgorithm::kHashDivision, options_));
  if (options_.parallel_fragments > 0) return OpenParallel();

  // A fresh core per Open: plans are re-openable and Close() releases the
  // previous run's table memory.
  core_ = std::make_unique<HashDivisionCore>(ctx_, match_attrs_,
                                             quotient_attrs_, options_);
  RELDIV_RETURN_NOT_OK(core_->BuildDivisorTable(divisor_.get()));
  RELDIV_RETURN_NOT_OK(core_->ResetQuotientTable());

  if (!options_.early_output) {
    // Stop-and-go: consume the dividend now, a batch at a time; step 3
    // happens lazily in NextBatch().
    RELDIV_RETURN_NOT_OK(Drain(dividend_.get(), &input_batch_, ctx_,
                               [&](TupleBatch& batch) {
                                 return core_->ConsumeBatch(batch, nullptr);
                               }));
    return core_->EmitComplete(&results_);
  }
  RELDIV_RETURN_NOT_OK(dividend_->Open());
  dividend_done_ = false;
  if (input_batch_.capacity() != ctx_->batch_capacity()) {
    input_batch_.ResetCapacity(ctx_->batch_capacity(), ctx_->pool());
  }
  return Status::OK();
}

namespace {

/// Runs step 2 of fragment `fragment` into `core`, whose quotient table is
/// ready, charging `fragment_ctx`.
using FragmentFeed = std::function<Status(
    size_t fragment, ExecContext* fragment_ctx, HashDivisionCore* core)>;

/// The fragment body of both RunDivisionFragments entry points: fragment f
/// holds rows[f] rows, which `feed` hands to a private core.
Status DivideFragments(ExecContext* ctx,
                       const std::vector<size_t>& match_attrs,
                       const std::vector<size_t>& quotient_attrs,
                       const DivisionOptions& options,
                       const HashDivisionCore& shared_core,
                       const std::vector<size_t>& rows,
                       const FragmentFeed& feed,
                       std::vector<Tuple>* results) {
  const size_t fragments = rows.size();
  // Fragment decomposition fixed by the repartitioning, independent of
  // worker count; only the assignment of fragments to scheduler lanes varies
  // with dop. Each fragment charges a private context, merged in fragment
  // order, so counter totals are reproducible at any thread count.
  std::vector<std::vector<Tuple>> outs(fragments);
  RELDIV_RETURN_NOT_OK(RunFragments(
      ctx, fragments, [&](size_t f, ExecContext* fctx) -> Status {
        HashDivisionCore fragment_core(fctx, match_attrs, quotient_attrs,
                                       options);
        fragment_core.BorrowDivisorTable(shared_core);
        // Size the fragment's quotient table from its own row count, not
        // the unhinted default that grows with the candidates: the fragment
        // index is hash % F and the bucket index hash % B, so with a
        // power-of-two B a fragment's candidates reach only B/F buckets,
        // and a table grown to 2 candidates per bucket would still run
        // F-fold longer chains.
        uint64_t hint = rows[f];
        if (options.expected_quotient_cardinality != 0) {
          hint = std::min<uint64_t>(hint,
                                    options.expected_quotient_cardinality);
        }
        RELDIV_RETURN_NOT_OK(
            fragment_core.ResetQuotientTable(hint == 0 ? 1 : hint));
        RELDIV_RETURN_NOT_OK(feed(f, fctx, &fragment_core));
        return fragment_core.EmitComplete(&outs[f]);
      }));

  size_t total = 0;
  for (const std::vector<Tuple>& out : outs) total += out.size();
  results->reserve(results->size() + total);
  for (std::vector<Tuple>& out : outs) {
    for (Tuple& tuple : out) results->push_back(std::move(tuple));
  }
  return Status::OK();
}

}  // namespace

Status RunDivisionFragments(ExecContext* ctx,
                            const std::vector<size_t>& match_attrs,
                            const std::vector<size_t>& quotient_attrs,
                            const DivisionOptions& options,
                            const HashDivisionCore& shared_core,
                            const RowCodec& codec,
                            const std::vector<EncodedPartition>& partitions,
                            std::vector<Tuple>* results) {
  std::vector<size_t> rows;
  for (const EncodedPartition& partition : partitions) {
    rows.push_back(partition.rows());
  }
  // Fixed-width rows with one int64 match and one int64 quotient column are
  // the batches ConsumeBatch would send to ConsumeInt64Keys: gather the two
  // key columns from the pages instead, and build no tuple.
  const bool int64_keys = codec.fixed_row_bytes() != 0 &&
                          match_attrs.size() == 1 &&
                          quotient_attrs.size() == 1;
  return DivideFragments(
      ctx, match_attrs, quotient_attrs, options, shared_core, rows,
      [&](size_t f, ExecContext* fctx, HashDivisionCore* core) -> Status {
        const EncodedPartition& partition = partitions[f];
        // The scratch below is not charged to the pool, like the drain's
        // batch: up to dop concurrent fragments would otherwise take a
        // share of a small pool that depends on the schedule, and the
        // tables could overflow at one dop but not at another.
        const size_t capacity = fctx->batch_capacity();
        if (int64_keys) {
          std::vector<int64_t> match(capacity);
          std::vector<int64_t> quotient(capacity);
          for (size_t begin = 0; begin < partition.rows(); begin += capacity) {
            const size_t n = std::min(capacity, partition.rows() - begin);
            partition.GatherInt64Column(match_attrs[0], begin, n,
                                        match.data());
            partition.GatherInt64Column(quotient_attrs[0], begin, n,
                                        quotient.data());
            RELDIV_RETURN_NOT_OK(core->ConsumeInt64Keys(
                match.data(), quotient.data(), n, nullptr));
          }
          return Status::OK();
        }
        TupleBatch batch(capacity);
        for (size_t begin = 0; begin < partition.rows();
             begin += batch.size()) {
          RELDIV_RETURN_NOT_OK(DecodeRows(codec, partition, begin, &batch));
          RELDIV_RETURN_NOT_OK(core->ConsumeBatch(batch, nullptr));
        }
        return Status::OK();
      },
      results);
}

Status RunDivisionFragments(ExecContext* ctx,
                            const std::vector<size_t>& match_attrs,
                            const std::vector<size_t>& quotient_attrs,
                            const DivisionOptions& options,
                            const HashDivisionCore& shared_core,
                            const std::vector<std::vector<Tuple>>& buckets,
                            std::vector<Tuple>* results) {
  std::vector<size_t> rows;
  for (const std::vector<Tuple>& bucket : buckets) rows.push_back(bucket.size());
  return DivideFragments(
      ctx, match_attrs, quotient_attrs, options, shared_core, rows,
      [&](size_t f, ExecContext* fctx, HashDivisionCore* core) -> Status {
        // Copied by row index: the tuple-bucket adapter has no operator to
        // pull (ROADMAP item 1 retires it with its benchmark).
        TupleBatch batch(fctx->batch_capacity());
        for (size_t begin = 0; begin < rows[f]; begin += batch.size()) {
          batch.Clear();
          const size_t end = std::min(rows[f], begin + batch.capacity());
          for (size_t i = begin; i < end; ++i) {
            *batch.AddSlotForOverwrite() = buckets[f][i];
          }
          RELDIV_RETURN_NOT_OK(core->ConsumeBatch(batch, nullptr));
        }
        return Status::OK();
      },
      results);
}

Status HashDivisionOperator::OpenParallel() {
  // §6 quotient partitioning applied in-process: the divisor table is built
  // ONCE on the query context and shared read-only; the dividend is hash-
  // partitioned on the quotient attributes, so all tuples of one quotient
  // candidate land in the same fragment and fragments never coordinate.
  core_ = std::make_unique<HashDivisionCore>(ctx_, match_attrs_,
                                             quotient_attrs_, options_);
  RELDIV_RETURN_NOT_OK(core_->BuildDivisorTable(divisor_.get()));

  // The drain stays on this thread: one scanning thread keeps the SimDisk
  // transfer order, and with it the seek count, deterministic.
  const RowCodec codec(dividend_->output_schema());
  RELDIV_ASSIGN_OR_RETURN(
      std::vector<EncodedPartition> partitions,
      DrainAndEncodeRepartition(ctx_, dividend_.get(), codec, quotient_attrs_,
                                options_.parallel_fragments));
  return RunDivisionFragments(ctx_, match_attrs_, quotient_attrs_, options_,
                              *core_, codec, partitions, &results_);
}

Status HashDivisionOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  batch->Clear();
  // NOLINTNEXTLINE(reldiv/hand-drain): early output pulls only as consumed.
  while (true) {
    while (!batch->full() && emit_pos_ < results_.size()) {
      batch->PushBack(std::move(results_[emit_pos_++]));
    }
    if (batch->full() && (emit_pos_ < results_.size() || !dividend_done_)) {
      // A full batch with input pending may be followed by an empty final
      // one — the contract allows that.
      *has_more = true;
      return Status::OK();
    }
    if (dividend_done_) {
      *has_more = false;
      return Status::OK();
    }
    // Early-output mode: consume dividend batches until some candidate
    // completes or the input ends.
    results_.clear();
    emit_pos_ = 0;
    bool input_more = false;
    RELDIV_RETURN_NOT_OK(dividend_->NextBatch(&input_batch_, &input_more));
    RELDIV_RETURN_NOT_OK(core_->ConsumeBatch(input_batch_, &results_));
    if (!input_more) {
      RELDIV_RETURN_NOT_OK(dividend_->Close());
      dividend_done_ = true;
    }
  }
}

void HashDivisionOperator::ExportGauges(GaugeList* gauges) const {
  if (core_ == nullptr) return;
  const double divisor = static_cast<double>(core_->divisor_count());
  const double candidates = static_cast<double>(core_->quotient_candidates());
  gauges->emplace_back(metric_names::kGaugeDivisorCount, divisor);
  gauges->emplace_back(metric_names::kGaugeQuotientCandidates, candidates);
  gauges->emplace_back(metric_names::kGaugeQuotientBuckets,
                       static_cast<double>(core_->quotient_buckets()));
  gauges->emplace_back(metric_names::kGaugeHashMemoryBytes,
                       static_cast<double>(core_->memory_bytes()));
  const double cells = divisor * candidates;
  gauges->emplace_back(
      metric_names::kGaugeBitmapFillRatio,
      cells == 0 ? 0.0 : static_cast<double>(core_->bits_set()) / cells);
  if (options_.early_output) {
    gauges->emplace_back(metric_names::kGaugeEarlyOutputHits,
                         static_cast<double>(core_->early_emits()));
  }
  if (options_.parallel_fragments > 0) {
    // Fragment-local quotient tables are gone by now; the shared divisor
    // table and the fragment count are what remain observable.
    gauges->emplace_back(metric_names::kGaugeParallelFragments,
                         static_cast<double>(options_.parallel_fragments));
  }
}

Status HashDivisionOperator::Close() {
  Status status;
  if (!dividend_done_) {
    // Early-output consumer stopped before the stream ended.
    status = dividend_->Close();
    dividend_done_ = true;
  }
  core_.reset();
  results_.clear();
  return status;
}

}  // namespace reldiv
