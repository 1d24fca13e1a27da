#include "exec/hash_aggregate.h"

namespace reldiv {

HashAggregateOperator::HashAggregateOperator(
    ExecContext* ctx, std::unique_ptr<Operator> child,
    std::vector<size_t> group_indices, std::vector<AggSpec> aggs,
    uint64_t expected_groups)
    : ctx_(ctx),
      child_(std::move(child)),
      group_indices_(std::move(group_indices)),
      aggs_(std::move(aggs)),
      expected_groups_(expected_groups) {
  std::vector<Field> fields;
  for (size_t idx : group_indices_) {
    fields.push_back(child_->output_schema().field(idx));
  }
  for (Field& f : AggOutputFields(aggs_)) fields.push_back(std::move(f));
  schema_ = Schema(std::move(fields));
}

Status HashAggregateOperator::Open() {
  arena_ = std::make_unique<Arena>(ctx_->pool());
  // Stored tuples are the group columns, so keys are 0..n-1 on the stored
  // side.
  std::vector<size_t> stored_keys(group_indices_.size());
  for (size_t i = 0; i < stored_keys.size(); ++i) stored_keys[i] = i;
  const size_t buckets = expected_groups_ == 0
                             ? 1024
                             : TupleHashTable::BucketsFor(expected_groups_);
  table_ = std::make_unique<TupleHashTable>(ctx_, arena_.get(),
                                            std::move(stored_keys), buckets);
  table_->set_growable(expected_groups_ == 0);
  states_.clear();
  emit_pos_ = 0;

  // Batched, staged build: all probe hashes of a batch first (each counted
  // exactly as FindOrInsert's hash), bucket and chain-head prefetches next,
  // chain walks last. Hash values and Comp counts per tuple are identical to
  // the tuple-at-a-time FindOrInsert — the probe columns equal the stored
  // group key — so bucket order (the output order) is unchanged. A miss
  // stores the group columns straight from the input tuple.
  RELDIV_RETURN_NOT_OK(Drain(
      child_.get(), &input_batch_, ctx_, [&](TupleBatch& batch) -> Status {
        const size_t n = batch.size();
        hashes_.resize(n);
        for (size_t i = 0; i < n; ++i) {
          hashes_[i] = table_->ProbeHash(batch.tuple(i), group_indices_);
          table_->PrefetchBucket(hashes_[i]);
        }
        for (size_t i = 0; i < n; ++i) {
          TupleHashTable::Prefetch(table_->BucketHead(hashes_[i]));
        }
        for (size_t i = 0; i < n; ++i) {
          const Tuple& tuple = batch.tuple(i);
          bool inserted = false;
          RELDIV_ASSIGN_OR_RETURN(
              TupleHashTable::Entry * entry,
              table_->FindOrInsertPrehashed(tuple, group_indices_, hashes_[i],
                                            &inserted));
          if (inserted) {
            entry->num = states_.size();
            states_.emplace_back(aggs_);
          }
          states_[entry->num].Update(aggs_);
        }
        return Status::OK();
      }));

  // Freeze emit order: the group entries in bucket order.
  emit_entries_.clear();
  table_->ForEach([this](TupleHashTable::Entry* entry) {
    emit_entries_.push_back(entry);
    return true;
  });
  return Status::OK();
}

Status HashAggregateOperator::Step(Tuple* tuple, bool* has_next) {
  if (emit_pos_ >= emit_entries_.size()) {
    *has_next = false;
    return Status::OK();
  }
  const TupleHashTable::Entry* group = emit_entries_[emit_pos_++];
  *tuple = table_->Decode(group);
  states_[group->num].Finish(aggs_, tuple);
  *has_next = true;
  return Status::OK();
}

Status HashAggregateOperator::Close() {
  table_.reset();
  arena_.reset();
  states_.clear();
  emit_entries_.clear();
  return Status::OK();
}

}  // namespace reldiv
