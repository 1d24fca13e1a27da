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
  init_status_ = BuildSchema();
}

Status HashAggregateOperator::BuildSchema() {
  std::vector<Field> fields;
  for (size_t idx : group_indices_) {
    fields.push_back(child_->output_schema().field(idx));
  }
  RELDIV_ASSIGN_OR_RETURN(std::vector<Field> agg_fields,
                          AggOutputFields(child_->output_schema(), aggs_));
  for (Field& f : agg_fields) fields.push_back(std::move(f));
  schema_ = Schema(std::move(fields));
  return Status::OK();
}

Status HashAggregateOperator::Open() {
  RELDIV_RETURN_NOT_OK(init_status_);
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
  group_order_.clear();
  emit_pos_ = 0;

  RELDIV_RETURN_NOT_OK(child_->Open());
  if (input_batch_.capacity() != ctx_->batch_capacity()) {
    input_batch_.ResetCapacity(ctx_->batch_capacity(), ctx_->pool());
  }
  // Batched, staged build: all probe hashes of a batch first (each counted
  // exactly as FindOrInsert's hash), bucket and chain-head prefetches next,
  // chain walks last. Hash values and Comp counts per tuple are identical to
  // the tuple-at-a-time FindOrInsert — the probe columns equal the stored
  // group key — so bucket order (the output order) is unchanged. The group
  // tuple is now materialized only on a miss.
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(child_->NextBatch(&input_batch_, &has_more));
    const size_t n = input_batch_.size();
    hashes_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      hashes_[i] = table_->ProbeHash(input_batch_.tuple(i), group_indices_);
      table_->PrefetchBucket(hashes_[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      TupleHashTable::Prefetch(table_->BucketHead(hashes_[i]));
    }
    for (size_t i = 0; i < n; ++i) {
      const Tuple& tuple = input_batch_.tuple(i);
      bool inserted = false;
      RELDIV_ASSIGN_OR_RETURN(
          TupleHashTable::Entry * entry,
          table_->FindOrInsertPrehashed(
              tuple, group_indices_, hashes_[i],
              [&] { return tuple.Project(group_indices_); }, &inserted));
      if (inserted) {
        entry->num = states_.size();
        states_.emplace_back(aggs_);
        group_order_.push_back(entry->tuple);
      }
      states_[entry->num].Update(aggs_, tuple);
    }
  }
  RELDIV_RETURN_NOT_OK(child_->Close());

  // Freeze emit order as (group tuple, state) pairs in bucket order.
  emit_entries_.clear();
  table_->ForEach([this](TupleHashTable::Entry* entry) {
    emit_entries_.emplace_back(entry->tuple, entry->num);
    return true;
  });
  return Status::OK();
}

Status HashAggregateOperator::Step(Tuple* tuple, bool* has_next) {
  if (emit_pos_ >= emit_entries_.size()) {
    *has_next = false;
    return Status::OK();
  }
  const auto& [group, state_index] = emit_entries_[emit_pos_++];
  *tuple = *group;
  RELDIV_RETURN_NOT_OK(states_[state_index].Finish(aggs_, tuple));
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
