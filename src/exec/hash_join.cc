#include "exec/hash_join.h"

namespace reldiv {

namespace {

Schema ConcatSchemas(const Schema& a, const Schema& b) {
  std::vector<Field> fields = a.fields();
  for (const Field& f : b.fields()) fields.push_back(f);
  return Schema(std::move(fields));
}

}  // namespace

HashJoinOperator::HashJoinOperator(ExecContext* ctx,
                                   std::unique_ptr<Operator> probe,
                                   std::unique_ptr<Operator> build,
                                   std::vector<size_t> probe_keys,
                                   std::vector<size_t> build_keys,
                                   HashJoinMode mode,
                                   uint64_t expected_build_cardinality)
    : ctx_(ctx),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_input_(probe_.get()),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      mode_(mode),
      expected_build_cardinality_(expected_build_cardinality),
      schema_(mode == HashJoinMode::kInner
                  ? ConcatSchemas(probe_->output_schema(),
                                  build_->output_schema())
                  : probe_->output_schema()) {}

Status HashJoinOperator::Open() {
  arena_ = std::make_unique<Arena>(ctx_->pool());
  const size_t buckets =
      expected_build_cardinality_ == 0
          ? 1024
          : TupleHashTable::BucketsFor(expected_build_cardinality_);
  table_ = std::make_unique<TupleHashTable>(ctx_, arena_.get(), build_keys_,
                                            buckets);
  RELDIV_RETURN_NOT_OK(Drain(
      build_.get(), ctx_->batch_capacity(), ctx_,
      [&](TupleBatch& batch) -> Status {
        for (const Tuple& tuple : batch) {
          RELDIV_ASSIGN_OR_RETURN(TupleHashTable::Entry * entry,
                                  table_->Insert(tuple));
          (void)entry;
        }
        return Status::OK();
      }));
  RELDIV_RETURN_NOT_OK(probe_->Open());
  probe_open_ = true;
  probe_input_.Reset(ctx_->batch_capacity());
  match_cursor_ = nullptr;
  return Status::OK();
}

Status HashJoinOperator::Step(Tuple* tuple, bool* has_next) {
  while (true) {
    if (mode_ == HashJoinMode::kInner && match_cursor_ != nullptr) {
      // Continue fanning out matches for the current probe tuple, by the
      // table's own equality rule.
      const TupleHashTable::Entry* e = match_cursor_;
      match_cursor_ =
          table_->NextMatch(ctx_, match_cursor_, current_probe_, probe_keys_);
      const Tuple build = table_->Decode(e);
      std::vector<Value> values = current_probe_.values();
      values.insert(values.end(), build.values().begin(),
                    build.values().end());
      *tuple = Tuple(std::move(values));
      *has_next = true;
      return Status::OK();
    }

    bool has = false;
    RELDIV_RETURN_NOT_OK(probe_input_.Pull(&current_probe_, &has));
    if (!has) {
      *has_next = false;
      return Status::OK();
    }
    TupleHashTable::Entry* entry = table_->Find(current_probe_, probe_keys_);
    if (mode_ == HashJoinMode::kLeftAnti) {
      // Inverse of the semi-join: emit exactly the probe tuples without a
      // build match.
      if (entry != nullptr) continue;
      *tuple = std::move(current_probe_);
      *has_next = true;
      return Status::OK();
    }
    if (entry == nullptr) continue;
    if (mode_ == HashJoinMode::kLeftSemi) {
      *tuple = std::move(current_probe_);
      *has_next = true;
      return Status::OK();
    }
    match_cursor_ = entry;
  }
}

Status HashJoinOperator::Close() {
  table_.reset();
  arena_.reset();
  // The build side's drain closed it; a failed Open() never opened the
  // probe side.
  if (!probe_open_) return Status::OK();
  probe_open_ = false;
  return probe_->Close();
}

}  // namespace reldiv
