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
  RELDIV_RETURN_NOT_OK(build_->Open());
  build_open_ = true;
  TupleBatch batch(ctx_->batch_capacity());
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(build_->NextBatch(&batch, &has_more));
    for (Tuple& tuple : batch) {
      RELDIV_ASSIGN_OR_RETURN(TupleHashTable::Entry * entry,
                              table_->Insert(std::move(tuple)));
      (void)entry;
    }
  }
  build_open_ = false;
  RELDIV_RETURN_NOT_OK(build_->Close());
  RELDIV_RETURN_NOT_OK(probe_->Open());
  probe_open_ = true;
  probe_input_.Reset(ctx_->batch_capacity());
  match_cursor_ = nullptr;
  return Status::OK();
}

Status HashJoinOperator::Step(Tuple* tuple, bool* has_next) {
  while (true) {
    if (mode_ == HashJoinMode::kInner && match_cursor_ != nullptr) {
      // Continue fanning out matches for the current probe tuple.
      TupleHashTable::Entry* e = match_cursor_;
      match_cursor_ = match_cursor_->next;
      while (match_cursor_ != nullptr) {
        ctx_->CountComparisons(1);
        if (current_probe_.CompareProjected(probe_keys_,
                                            *match_cursor_->tuple,
                                            build_keys_) == 0) {
          break;
        }
        match_cursor_ = match_cursor_->next;
      }
      std::vector<Value> values = current_probe_.values();
      for (const Value& v : e->tuple->values()) values.push_back(v);
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
  // Close whatever Open() left open (a failed Open() may have the build
  // side mid-drain and the probe side never opened); first error wins.
  Status status;
  if (build_open_) {
    build_open_ = false;
    status = build_->Close();
  }
  if (probe_open_) {
    probe_open_ = false;
    Status probe_status = probe_->Close();
    if (status.ok()) status = probe_status;
  }
  return status;
}

}  // namespace reldiv
