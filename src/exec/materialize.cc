#include "exec/materialize.h"

#include "exec/scan.h"
#include "storage/record_file.h"

namespace reldiv {

Result<uint64_t> Materialize(Operator* input, RecordStore* store,
                             size_t batch_capacity) {
  RowCodec codec(input->output_schema());
  uint64_t written = 0;
  RELDIV_RETURN_NOT_OK(input->Open());
  TupleBatch batch(batch_capacity);
  std::string buffer;
  bool has_more = true;
  while (has_more) {
    RELDIV_RETURN_NOT_OK(input->NextBatch(&batch, &has_more));
    for (const Tuple& tuple : batch) {
      buffer.clear();
      RELDIV_RETURN_NOT_OK(codec.Encode(tuple, &buffer));
      RELDIV_ASSIGN_OR_RETURN(Rid rid, store->Append(Slice(buffer)));
      (void)rid;
      written++;
    }
  }
  RELDIV_RETURN_NOT_OK(input->Close());
  return written;
}

Result<std::vector<Tuple>> ReadAll(ExecContext* ctx,
                                   const Relation& relation) {
  ScanOperator scan(ctx, relation);
  return CollectAll(&scan, ctx->batch_capacity());
}

Status AppendAll(const Relation& relation, const std::vector<Tuple>& tuples) {
  RowCodec codec(relation.schema);
  std::string buffer;
  for (const Tuple& tuple : tuples) {
    buffer.clear();
    RELDIV_RETURN_NOT_OK(codec.Encode(tuple, &buffer));
    RELDIV_ASSIGN_OR_RETURN(Rid rid, relation.store->Append(Slice(buffer)));
    (void)rid;
  }
  return Status::OK();
}

SpoolOperator::SpoolOperator(ExecContext* ctx,
                             std::unique_ptr<Operator> child)
    : ctx_(ctx), child_(std::move(child)) {}

SpoolOperator::~SpoolOperator() = default;

Status SpoolOperator::Open() {
  spool_ = std::make_unique<RecordFile>(ctx_->disk(), ctx_->buffer_manager(),
                                        "spool");
  RELDIV_ASSIGN_OR_RETURN(uint64_t written,
                          Materialize(child_.get(), spool_.get(),
                                      ctx_->batch_capacity()));
  (void)written;
  Relation spooled{child_->output_schema(), spool_.get()};
  reader_ = std::make_unique<ScanOperator>(ctx_, spooled);
  return reader_->Open();
}

Status SpoolOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  return reader_->NextBatch(batch, has_more);
}

Status SpoolOperator::Close() {
  Status status = reader_ == nullptr ? Status::OK() : reader_->Close();
  reader_.reset();
  spool_.reset();
  return status;
}

}  // namespace reldiv
