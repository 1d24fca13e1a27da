#include "exec/scan.h"

namespace reldiv {

Status ScanOperator::Open() {
  if (relation_.store == nullptr) {
    return Status::InvalidArgument("scan of relation without a store");
  }
  RELDIV_ASSIGN_OR_RETURN(scan_, relation_.store->OpenScan());
  adapter_.Reset(ctx_->batch_capacity());
  return Status::OK();
}

Status ScanOperator::NextBatch(TupleBatch* batch, bool* has_more) {
  batch->Clear();
  if (refs_.size() < batch->capacity()) refs_.resize(batch->capacity());
  while (!batch->full()) {
    size_t count = 0;
    bool more = false;
    RELDIV_RETURN_NOT_OK(scan_->NextBatch(
        refs_.data(), batch->capacity() - batch->size(), &count, &more));
    for (size_t i = 0; i < count; ++i) {
      // Decode overwrites the whole slot, so the stale tuple need not be
      // cleared; its value buffers are reused in place.
      RELDIV_RETURN_NOT_OK(
          codec_.Decode(refs_[i].payload, batch->AddSlotForOverwrite()));
    }
    if (!more) {
      *has_more = false;
      return Status::OK();
    }
  }
  *has_more = true;
  return Status::OK();
}

Status ScanOperator::Close() {
  if (scan_ != nullptr) {
    RELDIV_RETURN_NOT_OK(scan_->Close());
    scan_.reset();
  }
  return Status::OK();
}

}  // namespace reldiv
