#include "storage/record_file.h"

#include "testing/failpoint.h"

namespace reldiv {

RecordFile::RecordFile(SimDisk* disk, BufferManager* buffer_manager,
                       std::string name)
    : name_(std::move(name)), buffer_manager_(buffer_manager), file_(disk) {}

Result<Rid> RecordFile::Append(Slice record) {
  if (record.size() > SlottedPage::kMaxRecordSize) {
    return Status::InvalidArgument("record larger than a page in file '" +
                                   name_ + "'");
  }
  // Try the last page first.
  if (has_open_page_) {
    const uint64_t local = file_.num_pages() - 1;
    RELDIV_ASSIGN_OR_RETURN(uint64_t global, file_.GlobalPage(local));
    RELDIV_ASSIGN_OR_RETURN(char* frame,
                            buffer_manager_->Fix(global, /*create=*/false));
    SlottedPage page(frame);
    if (page.Fits(record.size())) {
      RELDIV_ASSIGN_OR_RETURN(uint16_t slot, page.AddRecord(record));
      RELDIV_RETURN_NOT_OK(buffer_manager_->Unfix(global, /*dirty=*/true));
      num_records_++;
      BumpVersion();
      return Rid{static_cast<uint32_t>(local), slot};
    }
    has_open_page_ = false;
    RELDIV_RETURN_NOT_OK(buffer_manager_->Unfix(global, /*dirty=*/false));
  }
  // Allocate a fresh page. ExtentFile::AllocatePage itself is infallible
  // (pure bookkeeping), so the extent-growth failpoint sits in front of it.
  RELDIV_FAILPOINT("extent_file/append");
  const uint64_t local = file_.AllocatePage();
  RELDIV_ASSIGN_OR_RETURN(uint64_t global, file_.GlobalPage(local));
  RELDIV_ASSIGN_OR_RETURN(char* frame,
                          buffer_manager_->Fix(global, /*create=*/true));
  SlottedPage page(frame);
  page.Init();
  RELDIV_ASSIGN_OR_RETURN(uint16_t slot, page.AddRecord(record));
  RELDIV_RETURN_NOT_OK(buffer_manager_->Unfix(global, /*dirty=*/true));
  has_open_page_ = true;
  num_records_++;
  BumpVersion();
  return Rid{static_cast<uint32_t>(local), slot};
}

Status RecordFile::Delete(Rid rid) {
  RELDIV_ASSIGN_OR_RETURN(uint64_t global, file_.GlobalPage(rid.page_no));
  RELDIV_ASSIGN_OR_RETURN(char* frame,
                          buffer_manager_->Fix(global, /*create=*/false));
  SlottedPage page(frame);
  if (!page.IsLive(rid.slot)) {
    Status unfix = buffer_manager_->Unfix(global, /*dirty=*/false);
    (void)unfix;
    return Status::NotFound("record " + rid.ToString() +
                            " already deleted or absent");
  }
  RELDIV_RETURN_NOT_OK(page.DeleteRecord(rid.slot));
  RELDIV_RETURN_NOT_OK(buffer_manager_->Unfix(global, /*dirty=*/true));
  num_records_--;
  BumpVersion();
  return Status::OK();
}

/// Sequential scan keeping the current page fixed between NextBatch() calls
/// so that returned payload slices stay valid (records used in place).
class RecordFile::FileScan : public RecordScan {
 public:
  explicit FileScan(RecordFile* file) : file_(file) {}

  ~FileScan() override {
    Status st = Close();
    (void)st;
  }

  // Page-native batch scan: delivers the current page's live records in one
  // tight loop, one virtual call per page. A call
  // never crosses a page boundary, and an exhausted page stays fixed until
  // the NEXT call so that the delivered payload slices remain valid.
  Status NextBatch(RecordRef* refs, size_t capacity, size_t* count,
                   bool* has_more) override {
    size_t n = 0;
    while (true) {
      if (page_fixed_) {
        SlottedPage page(frame_);
        const uint16_t slots = page.num_slots();
        if (next_slot_ >= slots) {
          RELDIV_RETURN_NOT_OK(
              file_->buffer_manager_->Unfix(global_page_, /*dirty=*/false));
          page_fixed_ = false;
        } else {
          while (n < capacity && next_slot_ < slots) {
            Slice payload;
            if (page.GetIfLive(next_slot_, &payload)) {
              refs[n].rid =
                  Rid{static_cast<uint32_t>(local_page_), next_slot_};
              refs[n].payload = payload;
              n++;
            }
            next_slot_++;
          }
          if (n > 0) {
            // Batch full or page drained; either way stop here (the page
            // stays fixed, keeping the slices alive).
            *count = n;
            *has_more = true;
            return Status::OK();
          }
          continue;
        }
      }
      if (next_page_ >= file_->file_.num_pages()) {
        *count = n;
        *has_more = false;
        return Status::OK();
      }
      RELDIV_ASSIGN_OR_RETURN(uint64_t global,
                              file_->file_.GlobalPage(next_page_));
      RELDIV_ASSIGN_OR_RETURN(
          frame_, file_->buffer_manager_->Fix(global, /*create=*/false));
      global_page_ = global;
      local_page_ = next_page_;
      next_page_++;
      next_slot_ = 0;
      page_fixed_ = true;
    }
  }

  Status Close() override {
    if (page_fixed_) {
      page_fixed_ = false;
      return file_->buffer_manager_->Unfix(global_page_, /*dirty=*/false);
    }
    return Status::OK();
  }

 private:
  RecordFile* file_;
  uint64_t next_page_ = 0;
  uint64_t local_page_ = 0;
  uint64_t global_page_ = 0;
  uint16_t next_slot_ = 0;
  char* frame_ = nullptr;
  bool page_fixed_ = false;
};

Result<std::unique_ptr<RecordScan>> RecordFile::OpenScan() {
  return std::unique_ptr<RecordScan>(std::make_unique<FileScan>(this));
}

}  // namespace reldiv
