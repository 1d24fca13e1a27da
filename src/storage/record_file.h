#ifndef RELDIV_STORAGE_RECORD_FILE_H_
#define RELDIV_STORAGE_RECORD_FILE_H_

#include <memory>
#include <string>

#include "storage/buffer_manager.h"
#include "storage/extent_file.h"
#include "storage/page.h"
#include "storage/record_store.h"

namespace reldiv {

/// Record-oriented file over slotted pages in an extent file, accessed
/// through the buffer manager. Rids use file-local page numbers.
class RecordFile : public RecordStore {
 public:
  RecordFile(SimDisk* disk, BufferManager* buffer_manager, std::string name);

  Result<Rid> Append(Slice record) override;
  Result<std::unique_ptr<RecordScan>> OpenScan() override;
  uint64_t num_records() const override { return num_records_; }
  uint64_t num_pages() const override { return file_.num_pages(); }

  const std::string& name() const { return name_; }

  /// Tombstones the record (space not reclaimed; scans skip it). NotFound
  /// if it was already deleted.
  Status Delete(Rid rid);

  BufferManager* buffer_manager() const { return buffer_manager_; }
  const ExtentFile& extent_file() const { return file_; }

 private:
  class FileScan;

  std::string name_;
  BufferManager* buffer_manager_;
  ExtentFile file_;
  uint64_t num_records_ = 0;
  bool has_open_page_ = false;  ///< last page known non-full
};

}  // namespace reldiv

#endif  // RELDIV_STORAGE_RECORD_FILE_H_
