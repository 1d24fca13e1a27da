#ifndef RELDIV_STORAGE_PAGE_H_
#define RELDIV_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/config.h"
#include "common/result.h"
#include "common/slice.h"

namespace reldiv {

/// View over one page frame interpreted as a slotted record page.
///
/// Layout (little-endian, offsets in bytes from the frame start):
///   [0..2)  uint16 slot count
///   [2..4)  uint16 free-space offset (start of unused region)
///   records grow upward from offset 4; the slot directory grows downward
///   from the end of the page, one 4-byte entry {uint16 offset, uint16 len}
///   per record.
///
/// The view does not own the frame; it is valid only while the frame stays
/// fixed in the buffer pool.
class SlottedPage {
 public:
  explicit SlottedPage(char* frame) : frame_(frame) {}

  /// Formats an empty page.
  void Init();

  // num_slots/GetIfLive are inline: a sequential scan calls both once per
  // record.
  uint16_t num_slots() const { return LoadU16(0); }

  /// Bytes available for one more record (including its slot entry).
  size_t FreeSpace() const;

  /// True if a record of `size` bytes fits.
  bool Fits(size_t size) const;

  /// Appends a record; returns its slot index or ResourceExhausted when the
  /// page is full.
  Result<uint16_t> AddRecord(Slice record);

  /// Tombstones the record in `slot` (space is not reclaimed; scans skip
  /// it). Idempotent.
  Status DeleteRecord(uint16_t slot);

  /// Single-pass accessor for sequential scans: reads the slot directory
  /// entry once, returning false for a tombstone and the payload otherwise.
  /// Precondition: `slot < num_slots()` (the scan loop already bounds it).
  bool GetIfLive(uint16_t slot, Slice* payload) const {
    RELDIV_DCHECK_LT(slot, num_slots()) << "slot beyond the page directory";
    const size_t dir_entry = kPageSize - (slot + 1) * kSlotEntrySize;
    const uint16_t offset = LoadU16(dir_entry);
    const uint16_t len = LoadU16(dir_entry + 2);
    if (len == kTombstoneLen) return false;
    RELDIV_DCHECK_LE(static_cast<size_t>(offset) + len, kPageSize)
        << "slot entry points beyond the page end";
    *payload = Slice(frame_ + offset, len);
    return true;
  }

  /// True if `slot` holds a live record.
  bool IsLive(uint16_t slot) const {
    if (slot >= num_slots()) return false;
    const size_t dir_entry = kPageSize - (slot + 1) * kSlotEntrySize;
    return LoadU16(dir_entry + 2) != kTombstoneLen;
  }

  static constexpr size_t kHeaderSize = 4;
  static constexpr size_t kSlotEntrySize = 4;
  static constexpr uint16_t kTombstoneLen = 0xffff;

  /// Largest record payload a single empty page can hold.
  static constexpr size_t kMaxRecordSize =
      kPageSize - kHeaderSize - kSlotEntrySize;

 private:
  uint16_t LoadU16(size_t offset) const {
    uint16_t v;
    std::memcpy(&v, frame_ + offset, sizeof(v));
    return v;
  }
  void StoreU16(size_t offset, uint16_t v) {
    std::memcpy(frame_ + offset, &v, sizeof(v));
  }

  char* frame_;
};

}  // namespace reldiv

#endif  // RELDIV_STORAGE_PAGE_H_
