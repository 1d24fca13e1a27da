#ifndef RELDIV_STORAGE_RECORD_STORE_H_
#define RELDIV_STORAGE_RECORD_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/result.h"
#include "common/slice.h"
#include "storage/rid.h"

namespace reldiv {

/// One record surfaced by a scan: its identifier plus a view of its payload.
/// The payload points into storage pinned by the scan and is valid until the
/// next NextBatch()/Close() call — the §5.1 "scans give memory addresses to
/// records fixed in the buffer pool" discipline.
struct RecordRef {
  Rid rid;
  Slice payload;
};

/// Sequential scan over a record store (open-next-close protocol, with
/// NextBatch() as the one "next").
class RecordScan {
 public:
  virtual ~RecordScan() = default;

  /// Fetches up to `capacity` records into `refs`, setting `*count` to the
  /// number delivered. All delivered payloads are valid until the next
  /// NextBatch()/Close() call, so implementations must not cross a pin
  /// boundary within one call (a page-at-a-time store stops at the page
  /// edge and returns a short count with `*has_more` still true).
  /// `*has_more` false means the store is exhausted; like the operator
  /// batch contract, the final call may deliver zero records, and no call
  /// follows it.
  virtual Status NextBatch(RecordRef* refs, size_t capacity, size_t* count,
                           bool* has_more) = 0;

  /// Releases pinned pages; called implicitly by the destructor.
  virtual Status Close() = 0;
};

/// Append-only record container. Two implementations exist: RecordFile
/// (disk pages through the buffer manager) and VirtualDevice (memory-resident
/// intermediate results, §5.1). Operators are "programmed as if input and
/// output were permanent files" — they see only this interface.
class RecordStore {
 public:
  virtual ~RecordStore() = default;

  /// Appends a record; returns its Rid.
  virtual Result<Rid> Append(Slice record) = 0;

  /// Opens a sequential scan.
  virtual Result<std::unique_ptr<RecordScan>> OpenScan() = 0;

  virtual uint64_t num_records() const = 0;

  /// Number of storage pages (for the paper's page-cardinality cost inputs);
  /// virtual devices report their equivalent page count.
  virtual uint64_t num_pages() const = 0;

  /// Monotone mutation counter: implementations bump it on every successful
  /// Append (and Delete, where supported). Cached derivations — the service
  /// layer's quotient cache — stamp the version they were computed against
  /// and treat any mismatch as an unnotified mutation requiring
  /// invalidation. Atomic so version checks never race a writer.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 protected:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<uint64_t> version_{0};
};

}  // namespace reldiv

#endif  // RELDIV_STORAGE_RECORD_STORE_H_
