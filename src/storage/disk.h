#ifndef RELDIV_STORAGE_DISK_H_
#define RELDIV_STORAGE_DISK_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace reldiv {

class EventLog;

/// I/O statistics collected by the simulated disk. The experimental harness
/// converts these into milliseconds with the Table 3 cost weights (physical
/// seek, rotational latency per transfer, transfer time per KB, CPU cost per
/// transfer); unit tests assert on the raw counts, which are deterministic.
struct DiskStats {
  uint64_t transfers = 0;             ///< read+write transfer operations
  uint64_t seeks = 0;                 ///< transfers not contiguous with the previous one
  uint64_t sectors_transferred = 0;   ///< total 1 KB sectors moved
  uint64_t read_transfers = 0;
  uint64_t write_transfers = 0;

  uint64_t kbytes_transferred() const { return sectors_transferred; }

  DiskStats& operator-=(const DiskStats& o) {
    transfers -= o.transfers;
    seeks -= o.seeks;
    sectors_transferred -= o.sectors_transferred;
    read_transfers -= o.read_transfers;
    write_transfers -= o.write_transfers;
    return *this;
  }
  friend DiskStats operator-(DiskStats a, const DiskStats& b) {
    a -= b;
    return a;
  }
  DiskStats& operator+=(const DiskStats& o) {
    transfers += o.transfers;
    seeks += o.seeks;
    sectors_transferred += o.sectors_transferred;
    read_transfers += o.read_transfers;
    write_transfers += o.write_transfers;
    return *this;
  }

  std::string ToString() const;

  /// JSON object mirror of ToString(); shared by the bench reporter and
  /// EXPLAIN ANALYZE so I/O field names have one source of truth.
  std::string ToJson() const;
};

/// Simulated disk in the style of the paper's file system (§5.1): "it
/// simulates a disk using a UNIX file or main memory". Storage is addressed
/// in 1 KB sectors; a transfer moves a contiguous run of sectors. A transfer
/// whose first sector does not directly follow the previous transfer's last
/// sector counts as a seek (the arm moved); contiguous transfers model
/// read-ahead over physically clustered files.
///
/// Thread-safe: one mutex serializes allocation, transfers, and accounting,
/// so concurrent morsels touching the disk keep DiskStats monotone and
/// non-double-counted — each transfer is accounted exactly once, atomically
/// with the arm movement that classifies it as a seek. (Seek COUNTS therefore
/// depend on transfer interleaving under parallel execution, faithfully: the
/// simulated arm is a shared resource. Tests pinning exact seek counts run
/// with serial decomposition.)
class SimDisk {
  /// Pass-key restricting the file-backed constructor to OpenFileBacked()
  /// while keeping std::make_unique usable.
  struct Passkey {
    explicit Passkey() = default;
  };

 public:
  enum class Backing { kMemory, kFile };

  /// Creates a memory-backed disk.
  SimDisk();

  /// Creates a disk backed by the already-open Unix file `file` at `path`;
  /// callers go through OpenFileBacked().
  SimDisk(Passkey, std::FILE* file, std::string path);

  /// Creates a disk backed by the Unix file at `path` (created/truncated).
  static Result<std::unique_ptr<SimDisk>> OpenFileBacked(
      const std::string& path);

  ~SimDisk();

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Appends `count` unwritten sectors and returns the first new sector
  /// number. Allocation is physically contiguous, so extent-based files get
  /// clustered placement.
  uint64_t AllocateSectors(uint64_t count);

  /// Reads `count` sectors starting at `sector` into `dst`
  /// (count * kSectorSize bytes). One transfer.
  Status Read(uint64_t sector, uint64_t count, char* dst);

  /// Writes `count` sectors starting at `sector` from `src`. One transfer.
  Status Write(uint64_t sector, uint64_t count, const char* src);

  uint64_t num_sectors() const {
    MutexLock lock(mu_);
    return num_sectors_;
  }

  /// Snapshot of the statistics (by value: a reference would tear under
  /// concurrent transfers).
  DiskStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(mu_);
    stats_ = DiskStats{};
  }

  /// Attaches a trace (obs/event_log.h): every transfer then emits one
  /// instant event carrying its sector, length, direction, and whether the arm
  /// moved (a seek). nullptr detaches. Not safe concurrently with transfers;
  /// attach during setup.
  void set_trace(EventLog* trace) { trace_ = trace; }

 private:
  Status CheckRange(uint64_t sector, uint64_t count) const REQUIRES(mu_);
  /// Requires mu_ held: the seek classification reads and moves the arm.
  void Account(uint64_t sector, uint64_t count, bool is_read) REQUIRES(mu_);

  /// Serializes AllocateSectors/Read/Write/stats across worker lanes.
  mutable Mutex mu_;
  Backing backing_;
  EventLog* trace_ = nullptr;  ///< attached during setup (see set_trace)
  uint64_t num_sectors_ GUARDED_BY(mu_) = 0;
  /// Sector just past the last transfer.
  uint64_t arm_position_ GUARDED_BY(mu_) = 0;
  bool arm_valid_ GUARDED_BY(mu_) = false;
  DiskStats stats_ GUARDED_BY(mu_);

  // Memory backing: sectors in fixed-size chunks to avoid giant reallocs.
  static constexpr uint64_t kSectorsPerChunk = 1024;  // 1 MB chunks
  std::deque<std::vector<char>> chunks_ GUARDED_BY(mu_);

  // File backing.
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace reldiv

#endif  // RELDIV_STORAGE_DISK_H_
