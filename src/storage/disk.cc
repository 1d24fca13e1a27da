#include "storage/disk.h"

#include <cstring>

#include "common/metric_names.h"
#include "obs/telemetry.h"
#include "obs/event_log.h"
#include "testing/failpoint.h"

namespace reldiv {

std::string DiskStats::ToString() const {
  return "transfers=" + std::to_string(transfers) +
         " seeks=" + std::to_string(seeks) +
         " kb=" + std::to_string(sectors_transferred) +
         " reads=" + std::to_string(read_transfers) +
         " writes=" + std::to_string(write_transfers);
}

std::string DiskStats::ToJson() const {
  const auto field = [](const char* name, uint64_t value) {
    return "\"" + std::string(name) + "\":" + std::to_string(value);
  };
  return "{" + field(metric_names::kTransfers, transfers) + "," +
         field(metric_names::kSeeks, seeks) + "," +
         field(metric_names::kKbytes, sectors_transferred) + "," +
         field(metric_names::kReads, read_transfers) + "," +
         field(metric_names::kWrites, write_transfers) + "}";
}

SimDisk::SimDisk() : backing_(Backing::kMemory) {}

SimDisk::SimDisk(Passkey, std::FILE* file, std::string path)
    : backing_(Backing::kFile), file_(file), path_(std::move(path)) {}

Result<std::unique_ptr<SimDisk>> SimDisk::OpenFileBacked(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    return Status::IOError("cannot open disk backing file '" + path + "'");
  }
  return std::make_unique<SimDisk>(Passkey{}, f, path);
}

SimDisk::~SimDisk() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
}

uint64_t SimDisk::AllocateSectors(uint64_t count) {
  MutexLock lock(mu_);
  const uint64_t first = num_sectors_;
  num_sectors_ += count;
  if (backing_ == Backing::kMemory) {
    const uint64_t needed_chunks =
        (num_sectors_ + kSectorsPerChunk - 1) / kSectorsPerChunk;
    while (chunks_.size() < needed_chunks) {
      chunks_.emplace_back(kSectorsPerChunk * kSectorSize, 0);
    }
  }
  return first;
}

Status SimDisk::CheckRange(uint64_t sector, uint64_t count) const {
  if (count == 0) return Status::InvalidArgument("zero-sector transfer");
  if (sector + count > num_sectors_) {
    return Status::InvalidArgument(
        "transfer beyond end of disk: sector " + std::to_string(sector) +
        " count " + std::to_string(count) + " of " +
        std::to_string(num_sectors_));
  }
  return Status::OK();
}

void SimDisk::Account(uint64_t sector, uint64_t count, bool is_read) {
  // Process-wide telemetry beside the per-disk stats: counters under
  // kCounting (relaxed adds), the transfer-size histogram only under
  // kSampling (overhead contract, DESIGN.md §14).
  if (Telemetry::counting()) {
    static TelemetryCounter* transfers_total =
        MetricRegistry::Global().FindOrCreateCounter(
            metric_names::kDiskTransfersTotal);
    transfers_total->Add(1);
    if (!arm_valid_ || sector != arm_position_) {
      static TelemetryCounter* seeks_total =
          MetricRegistry::Global().FindOrCreateCounter(
              metric_names::kDiskSeeksTotal);
      seeks_total->Add(1);
    }
    if (Telemetry::sampling()) {
      static Histogram* transfer_sectors =
          MetricRegistry::Global().FindOrCreateHistogram(
              metric_names::kDiskTransferSectors);
      transfer_sectors->Record(count);
    }
  }
  stats_.transfers++;
  if (is_read) {
    stats_.read_transfers++;
  } else {
    stats_.write_transfers++;
  }
  stats_.sectors_transferred += count;
  const bool seek = !arm_valid_ || sector != arm_position_;
  if (seek) stats_.seeks++;
  arm_position_ = sector + count;
  arm_valid_ = true;
  if (trace_ != nullptr) {
    trace_->Instant(is_read ? "disk-read" : "disk-write", "disk", /*tid=*/0,
                    {{"sector", sector},
                     {"sectors", count},
                     {"seek", seek ? 1U : 0U}});
  }
}

Status SimDisk::Read(uint64_t sector, uint64_t count, char* dst) {
  // One lock spans range check, failpoints, accounting, and the copy: the
  // seek failpoint and the seek counter must observe the same arm position,
  // and a transfer must never be torn between them.
  MutexLock lock(mu_);
  RELDIV_RETURN_NOT_OK(CheckRange(sector, count));
  RELDIV_FAILPOINT("sim_disk/read");
  if (!arm_valid_ || sector != arm_position_) {
    RELDIV_FAILPOINT("sim_disk/seek");
  }
  Account(sector, count, /*is_read=*/true);
  if (backing_ == Backing::kMemory) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t s = sector + i;
      const std::vector<char>& chunk = chunks_[s / kSectorsPerChunk];
      std::memcpy(dst + i * kSectorSize,
                  chunk.data() + (s % kSectorsPerChunk) * kSectorSize,
                  kSectorSize);
    }
    return Status::OK();
  }
  if (std::fseek(file_, static_cast<long>(sector * kSectorSize), SEEK_SET) !=
      0) {
    return Status::IOError("fseek failed");
  }
  const size_t want = count * kSectorSize;
  const size_t got = std::fread(dst, 1, want, file_);
  // Sectors allocated but never written read back as zeros.
  if (got < want) std::memset(dst + got, 0, want - got);
  return Status::OK();
}

Status SimDisk::Write(uint64_t sector, uint64_t count, const char* src) {
  MutexLock lock(mu_);
  RELDIV_RETURN_NOT_OK(CheckRange(sector, count));
  RELDIV_FAILPOINT("sim_disk/write");
  if (!arm_valid_ || sector != arm_position_) {
    RELDIV_FAILPOINT("sim_disk/seek");
  }
  Account(sector, count, /*is_read=*/false);
  if (backing_ == Backing::kMemory) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t s = sector + i;
      std::vector<char>& chunk = chunks_[s / kSectorsPerChunk];
      std::memcpy(chunk.data() + (s % kSectorsPerChunk) * kSectorSize,
                  src + i * kSectorSize, kSectorSize);
    }
    return Status::OK();
  }
  if (std::fseek(file_, static_cast<long>(sector * kSectorSize), SEEK_SET) !=
      0) {
    return Status::IOError("fseek failed");
  }
  if (std::fwrite(src, 1, count * kSectorSize, file_) !=
      count * kSectorSize) {
    return Status::IOError("fwrite failed");
  }
  return Status::OK();
}

}  // namespace reldiv
