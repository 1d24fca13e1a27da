#include "storage/virtual_device.h"

#include <algorithm>

#include "testing/failpoint.h"

namespace reldiv {

VirtualDevice::VirtualDevice(MemoryPool* pool, std::string name)
    : name_(std::move(name)), pool_(pool) {}

VirtualDevice::~VirtualDevice() {
  if (pool_ != nullptr) pool_->Release(bytes_reserved_);
}

Result<Rid> VirtualDevice::Append(Slice record) {
  RELDIV_FAILPOINT("virtual_device/append");
  // Reserve pool memory page-wise so virtual devices compete with the
  // buffer pool at the same granularity.
  while (pool_ != nullptr && bytes_used_ + record.size() > bytes_reserved_) {
    if (!pool_->Reserve(kPageSize)) {
      return Status::ResourceExhausted("virtual device '" + name_ +
                                       "': memory pool exhausted");
    }
    bytes_reserved_ += kPageSize;
  }
  const uint64_t index = records_.size();
  records_.emplace_back(record.data(), record.size());
  bytes_used_ += record.size();
  BumpVersion();
  return Rid{static_cast<uint32_t>(index >> 16),
             static_cast<uint16_t>(index & 0xffff)};
}

class VirtualDevice::DeviceScan : public RecordScan {
 public:
  explicit DeviceScan(VirtualDevice* device) : device_(device) {}

  // Memory-resident records need no pin, so a call fills the whole
  // capacity. A full call reports more even at the end of the device; the
  // next call then delivers none.
  Status NextBatch(RecordRef* refs, size_t capacity, size_t* count,
                   bool* has_more) override {
    const size_t end = std::min(device_->records_.size(), next_ + capacity);
    *count = end - next_;
    for (; next_ < end; ++next_, ++refs) {
      const std::string& record = device_->records_[next_];
      refs->rid = Rid{static_cast<uint32_t>(next_ >> 16),
                      static_cast<uint16_t>(next_ & 0xffff)};
      refs->payload = Slice(record.data(), record.size());
    }
    *has_more = *count == capacity;
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  VirtualDevice* device_;
  size_t next_ = 0;
};

Result<std::unique_ptr<RecordScan>> VirtualDevice::OpenScan() {
  return std::unique_ptr<RecordScan>(std::make_unique<DeviceScan>(this));
}

}  // namespace reldiv
