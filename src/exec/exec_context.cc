#include "exec/exec_context.h"

#include "exec/scheduler.h"
#include "obs/metrics.h"

namespace reldiv {

ExecContext::ExecContext(SimDisk* disk, BufferManager* buffer_manager,
                         MemoryPool* pool, CpuCounters* counters)
    : disk_(disk),
      buffer_manager_(buffer_manager),
      pool_(pool),
      counters_(counters),
      dop_(TaskScheduler::DefaultDop()) {}

ExecContext::~ExecContext() = default;

void ExecContext::set_profiling(bool enabled) {
  profiling_ = enabled;
  if (enabled) {
    // Fresh collection per profiling session: pointers into the previous
    // session's tree die here, matching QueryProfile::Clear() semantics.
    profile_ = std::make_unique<QueryProfile>();
  }
}

void ExecContext::set_trace(EventLog* trace) {
  trace_ = trace;
  if (disk_ != nullptr) disk_->set_trace(trace);
  if (buffer_manager_ != nullptr) buffer_manager_->set_trace(trace);
}

}  // namespace reldiv
