#ifndef RELDIV_PARALLEL_NODE_H_
#define RELDIV_PARALLEL_NODE_H_

#include <cstddef>
#include <memory>

#include "common/counters.h"
#include "exec/exec_context.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"

namespace reldiv {

/// One processor of the simulated shared-nothing machine (§6, GAMMA-style):
/// a private disk, private buffer manager and private CPU counters — nothing
/// shared except the interconnect. Local memory is unbounded (no pool).
/// Worker threads touch only their own node's state.
class WorkerNode {
 public:
  explicit WorkerNode(size_t node_id);

  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  size_t node_id() const { return node_id_; }
  ExecContext* ctx() { return ctx_.get(); }
  CpuCounters* counters() { return &counters_; }

 private:
  size_t node_id_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<BufferManager> buffer_manager_;
  CpuCounters counters_;
  std::unique_ptr<ExecContext> ctx_;
};

}  // namespace reldiv

#endif  // RELDIV_PARALLEL_NODE_H_
