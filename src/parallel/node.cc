#include "parallel/node.h"

namespace reldiv {

WorkerNode::WorkerNode(size_t node_id) : node_id_(node_id) {
  disk_ = std::make_unique<SimDisk>();
  buffer_manager_ = std::make_unique<BufferManager>(disk_.get(), nullptr);
  ctx_ = std::make_unique<ExecContext>(disk_.get(), buffer_manager_.get(),
                                       nullptr, &counters_);
}

}  // namespace reldiv
