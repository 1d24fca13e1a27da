#include "obs/metrics.h"

#include <cstdio>

namespace reldiv {

namespace {

/// Saturating subtraction: children's inclusive figures are measured inside
/// the parent's, but clock granularity can make the sum overshoot by a tick.
uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

std::string FormatNs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatGauge(double value) {
  char buf[32];
  // Gauges are counts or ratios; print counts without a fraction.
  if (value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f", value);
  }
  return buf;
}

}  // namespace

uint64_t MetricsNode::self_ns() const {
  uint64_t childs = 0;
  for (const MetricsNode* child : children_) {
    childs += child->metrics().total_ns();
  }
  return SatSub(metrics_.total_ns(), childs);
}

CpuCounters MetricsNode::self_cpu() const {
  CpuCounters self = metrics_.cpu;
  for (const MetricsNode* child : children_) {
    const CpuCounters& c = child->metrics().cpu;
    self.comparisons = SatSub(self.comparisons, c.comparisons);
    self.hashes = SatSub(self.hashes, c.hashes);
    self.moves = SatSub(self.moves, c.moves);
    self.bit_ops = SatSub(self.bit_ops, c.bit_ops);
  }
  return self;
}

DiskStats MetricsNode::self_io() const {
  DiskStats self = metrics_.io;
  for (const MetricsNode* child : children_) {
    const DiskStats& c = child->metrics().io;
    self.transfers = SatSub(self.transfers, c.transfers);
    self.seeks = SatSub(self.seeks, c.seeks);
    self.sectors_transferred =
        SatSub(self.sectors_transferred, c.sectors_transferred);
    self.read_transfers = SatSub(self.read_transfers, c.read_transfers);
    self.write_transfers = SatSub(self.write_transfers, c.write_transfers);
  }
  return self;
}

MetricsNode* QueryProfile::CreateNode(std::string label, size_t mark) {
  MutexLock lock(mu_);
  nodes_.push_back(std::make_unique<MetricsNode>(std::move(label)));
  MetricsNode* node = nodes_.back().get();
  // Bottom-up plan construction: every unsealed root created at or past the
  // mark was built while assembling this operator's inputs, so it belongs to
  // this subtree. Roots before the mark are finished sibling subtrees
  // awaiting a common ancestor.
  size_t begin = sealed_roots_ > mark ? sealed_roots_ : mark;
  if (begin > roots_.size()) begin = roots_.size();
  node->children_.assign(roots_.begin() + static_cast<long>(begin),
                         roots_.end());
  roots_.resize(begin);
  roots_.push_back(node);
  return node;
}

void QueryProfile::SealRoots() {
  MutexLock lock(mu_);
  sealed_roots_ = roots_.size();
}

void QueryProfile::Clear() {
  MutexLock lock(mu_);
  nodes_.clear();
  roots_.clear();
  sealed_roots_ = 0;
}

namespace {

void RenderNode(const MetricsNode& node, int depth, std::string* out) {
  const OperatorMetrics& m = node.metrics();
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.label();
  *out += ": tuples=" + std::to_string(m.tuples_out) +
          " batches=" + std::to_string(m.batches_out) +
          " calls(open/nextbatch/close)=" + std::to_string(m.opens) +
          "/" + std::to_string(m.next_batch_calls) + "/" +
          std::to_string(m.closes);
  *out += " time=" + FormatNs(m.total_ns()) +
          " (self " + FormatNs(node.self_ns()) + ")";
  const CpuCounters self_cpu = node.self_cpu();
  *out += " cpu[" + self_cpu.ToString() + "]";
  const DiskStats self_io = node.self_io();
  *out += " io[" + self_io.ToString() + "]";
  if (!m.gauges.empty()) {
    *out += " gauges{";
    bool first = true;
    for (const auto& [key, value] : m.gauges) {
      if (!first) *out += " ";
      first = false;
      *out += key + "=" + FormatGauge(value);
    }
    *out += "}";
  }
  *out += "\n";
  for (const MetricsNode* child : node.children()) {
    RenderNode(*child, depth + 1, out);
  }
}

void RenderNodeJson(const MetricsNode& node, std::string* out) {
  const OperatorMetrics& m = node.metrics();
  *out += "{\"label\":\"" + node.label() + "\"";
  *out += ",\"tuples_out\":" + std::to_string(m.tuples_out);
  *out += ",\"batches_out\":" + std::to_string(m.batches_out);
  *out += ",\"opens\":" + std::to_string(m.opens);
  *out += ",\"next_batch_calls\":" + std::to_string(m.next_batch_calls);
  *out += ",\"closes\":" + std::to_string(m.closes);
  *out += ",\"total_ns\":" + std::to_string(m.total_ns());
  *out += ",\"self_ns\":" + std::to_string(node.self_ns());
  *out += ",\"cpu\":" + m.cpu.ToJson();
  *out += ",\"self_cpu\":" + node.self_cpu().ToJson();
  *out += ",\"io\":" + m.io.ToJson();
  *out += ",\"self_io\":" + node.self_io().ToJson();
  if (!m.gauges.empty()) {
    *out += ",\"gauges\":{";
    bool first = true;
    for (const auto& [key, value] : m.gauges) {
      if (!first) *out += ",";
      first = false;
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      *out += "\"" + key + "\":" + buf;
    }
    *out += "}";
  }
  *out += ",\"children\":[";
  bool first = true;
  for (const MetricsNode* child : node.children()) {
    if (!first) *out += ",";
    first = false;
    RenderNodeJson(*child, out);
  }
  *out += "]}";
}

}  // namespace

std::string QueryProfile::ToString() const {
  // Rendering is a quiesced-phase read, but taking the structural lock is
  // free here and keeps the GUARDED_BY contract intact.
  MutexLock lock(mu_);
  std::string out;
  for (const MetricsNode* root : roots_) {
    RenderNode(*root, 0, &out);
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "[";
  bool first = true;
  for (const MetricsNode* root : roots_) {
    if (!first) out += ",";
    first = false;
    RenderNodeJson(*root, &out);
  }
  out += "]";
  return out;
}

}  // namespace reldiv
