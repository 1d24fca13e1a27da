#ifndef RELDIV_PARALLEL_NETWORK_H_
#define RELDIV_PARALLEL_NETWORK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "obs/event_log.h"

namespace reldiv {

/// Bounded retry-with-backoff applied to every remote shipment. A transient
/// send/receive failure (kIOError, kResourceExhausted — a dropped packet, a
/// full receive buffer) is retried up to `max_attempts` total tries with an
/// exponentially growing simulated backoff; any other code is treated as a
/// permanent fault and returned immediately. The backoff is pure
/// accounting (`backoff_units`): the simulation never sleeps, so retry
/// schedules stay deterministic under test.
struct NetworkRetryPolicy {
  size_t max_attempts = 3;  ///< total tries per shipment (first + retries)
};

/// Interconnection-network accounting for the shared-nothing simulation
/// (§6). Local hand-offs (from == to) are free; every remote shipment
/// counts one message and its payload bytes. "Network activity can become a
/// bottleneck in a shared-nothing database machine" — these counters are
/// what the §6 benchmarks report.
///
/// Shipments can fail (the "network/send" and "network/recv" failpoints
/// model lossy links); Ship/Broadcast run the NetworkRetryPolicy above and
/// return the last error once it is exhausted. Accounting invariant: every
/// attempt that reaches the wire counts one message, so retries are visible
/// in the §6 message counters exactly as they would be on real hardware.
class Interconnect {
 public:
  explicit Interconnect(size_t num_nodes)
      : num_nodes_(num_nodes), sent_matrix_(num_nodes * num_nodes, 0) {}

  /// Ships `bytes` payload from node `from` to node `to`, retrying
  /// transient failures per the retry policy. Counts one message per wire
  /// attempt on success or transient failure.
  Status Ship(size_t from, size_t to, uint64_t bytes);

  /// Broadcast helper: `bytes` to every node except `from`. Stops at the
  /// first destination whose retries are exhausted.
  Status Broadcast(size_t from, uint64_t bytes);

  uint64_t messages() const { return messages_; }
  uint64_t bytes() const { return bytes_; }
  size_t num_nodes() const { return num_nodes_; }
  uint64_t bytes_between(size_t from, size_t to) const {
    return sent_matrix_[from * num_nodes_ + to];
  }

  /// Transient shipment failures that were retried / total simulated
  /// backoff units spent waiting (1, 2, 4, ... per successive retry of one
  /// shipment).
  uint64_t retries() const { return retries_; }
  uint64_t backoff_units() const { return backoff_units_; }

  void set_retry_policy(NetworkRetryPolicy policy) { retry_ = policy; }
  const NetworkRetryPolicy& retry_policy() const { return retry_; }

  void Reset() {
    messages_ = 0;
    bytes_ = 0;
    retries_ = 0;
    backoff_units_ = 0;
    sent_matrix_.assign(sent_matrix_.size(), 0);
  }

  std::string ToString() const {
    return "messages=" + std::to_string(messages_) +
           " bytes=" + std::to_string(bytes_) +
           " retries=" + std::to_string(retries_);
  }

  /// Attaches a trace (obs/event_log.h): every remote shipment then emits
  /// an instant event on the sending node's timeline lane with destination
  /// and byte count. nullptr detaches. Must outlive the attachment.
  void set_trace(EventLog* trace) { trace_ = trace; }

 private:
  /// One wire attempt: evaluates the send/recv failpoints, then accounts
  /// the transferred payload.
  Status TrySend(size_t from, size_t to, uint64_t bytes);

  size_t num_nodes_;
  EventLog* trace_ = nullptr;
  NetworkRetryPolicy retry_;
  uint64_t messages_ = 0;
  uint64_t bytes_ = 0;
  uint64_t retries_ = 0;
  uint64_t backoff_units_ = 0;
  std::vector<uint64_t> sent_matrix_;
};

}  // namespace reldiv

#endif  // RELDIV_PARALLEL_NETWORK_H_
