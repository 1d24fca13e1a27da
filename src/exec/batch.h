#ifndef RELDIV_EXEC_BATCH_H_
#define RELDIV_EXEC_BATCH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/config.h"
#include "common/tuple.h"
#include "storage/memory_manager.h"

namespace reldiv {

/// Fixed-capacity row batch flowing between vectorized operators. A batch
/// owns `capacity` tuple slots for its whole lifetime; Clear() only resets
/// the live-prefix length, so the slots (and the capacity of their value
/// vectors) are reused across refills. That slot reuse — not just the
/// amortized virtual dispatch — is where the batch pipeline's speed comes
/// from: refilling a batch performs no per-tuple allocation in steady state.
///
/// When constructed with a MemoryPool the slot array is charged against the
/// shared budget like every other transient operator buffer. A failed
/// reservation does not fail the batch: batch buffers are small and
/// short-lived, so they fall back to unaccounted memory instead of
/// triggering §3.4 overflow handling.
class TupleBatch {
 public:
  /// Default number of tuple slots per batch (kDefaultBatchCapacity).
  static constexpr size_t kDefaultCapacity = kDefaultBatchCapacity;

  explicit TupleBatch(size_t capacity = kDefaultCapacity,
                      MemoryPool* pool = nullptr);
  ~TupleBatch();

  TupleBatch(const TupleBatch&) = delete;
  TupleBatch& operator=(const TupleBatch&) = delete;
  TupleBatch(TupleBatch&& other) noexcept;
  TupleBatch& operator=(TupleBatch&& other) noexcept;

  size_t capacity() const { return slots_.size(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

  /// Drops the live prefix; slots stay allocated for reuse.
  void Clear() { size_ = 0; }

  /// Re-dimensions the batch (used by operators whose scratch batch must
  /// match a caller-supplied capacity). Implies Clear().
  void ResetCapacity(size_t capacity, MemoryPool* pool = nullptr);

  /// Claims the next slot and returns it cleared, ready for in-place
  /// decoding/assembly. Precondition: !full().
  Tuple* AddSlot() {
    RELDIV_DCHECK(!full()) << "AddSlot on a full batch";
    Tuple* slot = &slots_[size_++];
    slot->Clear();
    return slot;
  }

  /// Claims the next slot WITHOUT clearing it. Only for producers that
  /// overwrite the whole tuple (e.g. schema-driven decode): the stale values
  /// keep their buffers, so a steady-state refill does no per-value
  /// construction at all. Precondition: !full().
  Tuple* AddSlotForOverwrite() {
    RELDIV_DCHECK(!full()) << "AddSlotForOverwrite on a full batch";
    return &slots_[size_++];
  }

  /// Moves `tuple` into the next slot. Precondition: !full().
  void PushBack(Tuple tuple) {
    RELDIV_DCHECK(!full()) << "PushBack on a full batch";
    slots_[size_++] = std::move(tuple);
  }

  /// Gives the most recently added slot back. Precondition: !empty().
  void PopBack() {
    RELDIV_DCHECK(!empty()) << "PopBack on an empty batch";
    size_--;
  }

  const Tuple& tuple(size_t i) const {
    RELDIV_DCHECK_LT(i, size_) << "tuple index beyond the live prefix";
    return slots_[i];
  }
  Tuple& tuple(size_t i) {
    RELDIV_DCHECK_LT(i, size_) << "tuple index beyond the live prefix";
    return slots_[i];
  }

  /// Iteration over the live prefix.
  Tuple* begin() { return slots_.data(); }
  Tuple* end() { return slots_.data() + size_; }
  const Tuple* begin() const { return slots_.data(); }
  const Tuple* end() const { return slots_.data() + size_; }

  /// In-place stable selection: keeps exactly the tuples for which `pred`
  /// returns true, preserving order. Returns the number kept. Rejected
  /// slots are swapped behind the live prefix so their buffers stay
  /// reusable.
  template <typename Pred>
  size_t Retain(Pred pred) {
    size_t kept = 0;
    for (size_t i = 0; i < size_; ++i) {
      if (pred(static_cast<const Tuple&>(slots_[i]))) {
        if (kept != i) slots_[kept].Swap(slots_[i]);
        kept++;
      }
    }
    size_ = kept;
    return kept;
  }

 private:
  void ReleaseReservation();

  std::vector<Tuple> slots_;
  size_t size_ = 0;
  MemoryPool* pool_ = nullptr;
  size_t reserved_bytes_ = 0;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_BATCH_H_
