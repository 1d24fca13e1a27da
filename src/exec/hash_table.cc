#include "exec/hash_table.h"

namespace reldiv {

TupleHashTable::TupleHashTable(ExecContext* ctx, Arena* arena,
                               std::vector<size_t> key_indices,
                               size_t num_buckets)
    : ctx_(ctx), arena_(arena), key_indices_(std::move(key_indices)) {
  buckets_.assign(num_buckets == 0 ? 1 : num_buckets, nullptr);
}

size_t TupleHashTable::BucketsFor(uint64_t expected_entries) {
  const uint64_t target = expected_entries / 2;  // average bucket size 2
  size_t buckets = 16;
  while (buckets < target) buckets <<= 1;
  return buckets;
}

namespace {

size_t ApproxTupleBytes(const Tuple& tuple) {
  size_t bytes = 16 * tuple.size();
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple.value(i).type() == ValueType::kString) {
      bytes += tuple.value(i).string_value().size();
    }
  }
  return bytes;
}

}  // namespace

Result<TupleHashTable::Entry*> TupleHashTable::InsertIntoBucket(
    Tuple tuple, uint64_t hash) {
  // Charge the chain element and an estimate of the tuple bytes to the
  // arena; tuple storage itself lives in the deque (strings need real
  // destructors), but the accounting must hit the shared pool.
  void* element_mem = arena_->Allocate(sizeof(Entry));
  if (element_mem == nullptr) {
    return Status::ResourceExhausted("hash table: memory pool exhausted");
  }
  if (arena_->Allocate(ApproxTupleBytes(tuple)) == nullptr) {
    return Status::ResourceExhausted("hash table: memory pool exhausted");
  }
  tuples_.push_back(std::move(tuple));
  const size_t bucket = hash % buckets_.size();
  Entry* entry = new (element_mem) Entry();
  entry->tuple = &tuples_.back();
  entry->hash = hash;
  entry->next = buckets_[bucket];
  buckets_[bucket] = entry;
  size_++;
  if (growable_ && size_ > 2 * buckets_.size()) Rehash(2 * buckets_.size());
  return entry;
}

void TupleHashTable::Rehash(size_t num_buckets) {
  std::vector<Entry*> old = std::move(buckets_);
  buckets_.assign(num_buckets == 0 ? 1 : num_buckets, nullptr);
  for (Entry* head : old) {
    for (Entry* e = head; e != nullptr;) {
      Entry* next = e->next;
      Entry*& bucket = buckets_[e->hash % buckets_.size()];
      e->next = bucket;
      bucket = e;
      e = next;
    }
  }
}

Result<TupleHashTable::Entry*> TupleHashTable::Insert(Tuple tuple) {
  const uint64_t hash = HashKey(tuple, key_indices_);
  return InsertIntoBucket(std::move(tuple), hash);
}

Result<TupleHashTable::Entry*> TupleHashTable::FindOrInsert(Tuple tuple,
                                                            bool* inserted) {
  const uint64_t hash = HashKey(tuple, key_indices_);
  for (Entry* e = buckets_[hash % buckets_.size()]; e != nullptr;
       e = e->next) {
    ctx_->CountComparisons(1);
    if (e->hash == hash &&
        tuple.CompareProjected(key_indices_, *e->tuple, key_indices_) == 0) {
      *inserted = false;
      return e;
    }
  }
  *inserted = true;
  return InsertIntoBucket(std::move(tuple), hash);
}

}  // namespace reldiv
