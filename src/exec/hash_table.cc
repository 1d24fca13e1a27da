#include "exec/hash_table.h"

#include <cstring>

#include "common/check.h"

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

Status TupleHashTable::FixLayout(const Tuple& stored) {
  std::vector<bool> is_key(stored.size(), false);
  for (size_t key : key_indices_) {
    if (key >= stored.size() || is_key[key]) {
      return Status::InvalidArgument(
          "hash table: key columns do not fit the stored tuple " +
          stored.ToString());
    }
    is_key[key] = true;
  }
  stored_columns_ = key_indices_;
  for (size_t i = 0; i < stored.size(); ++i) {
    if (!is_key[i]) stored_columns_.push_back(i);
  }
  std::vector<Field> fields;
  for (size_t i = 0; i < stored_columns_.size(); ++i) {
    identity_order_ = identity_order_ && stored_columns_[i] == i;
    fields.push_back(Field{"c" + std::to_string(stored_columns_[i]),
                           stored.value(stored_columns_[i]).type()});
  }
  codec_.emplace(Schema(std::move(fields)));
  // The key is the row's first key_indices_.size() fields.
  std::vector<size_t> key_fields(key_indices_.size());
  for (size_t i = 0; i < key_fields.size(); ++i) key_fields[i] = i;
  codes_complete_ =
      kernels::SortKeyCodeIsComplete(codec_->schema(), key_fields);
  single_int64_key_ = codes_complete_ && key_fields.size() == 1;
  return Status::OK();
}

Result<TupleHashTable::Entry*> TupleHashTable::InsertRow(
    uint64_t hash, const kernels::SortKeyCode& code) {
  // One allocation per entry: what the pool is charged is what the entry
  // occupies.
  void* mem = arena_->Allocate(sizeof(Entry) + row_.size());
  if (mem == nullptr) {
    return Status::ResourceExhausted("hash table: memory pool exhausted");
  }
  Entry* entry = new (mem) Entry();
  entry->hash = hash;
  entry->code = code;
  std::memcpy(entry + 1, row_.data(), row_.size());
  Entry*& bucket = buckets_[hash % buckets_.size()];
  entry->next = bucket;
  bucket = entry;
  size_++;
  if (growable_ && size_ > 2 * buckets_.size()) Rehash(2 * buckets_.size());
  return entry;
}

Result<TupleHashTable::Entry*> TupleHashTable::InsertTuple(const Tuple& tuple,
                                                           uint64_t hash) {
  if (!codec_) RELDIV_RETURN_NOT_OK(FixLayout(tuple));
  row_.clear();
  RELDIV_RETURN_NOT_OK(codec_->Encode(tuple, stored_columns_, &row_));
  return InsertRow(hash, kernels::EncodeSortKey(tuple, key_indices_));
}

Result<TupleHashTable::Entry*> TupleHashTable::InsertKey(
    const Tuple& probe, const std::vector<size_t>& probe_indices,
    uint64_t hash) {
  // The stored tuple is the probe's key columns; with key indices a
  // permutation of 0..n-1 its key-first row is those columns in probe order.
  if (!codec_) RELDIV_RETURN_NOT_OK(FixLayout(probe.Project(probe_indices)));
  row_.clear();
  RELDIV_RETURN_NOT_OK(codec_->Encode(probe, probe_indices, &row_));
  return InsertRow(hash, kernels::EncodeSortKey(probe, probe_indices));
}

Result<TupleHashTable::Entry*> TupleHashTable::Insert(const Tuple& tuple) {
  return InsertTuple(tuple, HashKeyCounted(ctx_, tuple, key_indices_));
}

Result<TupleHashTable::Entry*> TupleHashTable::FindOrInsert(const Tuple& tuple,
                                                            bool* inserted) {
  const uint64_t hash = HashKeyCounted(ctx_, tuple, key_indices_);
  Entry* found = MatchFrom(ctx_, BucketHead(hash), hash, tuple, key_indices_);
  *inserted = found == nullptr;
  if (found != nullptr) return found;
  return InsertTuple(tuple, hash);
}

Result<TupleHashTable::Entry*> TupleHashTable::FindOrInsertPrehashed(
    const Tuple& probe, const std::vector<size_t>& probe_indices,
    uint64_t hash, bool* inserted) {
  Entry* found = MatchFrom(ctx_, BucketHead(hash), hash, probe, probe_indices);
  *inserted = found == nullptr;
  if (found != nullptr) return found;
  return InsertKey(probe, probe_indices, hash);
}

Result<TupleHashTable::Entry*> TupleHashTable::FindOrInsertInt64(
    int64_t key, uint64_t hash, bool* inserted) {
  Entry* found = FindInt64Counted(ctx_, key, hash);
  *inserted = found == nullptr;
  if (found != nullptr) return found;
  int64_key_.value(0).SetInt64(key);
  return InsertKey(int64_key_, key_indices_, hash);
}

Tuple TupleHashTable::Decode(const Entry* entry) const {
  Tuple stored;
  const Status status =
      codec_->Decode(Slice(entry->row(), codec_->RowSize(entry->row())),
                     &stored);
  RELDIV_DCHECK(status.ok()) << "hash table row does not decode: "
                             << status.ToString();
  if (identity_order_) return stored;
  Tuple original;
  original.Resize(stored.size());
  for (size_t i = 0; i < stored.size(); ++i) {
    original.value(stored_columns_[i]) = std::move(stored.value(i));
  }
  return original;
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

}  // namespace reldiv
