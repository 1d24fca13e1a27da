#include "exec/index_join.h"

#include "common/ordered_key.h"

namespace reldiv {

Result<std::string> TableIndex::EncodeKey(const Tuple& tuple,
                                          const std::vector<size_t>& columns) {
  Tuple key = tuple.Project(columns);
  // Verify the key against the index schema (types must line up or byte
  // order would be meaningless).
  if (key.size() != key_schema_.num_fields()) {
    return Status::InvalidArgument("index key arity mismatch");
  }
  for (size_t i = 0; i < key.size(); ++i) {
    if (key.value(i).type() != key_schema_.field(i).type) {
      return Status::InvalidArgument("index key type mismatch in field '" +
                                     key_schema_.field(i).name + "'");
    }
  }
  return OrderedKeyToString(key);
}

Status TableIndex::Add(const Tuple& tuple, Rid rid) {
  RELDIV_ASSIGN_OR_RETURN(std::string key, EncodeKey(tuple, columns_));
  return tree_.Insert(Slice(key), rid);
}

Status TableIndex::Remove(const Tuple& tuple, Rid rid) {
  RELDIV_ASSIGN_OR_RETURN(std::string key, EncodeKey(tuple, columns_));
  return tree_.Erase(Slice(key), rid);
}

Result<bool> TableIndex::ContainsKey(const Tuple& probe,
                                     const std::vector<size_t>& probe_columns) {
  RELDIV_ASSIGN_OR_RETURN(std::string key, EncodeKey(probe, probe_columns));
  return tree_.Contains(Slice(key));
}

Result<std::vector<Rid>> TableIndex::LookupKey(
    const Tuple& probe, const std::vector<size_t>& probe_columns) {
  RELDIV_ASSIGN_OR_RETURN(std::string key, EncodeKey(probe, probe_columns));
  return tree_.Lookup(Slice(key));
}

Status IndexSemiJoinOperator::Step(Tuple* tuple, bool* has_next) {
  while (true) {
    bool has = false;
    RELDIV_RETURN_NOT_OK(probe_input_.Pull(tuple, &has));
    if (!has) {
      *has_next = false;
      return Status::OK();
    }
    // One hash-unit of CPU charged per index probe key encoding plus the
    // comparisons happening inside the tree descent are already counted at
    // the storage layer; count the probe itself.
    ctx_->CountComparisons(1);
    RELDIV_ASSIGN_OR_RETURN(bool match,
                            index_->ContainsKey(*tuple, probe_keys_));
    if (match) {
      *has_next = true;
      return Status::OK();
    }
  }
}

Status IndexOrderedScanOperator::Step(Tuple* tuple, bool* has_next) {
  if (!iterator_.Valid()) {
    *has_next = false;
    return Status::OK();
  }
  Slice payload;
  PageGuard guard;
  RELDIV_RETURN_NOT_OK(file_->Get(iterator_.rid(), &payload, &guard));
  RELDIV_RETURN_NOT_OK(codec_.Decode(payload, tuple));
  RELDIV_RETURN_NOT_OK(iterator_.Next());
  *has_next = true;
  return Status::OK();
}

}  // namespace reldiv
