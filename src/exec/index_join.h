#ifndef RELDIV_EXEC_INDEX_JOIN_H_
#define RELDIV_EXEC_INDEX_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/row_codec.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "storage/btree.h"
#include "storage/record_file.h"

namespace reldiv {

/// A secondary index: a B+-tree over the encoding of selected columns of a
/// stored relation, mapping to record ids. Built by Database::CreateIndex
/// and maintained by Database::Insert.
class TableIndex {
 public:
  /// `key_schema` describes the indexed columns. Keys are stored in the
  /// order-preserving encoding (common/ordered_key.h), so an index-ordered
  /// scan yields value order.
  TableIndex(SimDisk* disk, BufferManager* buffer_manager, Schema key_schema,
             std::vector<size_t> columns)
      : tree_(disk, buffer_manager),
        key_schema_(std::move(key_schema)),
        columns_(std::move(columns)) {}

  /// Adds `tuple`'s key → `rid`.
  Status Add(const Tuple& tuple, Rid rid);

  /// Removes the entry for `tuple` at `rid` (index maintenance on delete).
  Status Remove(const Tuple& tuple, Rid rid);

  /// True if some indexed tuple has exactly this key (the probe tuple's
  /// `probe_columns` are the key, in index column order).
  Result<bool> ContainsKey(const Tuple& probe,
                           const std::vector<size_t>& probe_columns);

  /// Record ids matching the key.
  Result<std::vector<Rid>> LookupKey(const Tuple& probe,
                                     const std::vector<size_t>& probe_columns);

  const std::vector<size_t>& columns() const { return columns_; }
  uint64_t num_entries() const { return tree_.num_entries(); }
  BTree* tree() { return &tree_; }

 private:
  Result<std::string> EncodeKey(const Tuple& tuple,
                                const std::vector<size_t>& columns);

  BTree tree_;
  Schema key_schema_;
  std::vector<size_t> columns_;
};

/// Index (semi-)join: for each probe tuple, an index lookup decides whether
/// a matching inner tuple exists — the "index join" the paper lists among
/// the join methods usable before sort-based aggregation (§2.2.1). Because
/// each lookup descends the B+-tree, it wins over hash/merge joins only
/// when the probe side is small relative to the indexed side.
class IndexSemiJoinOperator : public Operator {
 public:
  /// `index` must outlive the operator. `probe_keys`: probe-side columns
  /// matched against the index key columns, in index-column order.
  IndexSemiJoinOperator(ExecContext* ctx, std::unique_ptr<Operator> probe,
                        TableIndex* index, std::vector<size_t> probe_keys)
      : ctx_(ctx),
        probe_(std::move(probe)),
        probe_input_(probe_.get()),
        index_(index),
        probe_keys_(std::move(probe_keys)) {}

  const Schema& output_schema() const override {
    return probe_->output_schema();
  }
  Status Open() override {
    RELDIV_RETURN_NOT_OK(probe_->Open());
    probe_input_.Reset(ctx_->batch_capacity());
    return Status::OK();
  }
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&IndexSemiJoinOperator::Step>(this, batch, has_more);
  }
  Status Close() override { return probe_->Close(); }

 private:
  /// Produces the next probe tuple with an index match.
  Status Step(Tuple* tuple, bool* has_next);

  ExecContext* ctx_;
  std::unique_ptr<Operator> probe_;
  InputCursor probe_input_;
  TableIndex* index_;
  std::vector<size_t> probe_keys_;
};

/// Scans a stored relation in INDEX-KEY ORDER: the B+-tree iterator yields
/// record ids, each fetched with a point read through the buffer manager.
/// Produces a sorted stream without a sort operator, at the price of random
/// I/O on a cold buffer pool — the classic index-scan trade-off.
class IndexOrderedScanOperator : public Operator {
 public:
  /// `file` is the indexed table's record file; `schema` its schema;
  /// `index` an index over it. All must outlive the operator.
  IndexOrderedScanOperator(ExecContext* ctx, RecordFile* file, Schema schema,
                           TableIndex* index)
      : ctx_(ctx),
        file_(file),
        schema_(std::move(schema)),
        codec_(schema_),
        index_(index),
        iterator_(index->tree()) {}

  const Schema& output_schema() const override { return schema_; }
  Status Open() override { return iterator_.SeekToFirst(); }
  Status NextBatch(TupleBatch* batch, bool* has_more) override {
    return FillBatch<&IndexOrderedScanOperator::Step>(this, batch, has_more);
  }
  Status Close() override { return Status::OK(); }

 private:
  /// Fetches the record under the iterator and advances it.
  Status Step(Tuple* tuple, bool* has_next);

  ExecContext* ctx_;
  RecordFile* file_;
  Schema schema_;
  RowCodec codec_;
  TableIndex* index_;
  BTree::Iterator iterator_;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_INDEX_JOIN_H_
