#include "exec/sort.h"

#include <algorithm>
#include <cstring>

#include "common/config.h"
#include "exec/exchange.h"
#include "exec/kernels/kernels.h"

namespace reldiv {

namespace {

/// Tuple memory estimate used for sort-space accounting.
size_t EstimateTupleBytes(const Tuple& tuple) {
  size_t bytes = 24 + 16 * tuple.size();
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple.value(i).type() == ValueType::kString) {
      bytes += tuple.value(i).string_value().size();
    }
  }
  return bytes;
}

}  // namespace

/// One sorted run on the simulated disk, written and read in 1 KB blocks
/// (kSortRunBlockSize) so that a limited sort space still yields a high
/// merge fan-in. Sectors are allocated in contiguous chunks.
class SortOperator::Run {
 public:
  explicit Run(SimDisk* disk) : disk_(disk) {}

  Status Append(Slice record) {
    uint32_t len = static_cast<uint32_t>(record.size());
    char len_buf[4];
    std::memcpy(len_buf, &len, 4);
    RELDIV_RETURN_NOT_OK(WriteBytes(len_buf, 4));
    RELDIV_RETURN_NOT_OK(WriteBytes(record.data(), record.size()));
    num_records_++;
    return Status::OK();
  }

  Status Finish() {
    if (buffer_used_ > 0) {
      RELDIV_RETURN_NOT_OK(FlushBlock());
    }
    return Status::OK();
  }

  uint64_t num_records() const { return num_records_; }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  friend class SortOperator::RunReader;

  static constexpr uint64_t kSectorsPerAllocation = 64;

  Status WriteBytes(const char* data, size_t size) {
    total_bytes_ += size;
    while (size > 0) {
      const size_t room = kSortRunBlockSize - buffer_used_;
      const size_t chunk = size < room ? size : room;
      std::memcpy(buffer_ + buffer_used_, data, chunk);
      buffer_used_ += chunk;
      data += chunk;
      size -= chunk;
      if (buffer_used_ == kSortRunBlockSize) {
        RELDIV_RETURN_NOT_OK(FlushBlock());
      }
    }
    return Status::OK();
  }

  Status FlushBlock() {
    if (next_sector_ == end_sector_) {
      const uint64_t first = disk_->AllocateSectors(kSectorsPerAllocation);
      segments_.emplace_back(first, kSectorsPerAllocation);
      next_sector_ = first;
      end_sector_ = first + kSectorsPerAllocation;
    }
    // Pad the trailing partial block with zeros.
    if (buffer_used_ < kSortRunBlockSize) {
      std::memset(buffer_ + buffer_used_, 0, kSortRunBlockSize - buffer_used_);
    }
    RELDIV_RETURN_NOT_OK(disk_->Write(next_sector_, 1, buffer_));
    next_sector_++;
    blocks_written_++;
    buffer_used_ = 0;
    return Status::OK();
  }

  SimDisk* disk_;
  char buffer_[kSortRunBlockSize];
  size_t buffer_used_ = 0;
  uint64_t num_records_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t blocks_written_ = 0;
  uint64_t next_sector_ = 0;
  uint64_t end_sector_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> segments_;
};

/// Sequential reader over a Run, one 1 KB block in memory at a time.
class SortOperator::RunReader {
 public:
  RunReader(SimDisk* disk, const Run* run) : disk_(disk), run_(run) {}

  /// Reads the next encoded record into `record`.
  Status Next(std::string* record, bool* has_next) {
    if (bytes_read_ >= run_->total_bytes_) {
      *has_next = false;
      return Status::OK();
    }
    char len_buf[4];
    RELDIV_RETURN_NOT_OK(ReadBytes(len_buf, 4));
    uint32_t len;
    std::memcpy(&len, len_buf, 4);
    record->resize(len);
    RELDIV_RETURN_NOT_OK(ReadBytes(record->data(), len));
    *has_next = true;
    return Status::OK();
  }

 private:
  Status ReadBytes(char* dst, size_t size) {
    while (size > 0) {
      if (buffer_pos_ == buffer_filled_) {
        RELDIV_RETURN_NOT_OK(FillBlock());
      }
      const size_t avail = buffer_filled_ - buffer_pos_;
      const size_t chunk = size < avail ? size : avail;
      std::memcpy(dst, buffer_ + buffer_pos_, chunk);
      buffer_pos_ += chunk;
      dst += chunk;
      size -= chunk;
      bytes_read_ += chunk;
    }
    return Status::OK();
  }

  Status FillBlock() {
    if (segment_index_ >= run_->segments_.size()) {
      return Status::Internal("sort run reader ran past the last block");
    }
    auto [first, count] = run_->segments_[segment_index_];
    RELDIV_RETURN_NOT_OK(disk_->Read(first + segment_offset_, 1, buffer_));
    segment_offset_++;
    if (segment_offset_ == count) {
      segment_index_++;
      segment_offset_ = 0;
    }
    buffer_pos_ = 0;
    buffer_filled_ = kSortRunBlockSize;
    return Status::OK();
  }

  SimDisk* disk_;
  const Run* run_;
  char buffer_[kSortRunBlockSize];
  size_t buffer_pos_ = 0;
  size_t buffer_filled_ = 0;
  uint64_t bytes_read_ = 0;
  size_t segment_index_ = 0;
  uint64_t segment_offset_ = 0;
};

SortSpec CountingSortSpec(const Schema& input_schema,
                          std::vector<size_t> group) {
  SortSpec spec;
  spec.keys.resize(group.size());
  for (size_t i = 0; i < spec.keys.size(); ++i) spec.keys[i] = i;
  spec.collapse_equal_keys = true;
  std::vector<Field> fields = input_schema.Project(group).fields();
  fields.push_back(Field{"count", ValueType::kInt64});
  spec.lifted_schema = Schema(std::move(fields));
  const size_t count_col = group.size();
  spec.lift = [group = std::move(group)](const Tuple& t) {
    Tuple lifted = t.Project(group);
    lifted.Append(Value::Int64(1));
    return lifted;
  };
  spec.merge = [count_col](Tuple* acc, const Tuple& next) {
    acc->value(count_col) =
        Value::Int64(acc->value(count_col).int64() +
                     next.value(count_col).int64());
  };
  return spec;
}

SortOperator::SortOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                           SortSpec spec)
    : ctx_(ctx),
      child_(std::move(child)),
      spec_(std::move(spec)),
      working_schema_(spec_.lifted_schema.has_value()
                          ? *spec_.lifted_schema
                          : child_->output_schema()),
      codec_(working_schema_),
      code_complete_(
          kernels::SortKeyCodeIsComplete(working_schema_, spec_.keys)),
      max_fan_in_(
          std::max<size_t>(2, ctx_->sort_space_bytes() / kSortRunBlockSize)) {}

SortOperator::~SortOperator() = default;

kernels::SortKeyCode SortOperator::KeyCode(const Tuple& t) const {
  // The code is order-preserving only among values of one type per column.
  for (size_t key : spec_.keys) {
    RELDIV_DCHECK(t.value(key).type() == working_schema_.field(key).type)
        << "sort key column " << key << " holds " << t.value(key).ToString()
        << ", not a value of its schema type";
  }
  return kernels::EncodeSortKey(t, spec_.keys);
}

int SortOperator::CompareCodedOn(ExecContext* ctx,
                                 const kernels::SortKeyCode& code_a,
                                 const Tuple& a,
                                 const kernels::SortKeyCode& code_b,
                                 const Tuple& b) const {
  ctx->CountComparisons(1);
  if (code_a != code_b) return code_a < code_b ? -1 : 1;
  if (code_complete_) return 0;
  return a.CompareAt(spec_.keys, b);
}

void SortOperator::Combine(Tuple* acc, const Tuple& next) const {
  if (spec_.merge) {
    spec_.merge(acc, next);
  }
  // Default: keep the first tuple (duplicate elimination).
}

bool SortOperator::HeapLess(const HeapEntry& a, const HeapEntry& b) const {
  const int c = CompareCodedOn(ctx_, a.code, heads_[a.reader], b.code,
                               heads_[b.reader]);
  if (c != 0) return c < 0;
  return a.reader < b.reader;  // stable across runs: older run first
}

void SortOperator::HeapPush(HeapEntry entry) {
  heap_.push_back(entry);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!HeapLess(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

SortOperator::HeapEntry SortOperator::HeapPop() {
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  size_t i = 0;
  while (true) {
    const size_t l = 2 * i + 1;
    const size_t r = 2 * i + 2;
    size_t smallest = i;
    if (l < heap_.size() && HeapLess(heap_[l], heap_[smallest])) smallest = l;
    if (r < heap_.size() && HeapLess(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == i) break;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
  return top;
}

Status SortOperator::SortChunk(ExecContext* ctx,
                               std::vector<Tuple>* chunk) const {
  // Normalized-key quicksort (Do/Graefe/Naughton) over small records: each
  // tuple's whole sort key is encoded once into an order-preserving code
  // kept beside the tuple's index, so the sort moves 24-byte records, not
  // tuples, and comparisons resolve on integers; only an incomplete code's
  // ties read the tuples. CompareCodedOn is extensionally equal to the
  // uncoded key comparison and counts one Comp per call, and std::sort's
  // moves depend only on comparison results, so the sort's decision
  // sequence, the run contents, and the Comp totals are those of the
  // uncoded tuple sort.
  struct Keyed {
    kernels::SortKeyCode code;
    size_t index;
  };
  std::vector<Tuple>& tuples = *chunk;
  std::vector<Keyed> keyed(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    keyed[i] = Keyed{KeyCode(tuples[i]), i};
  }
  std::sort(keyed.begin(), keyed.end(),
            [&](const Keyed& a, const Keyed& b) {
              return CompareCodedOn(ctx, a.code, tuples[a.index], b.code,
                                    tuples[b.index]) < 0;
            });
  // Gather in sorted order. With collapse, each equal-key group combines
  // into its first tuple, in stream. Comparison pattern: every tuple is
  // compared once against its group's accumulator (the group-closing
  // mismatch included), matching the merge paths' counting.
  std::vector<Tuple> sorted;
  sorted.reserve(keyed.size());
  for (size_t i = 0; i < keyed.size();) {
    const Keyed& acc = keyed[i];
    Tuple& acc_tuple = tuples[acc.index];
    size_t j = i + 1;
    if (spec_.collapse_equal_keys) {
      while (j < keyed.size() &&
             CompareCodedOn(ctx, acc.code, acc_tuple, keyed[j].code,
                            tuples[keyed[j].index]) == 0) {
        Combine(&acc_tuple, tuples[keyed[j].index]);
        j++;
      }
    }
    sorted.push_back(std::move(acc_tuple));
    i = j;
  }
  tuples = std::move(sorted);
  return Status::OK();
}

Status SortOperator::WriteSortedRun(std::vector<Tuple>* chunk) {
  auto run = std::make_unique<Run>(ctx_->disk());
  std::string encoded;
  for (const Tuple& tuple : *chunk) {
    encoded.clear();
    RELDIV_RETURN_NOT_OK(codec_.Encode(tuple, &encoded));
    RELDIV_RETURN_NOT_OK(run->Append(Slice(encoded)));
    ctx_->CountMoveBytes(encoded.size());
  }
  RELDIV_RETURN_NOT_OK(run->Finish());
  runs_.push_back(std::move(run));
  chunk->clear();
  return Status::OK();
}

Status SortOperator::FlushChunkWindow(
    std::vector<std::vector<Tuple>>* window) {
  if (window->empty()) return Status::OK();
  const size_t num_chunks = window->size();
  // Chunk contents were fixed by the sort-space accounting in Open(); only
  // the sorting of the chunks held in this window runs concurrently. Runs
  // are written below, serially and in chunk order, so the on-disk layout
  // never depends on the worker count.
  RELDIV_RETURN_NOT_OK(RunFragments(
      ctx_, num_chunks, [&](size_t i, ExecContext* fragment_ctx) {
        return SortChunk(fragment_ctx, &(*window)[i]);
      }));
  for (std::vector<Tuple>& chunk : *window) {
    RELDIV_RETURN_NOT_OK(WriteSortedRun(&chunk));
    initial_runs_++;
  }
  window->clear();
  return Status::OK();
}

Status SortOperator::MergeRuns(std::vector<std::unique_ptr<Run>> inputs) {
  RELDIV_RETURN_NOT_OK(StartMerge(inputs));
  auto output = std::make_unique<Run>(ctx_->disk());
  std::string encoded;
  const auto append = [&](const Tuple& tuple) -> Status {
    encoded.clear();
    RELDIV_RETURN_NOT_OK(codec_.Encode(tuple, &encoded));
    ctx_->CountMoveBytes(encoded.size());
    return output->Append(Slice(encoded));
  };
  bool have_acc = false;
  Tuple acc;
  kernels::SortKeyCode acc_code;
  Tuple next;
  kernels::SortKeyCode next_code;
  while (true) {
    bool has = false;
    RELDIV_RETURN_NOT_OK(MergeNext(&next, &next_code, &has));
    if (!has) break;
    if (!spec_.collapse_equal_keys) {
      RELDIV_RETURN_NOT_OK(append(next));
    } else if (have_acc &&
               CompareCodedOn(ctx_, acc_code, acc, next_code, next) == 0) {
      Combine(&acc, next);
    } else {
      if (have_acc) RELDIV_RETURN_NOT_OK(append(acc));
      acc.Swap(next);
      acc_code = next_code;
      have_acc = true;
    }
  }
  if (have_acc) RELDIV_RETURN_NOT_OK(append(acc));
  RELDIV_RETURN_NOT_OK(output->Finish());
  readers_.clear();  // they read `inputs`, which die here
  runs_.push_back(std::move(output));
  return Status::OK();
}

Status SortOperator::StartMerge(const std::vector<std::unique_ptr<Run>>& runs) {
  readers_.clear();
  heads_.assign(runs.size(), Tuple());
  heap_.clear();
  for (size_t i = 0; i < runs.size(); ++i) {
    readers_.push_back(
        std::make_unique<RunReader>(ctx_->disk(), runs[i].get()));
    bool has = false;
    RELDIV_RETURN_NOT_OK(readers_[i]->Next(&record_, &has));
    if (!has) continue;
    RELDIV_RETURN_NOT_OK(codec_.Decode(Slice(record_), &heads_[i]));
    HeapPush(HeapEntry{KeyCode(heads_[i]), i});
  }
  return Status::OK();
}

Status SortOperator::MergeNext(Tuple* tuple, kernels::SortKeyCode* code,
                               bool* has_next) {
  if (heap_.empty()) {
    *has_next = false;
    return Status::OK();
  }
  const HeapEntry top = HeapPop();
  bool has = false;
  RELDIV_RETURN_NOT_OK(readers_[top.reader]->Next(&record_, &has));
  Tuple& head = heads_[top.reader];
  tuple->Swap(head);
  if (has) {
    RELDIV_RETURN_NOT_OK(codec_.Decode(Slice(record_), &head));
    HeapPush(HeapEntry{KeyCode(head), top.reader});
  }
  *code = top.code;
  *has_next = true;
  return Status::OK();
}

Status SortOperator::Open() {
  std::vector<Tuple> chunk;
  size_t chunk_bytes = 0;
  bool first_chunk = true;
  // Spilled chunks awaiting sort + run write; flushed whenever dop chunks
  // have accumulated, so at most dop sort spaces are held at once.
  std::vector<std::vector<Tuple>> window;

  // Ends the current chunk when it fills the sort space or the input ends.
  const auto cut = [&](bool input_exhausted) -> Status {
    if (chunk.empty() && !first_chunk) return Status::OK();
    if (first_chunk && input_exhausted) {
      // Whole input fits in the sort space: the normalized-key in-memory
      // sort (+ collapse), no I/O. SortChunk's collapse compares every
      // tuple once against its group's accumulator — the same count as
      // the adjacent-pair loop this path used before the kernelization.
      RELDIV_RETURN_NOT_OK(SortChunk(ctx_, &chunk));
      memory_tuples_ = std::move(chunk);
      in_memory_ = true;
      memory_pos_ = 0;
      return Status::OK();
    }
    if (!chunk.empty()) {
      window.push_back(std::move(chunk));
      chunk.clear();
      chunk_bytes = 0;
      if (window.size() >= ctx_->dop()) {
        RELDIV_RETURN_NOT_OK(FlushChunkWindow(&window));
      }
    }
    first_chunk = false;
    return Status::OK();
  };
  // The last runs are written in the finish step, before the input closes,
  // so their disk placement never depends on what the input's Close()
  // frees (a sorted input's runs, say).
  RELDIV_RETURN_NOT_OK(Drain(
      child_.get(), ctx_->batch_capacity(), ctx_,
      [&](TupleBatch& batch) -> Status {
        for (Tuple& raw : batch) {
          Tuple working = spec_.lift ? spec_.lift(raw) : std::move(raw);
          chunk_bytes += EstimateTupleBytes(working);
          chunk.push_back(std::move(working));
          if (chunk_bytes >= ctx_->sort_space_bytes()) {
            RELDIV_RETURN_NOT_OK(cut(/*input_exhausted=*/false));
          }
        }
        return Status::OK();
      },
      [&]() -> Status {
        RELDIV_RETURN_NOT_OK(cut(/*input_exhausted=*/true));
        return FlushChunkWindow(&window);
      }));

  if (!in_memory_) {
    // Intermediate merges until one final merge step remains (footnote 2).
    while (runs_.size() > max_fan_in_) {
      std::vector<std::unique_ptr<Run>> group;
      const size_t take = std::min(max_fan_in_, runs_.size());
      group.assign(std::make_move_iterator(runs_.begin()),
                   std::make_move_iterator(runs_.begin() +
                                           static_cast<long>(take)));
      runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(take));
      RELDIV_RETURN_NOT_OK(MergeRuns(std::move(group)));
      intermediate_merges_++;
    }
    RELDIV_RETURN_NOT_OK(StartMerge(runs_));
  }
  open_ = true;
  have_pending_ = false;
  return Status::OK();
}

Status SortOperator::Step(Tuple* tuple, bool* has_next) {
  if (!open_) return Status::Internal("sort NextBatch() before Open()");
  if (in_memory_) {
    if (memory_pos_ >= memory_tuples_.size()) {
      *has_next = false;
      return Status::OK();
    }
    *tuple = std::move(memory_tuples_[memory_pos_++]);
    *has_next = true;
    return Status::OK();
  }
  if (!spec_.collapse_equal_keys) {
    kernels::SortKeyCode code;
    return MergeNext(tuple, &code, has_next);
  }
  // Group-collapse on the final merge output. Swaps, not moves, so the
  // caller's slot and the merge's scratch tuples keep being reused.
  while (true) {
    kernels::SortKeyCode next_code;
    bool has = false;
    RELDIV_RETURN_NOT_OK(MergeNext(&next_, &next_code, &has));
    if (!has) {
      if (have_pending_) {
        tuple->Swap(pending_);
        have_pending_ = false;
        *has_next = true;
        return Status::OK();
      }
      *has_next = false;
      return Status::OK();
    }
    if (!have_pending_) {
      pending_.Swap(next_);
      pending_code_ = next_code;
      have_pending_ = true;
      continue;
    }
    if (CompareCodedOn(ctx_, pending_code_, pending_, next_code, next_) ==
        0) {
      Combine(&pending_, next_);
      continue;
    }
    tuple->Swap(pending_);
    pending_.Swap(next_);
    pending_code_ = next_code;
    *has_next = true;
    return Status::OK();
  }
}

Status SortOperator::Close() {
  // Open()'s drain closed the child on every path.
  memory_tuples_.clear();
  readers_.clear();
  heads_.clear();
  heap_.clear();
  runs_.clear();
  open_ = false;
  return Status::OK();
}

}  // namespace reldiv
