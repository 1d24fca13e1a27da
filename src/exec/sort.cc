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

SortOperator::SortOperator(ExecContext* ctx, std::unique_ptr<Operator> child,
                           SortSpec spec)
    : ctx_(ctx),
      child_(std::move(child)),
      input_(child_.get()),
      spec_(std::move(spec)),
      working_schema_(spec_.lifted_schema.has_value()
                          ? *spec_.lifted_schema
                          : child_->output_schema()),
      codec_(working_schema_),
      max_fan_in_(
          std::max<size_t>(2, ctx_->sort_space_bytes() / kSortRunBlockSize)) {}

SortOperator::~SortOperator() = default;

int SortOperator::CompareKeys(const Tuple& a, const Tuple& b) const {
  return CompareKeysOn(ctx_, a, b);
}

int SortOperator::CompareKeysOn(ExecContext* ctx, const Tuple& a,
                                const Tuple& b) const {
  ctx->CountComparisons(1);
  return a.CompareAt(spec_.keys, b);
}

uint64_t SortOperator::KeyCode(const Tuple& t) const {
  return spec_.keys.empty() ? 0 : kernels::NormalizedKey(t.value(spec_.keys[0]));
}

int SortOperator::CompareCodedOn(ExecContext* ctx, uint64_t code_a,
                                 const Tuple& a, uint64_t code_b,
                                 const Tuple& b) const {
  ctx->CountComparisons(1);
  if (code_a != code_b) return code_a < code_b ? -1 : 1;
  return a.CompareAt(spec_.keys, b);
}

void SortOperator::Combine(Tuple* acc, const Tuple& next) const {
  if (spec_.merge) {
    spec_.merge(acc, next);
  }
  // Default: keep the first tuple (duplicate elimination).
}

bool SortOperator::HeapLess(const HeapEntry& a, const HeapEntry& b) const {
  const int c = CompareCodedOn(ctx_, a.code, a.tuple, b.code, b.tuple);
  if (c != 0) return c < 0;
  return a.reader < b.reader;  // stable across runs: older run first
}

void SortOperator::HeapPush(HeapEntry entry) {
  heap_.push_back(std::move(entry));
  size_t i = heap_.size() - 1;
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!HeapLess(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

SortOperator::HeapEntry SortOperator::HeapPop() {
  HeapEntry top = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
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
  // Normalized-key quicksort (Do/Graefe/Naughton): each tuple's first sort
  // key is encoded once into an order-preserving code, and most comparisons
  // resolve on one integer compare; only code-equal pairs pay the full key
  // comparison. CompareCodedOn is extensionally equal to CompareKeysOn and
  // counts identically, so the sort's decision sequence, the run contents,
  // and the Comp totals are those of the uncoded sort.
  struct Keyed {
    uint64_t code;
    Tuple tuple;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(chunk->size());
  for (Tuple& tuple : *chunk) {
    const uint64_t code = KeyCode(tuple);
    keyed.push_back(Keyed{code, std::move(tuple)});
  }
  std::sort(keyed.begin(), keyed.end(),
            [this, ctx](const Keyed& a, const Keyed& b) {
              return CompareCodedOn(ctx, a.code, a.tuple, b.code, b.tuple) < 0;
            });
  if (spec_.collapse_equal_keys && !keyed.empty()) {
    // Combine each equal-key group down to one tuple, in stream. Comparison
    // pattern: every tuple is compared once against its group's accumulator
    // (the group-closing mismatch included), matching the merge paths'
    // counting.
    std::vector<Keyed> collapsed;
    collapsed.reserve(keyed.size());
    for (size_t i = 0; i < keyed.size(); ++i) {
      if (i + 1 < keyed.size()) {
        Keyed acc = std::move(keyed[i]);
        size_t j = i + 1;
        while (j < keyed.size() &&
               CompareCodedOn(ctx, acc.code, acc.tuple, keyed[j].code,
                              keyed[j].tuple) == 0) {
          Combine(&acc.tuple, keyed[j].tuple);
          j++;
        }
        i = j - 1;
        collapsed.push_back(std::move(acc));
      } else {
        collapsed.push_back(std::move(keyed[i]));
      }
    }
    keyed = std::move(collapsed);
  }
  chunk->clear();
  for (Keyed& k : keyed) chunk->push_back(std::move(k.tuple));
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
  std::vector<std::unique_ptr<RunReader>> readers;
  readers.reserve(inputs.size());
  for (const auto& run : inputs) {
    readers.push_back(std::make_unique<RunReader>(ctx_->disk(), run.get()));
  }
  std::vector<HeapEntry> saved_heap;
  std::swap(saved_heap, heap_);

  std::string record;
  for (size_t i = 0; i < readers.size(); ++i) {
    bool has = false;
    RELDIV_RETURN_NOT_OK(readers[i]->Next(&record, &has));
    if (!has) continue;
    HeapEntry entry;
    entry.reader = i;
    RELDIV_RETURN_NOT_OK(codec_.Decode(Slice(record), &entry.tuple));
    entry.code = KeyCode(entry.tuple);
    HeapPush(std::move(entry));
  }

  auto output = std::make_unique<Run>(ctx_->disk());
  std::string encoded;
  bool have_acc = false;
  Tuple acc;
  uint64_t acc_code = 0;
  auto flush_acc = [&]() -> Status {
    if (!have_acc) return Status::OK();
    encoded.clear();
    RELDIV_RETURN_NOT_OK(codec_.Encode(acc, &encoded));
    ctx_->CountMoveBytes(encoded.size());
    return output->Append(Slice(encoded));
  };

  while (!heap_.empty()) {
    HeapEntry top = HeapPop();
    bool has = false;
    RELDIV_RETURN_NOT_OK(readers[top.reader]->Next(&record, &has));
    if (has) {
      HeapEntry refill;
      refill.reader = top.reader;
      RELDIV_RETURN_NOT_OK(codec_.Decode(Slice(record), &refill.tuple));
      refill.code = KeyCode(refill.tuple);
      HeapPush(std::move(refill));
    }
    if (spec_.collapse_equal_keys) {
      if (have_acc &&
          CompareCodedOn(ctx_, acc_code, acc, top.code, top.tuple) == 0) {
        Combine(&acc, top.tuple);
      } else {
        RELDIV_RETURN_NOT_OK(flush_acc());
        acc = std::move(top.tuple);
        acc_code = top.code;
        have_acc = true;
      }
    } else {
      encoded.clear();
      RELDIV_RETURN_NOT_OK(codec_.Encode(top.tuple, &encoded));
      ctx_->CountMoveBytes(encoded.size());
      RELDIV_RETURN_NOT_OK(output->Append(Slice(encoded)));
    }
  }
  RELDIV_RETURN_NOT_OK(flush_acc());
  RELDIV_RETURN_NOT_OK(output->Finish());

  std::swap(saved_heap, heap_);
  runs_.push_back(std::move(output));
  return Status::OK();
}

Status SortOperator::OpenFinalMerge() {
  final_readers_.clear();
  heap_.clear();
  std::string record;
  for (size_t i = 0; i < runs_.size(); ++i) {
    final_readers_.push_back(
        std::make_unique<RunReader>(ctx_->disk(), runs_[i].get()));
    bool has = false;
    RELDIV_RETURN_NOT_OK(final_readers_[i]->Next(&record, &has));
    if (!has) continue;
    HeapEntry entry;
    entry.reader = i;
    RELDIV_RETURN_NOT_OK(codec_.Decode(Slice(record), &entry.tuple));
    entry.code = KeyCode(entry.tuple);
    HeapPush(std::move(entry));
  }
  return Status::OK();
}

Status SortOperator::Open() {
  RELDIV_RETURN_NOT_OK(child_->Open());
  child_open_ = true;
  input_.Reset(ctx_->batch_capacity());

  std::vector<Tuple> batch;
  size_t batch_bytes = 0;
  bool input_exhausted = false;
  bool first_batch = true;
  // Spilled chunks awaiting sort + run write; flushed whenever dop chunks
  // have accumulated, so at most dop sort spaces are held at once.
  std::vector<std::vector<Tuple>> window;

  while (!input_exhausted) {
    Tuple raw;
    bool has = false;
    RELDIV_RETURN_NOT_OK(input_.Pull(&raw, &has));
    if (!has) {
      input_exhausted = true;
    } else {
      Tuple working = spec_.lift ? spec_.lift(raw) : std::move(raw);
      batch_bytes += EstimateTupleBytes(working);
      batch.push_back(std::move(working));
    }
    const bool batch_full = batch_bytes >= ctx_->sort_space_bytes();
    if ((input_exhausted || batch_full) && (!batch.empty() || first_batch)) {
      if (first_batch && input_exhausted) {
        // Whole input fits in the sort space: the normalized-key in-memory
        // sort (+ collapse), no I/O. SortChunk's collapse compares every
        // tuple once against its group's accumulator — the same count as
        // the adjacent-pair loop this path used before the kernelization.
        RELDIV_RETURN_NOT_OK(SortChunk(ctx_, &batch));
        memory_tuples_ = std::move(batch);
        in_memory_ = true;
        memory_pos_ = 0;
        break;
      }
      if (!batch.empty()) {
        window.push_back(std::move(batch));
        batch.clear();
        batch_bytes = 0;
        if (window.size() >= ctx_->dop()) {
          RELDIV_RETURN_NOT_OK(FlushChunkWindow(&window));
        }
      }
      first_batch = false;
    }
  }
  RELDIV_RETURN_NOT_OK(FlushChunkWindow(&window));
  // One Close() attempt settles the debt even if it fails — a second call
  // on an already-failed child is not owed anything.
  child_open_ = false;
  RELDIV_RETURN_NOT_OK(child_->Close());

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
    RELDIV_RETURN_NOT_OK(OpenFinalMerge());
  }
  open_ = true;
  have_pending_ = false;
  return Status::OK();
}

Status SortOperator::RawMergeNext(Tuple* tuple, uint64_t* code,
                                  bool* has_next) {
  if (heap_.empty()) {
    *has_next = false;
    return Status::OK();
  }
  HeapEntry top = HeapPop();
  std::string record;
  bool has = false;
  RELDIV_RETURN_NOT_OK(final_readers_[top.reader]->Next(&record, &has));
  if (has) {
    HeapEntry refill;
    refill.reader = top.reader;
    RELDIV_RETURN_NOT_OK(codec_.Decode(Slice(record), &refill.tuple));
    refill.code = KeyCode(refill.tuple);
    HeapPush(std::move(refill));
  }
  *tuple = std::move(top.tuple);
  *code = top.code;
  *has_next = true;
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
    uint64_t code = 0;
    return RawMergeNext(tuple, &code, has_next);
  }
  // Group-collapse on the final merge output.
  while (true) {
    Tuple next;
    uint64_t next_code = 0;
    bool has = false;
    RELDIV_RETURN_NOT_OK(RawMergeNext(&next, &next_code, &has));
    if (!has) {
      if (have_pending_) {
        *tuple = std::move(pending_);
        have_pending_ = false;
        *has_next = true;
        return Status::OK();
      }
      *has_next = false;
      return Status::OK();
    }
    if (!have_pending_) {
      pending_ = std::move(next);
      pending_code_ = next_code;
      have_pending_ = true;
      continue;
    }
    if (CompareCodedOn(ctx_, pending_code_, pending_, next_code, next) == 0) {
      Combine(&pending_, next);
      continue;
    }
    *tuple = std::move(pending_);
    pending_ = std::move(next);
    pending_code_ = next_code;
    *has_next = true;
    return Status::OK();
  }
}

Status SortOperator::Close() {
  Status status;
  if (child_open_) {
    // Open() failed while draining the input; the child still holds its
    // resources (pinned pages, open scans) and must be closed here.
    child_open_ = false;
    status = child_->Close();
  }
  memory_tuples_.clear();
  final_readers_.clear();
  heap_.clear();
  runs_.clear();
  open_ = false;
  return status;
}

}  // namespace reldiv
