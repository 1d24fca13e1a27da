#ifndef RELDIV_EXEC_DATABASE_H_
#define RELDIV_EXEC_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/counters.h"
#include "common/tuple.h"
#include "exec/exec_context.h"
#include "exec/relation.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "storage/memory_manager.h"
#include "storage/record_file.h"
#include "storage/virtual_device.h"

namespace reldiv {

/// Configuration of an in-process database instance.
struct DatabaseOptions {
  /// Shared main-memory budget for buffer pool, hash tables, and virtual
  /// devices. 0 = unbounded (tests/examples).
  size_t pool_bytes = 64 * 1024 * 1024;

  /// Back the simulated disk with a Unix file instead of memory (§5.1
  /// supports both).
  bool file_backed_disk = false;
  std::string disk_path = "/tmp/reldiv-disk.bin";

  /// Sort space per sort operator (the paper's 100 KB default).
  size_t sort_space_bytes = kDefaultSortSpaceBytes;
};

/// Owner of one self-contained engine instance: the simulated disk, memory
/// pool, buffer manager, CPU counters, execution context, and a catalog of
/// named relations. This is the front door used by the examples and the
/// experiment harness.
class Database {
  /// Pass-key restricting construction to Open() while keeping
  /// std::make_unique usable.
  struct Passkey {
    explicit Passkey() = default;
  };

 public:
  static Result<std::unique_ptr<Database>> Open(
      const DatabaseOptions& options = {});

  explicit Database(Passkey) {}

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a disk-resident table.
  Result<Relation> CreateTable(const std::string& name, Schema schema);

  /// Creates a memory-resident temporary table (virtual device).
  Result<Relation> CreateTempTable(const std::string& name, Schema schema);

  /// Looks up a relation by name.
  Result<Relation> GetTable(const std::string& name) const;

  /// Appends one tuple to a named table.
  Status Insert(const std::string& name, const Tuple& tuple);

  /// Deletes every row of `table` matching `predicate`. Returns the number
  /// of rows deleted. Disk tables only (temporary virtual devices are
  /// append-only).
  Result<uint64_t> DeleteWhere(const std::string& table,
                               const std::function<bool(const Tuple&)>&
                                   predicate);

  /// Catalog-level mutation hook: runs synchronously on the mutating thread
  /// after every successful Insert and after each DeleteWhere victim, with
  /// the owning store and the tuple. The service layer's quotient cache
  /// registers one so cached quotients are maintained incrementally instead
  /// of recomputed (store-level writes that bypass the catalog are caught
  /// by the RecordStore version check instead). Register during setup,
  /// before concurrent use; observers are never removed.
  using UpdateObserver = std::function<void(
      const std::string& table, RecordStore* store, const Tuple& tuple,
      bool inserted)>;
  void AddUpdateObserver(UpdateObserver observer) {
    observers_.push_back(std::move(observer));
  }

  ExecContext* ctx() { return ctx_.get(); }
  SimDisk* disk() { return disk_.get(); }
  BufferManager* buffer_manager() { return buffer_manager_.get(); }
  MemoryPool* pool() { return pool_.get(); }
  CpuCounters* counters() { return &counters_; }

  /// Clears disk statistics and CPU counters (per-experiment reset).
  void ResetStats();

 private:
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<MemoryPool> pool_;
  std::unique_ptr<BufferManager> buffer_manager_;
  CpuCounters counters_;
  std::unique_ptr<ExecContext> ctx_;

  struct NamedTable {
    Schema schema;
    std::unique_ptr<RecordStore> store;
  };
  std::map<std::string, NamedTable> tables_;
  std::vector<UpdateObserver> observers_;
};

}  // namespace reldiv

#endif  // RELDIV_EXEC_DATABASE_H_
