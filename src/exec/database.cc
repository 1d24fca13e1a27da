#include "exec/database.h"

#include "common/row_codec.h"

namespace reldiv {

namespace {

/// Reads every live record of `store` with RecordScan::NextBatch, at most
/// `capacity` records (and one page) per call, and hands each Rid and its
/// decoded tuple to `visit` while the record's page is still fixed.
Status VisitRecords(RecordStore* store, const RowCodec& codec,
                    size_t capacity,
                    const std::function<Status(Rid, Tuple)>& visit) {
  RELDIV_ASSIGN_OR_RETURN(std::unique_ptr<RecordScan> scan, store->OpenScan());
  std::vector<RecordRef> refs(capacity);
  bool has_more = true;
  while (has_more) {
    size_t count = 0;
    RELDIV_RETURN_NOT_OK(
        scan->NextBatch(refs.data(), refs.size(), &count, &has_more));
    for (size_t i = 0; i < count; ++i) {
      Tuple tuple;
      RELDIV_RETURN_NOT_OK(codec.Decode(refs[i].payload, &tuple));
      RELDIV_RETURN_NOT_OK(visit(refs[i].rid, std::move(tuple)));
    }
  }
  return scan->Close();
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  auto db = std::make_unique<Database>(Passkey{});
  if (options.file_backed_disk) {
    RELDIV_ASSIGN_OR_RETURN(db->disk_,
                            SimDisk::OpenFileBacked(options.disk_path));
  } else {
    db->disk_ = std::make_unique<SimDisk>();
  }
  db->pool_ = options.pool_bytes == 0
                  ? nullptr
                  : std::make_unique<MemoryPool>(options.pool_bytes);
  db->buffer_manager_ =
      std::make_unique<BufferManager>(db->disk_.get(), db->pool_.get());
  if (db->pool_ != nullptr) {
    // Under memory pressure the buffer pool gives back unfixed frames.
    BufferManager* bm = db->buffer_manager_.get();
    db->pool_->SetReclaimer([bm] { return bm->TryShedFrame(); });
  }
  db->ctx_ = std::make_unique<ExecContext>(db->disk_.get(),
                                           db->buffer_manager_.get(),
                                           db->pool_.get(), &db->counters_);
  db->ctx_->set_sort_space_bytes(options.sort_space_bytes);
  return db;
}

Database::~Database() = default;

Result<Relation> Database::CreateTable(const std::string& name,
                                       Schema schema) {
  if (tables_.count(name) != 0) {
    return Status::InvalidArgument("table '" + name + "' already exists");
  }
  NamedTable table;
  table.schema = schema;
  table.store = std::make_unique<RecordFile>(disk_.get(),
                                             buffer_manager_.get(), name);
  RecordStore* store = table.store.get();
  tables_.emplace(name, std::move(table));
  return Relation{std::move(schema), store};
}

Result<Relation> Database::CreateTempTable(const std::string& name,
                                           Schema schema) {
  if (tables_.count(name) != 0) {
    return Status::InvalidArgument("table '" + name + "' already exists");
  }
  NamedTable table;
  table.schema = schema;
  table.store = std::make_unique<VirtualDevice>(pool_.get(), name);
  RecordStore* store = table.store.get();
  tables_.emplace(name, std::move(table));
  return Relation{std::move(schema), store};
}

Result<Relation> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return Relation{it->second.schema, it->second.store.get()};
}

Status Database::Insert(const std::string& name, const Tuple& tuple) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  NamedTable& table = it->second;
  RowCodec codec(table.schema);
  std::string buffer;
  RELDIV_RETURN_NOT_OK(codec.Encode(tuple, &buffer));
  RELDIV_RETURN_NOT_OK(table.store->Append(Slice(buffer)).status());
  for (const UpdateObserver& observer : observers_) {
    observer(name, table.store.get(), tuple, /*inserted=*/true);
  }
  return Status::OK();
}

Result<uint64_t> Database::DeleteWhere(
    const std::string& table,
    const std::function<bool(const Tuple&)>& predicate) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + table + "'");
  }
  NamedTable& named = it->second;
  auto* file = dynamic_cast<RecordFile*>(named.store.get());
  if (file == nullptr) {
    return Status::NotSupported("DeleteWhere on a temporary table");
  }
  // Collect victims first (the scan pins pages; deletion re-fixes them).
  RowCodec codec(named.schema);
  std::vector<std::pair<Rid, Tuple>> victims;
  RELDIV_RETURN_NOT_OK(VisitRecords(
      named.store.get(), codec, ctx_->batch_capacity(),
      [&](Rid rid, Tuple tuple) {
        if (predicate(tuple)) victims.emplace_back(rid, std::move(tuple));
        return Status::OK();
      }));
  for (const auto& [rid, tuple] : victims) {
    RELDIV_RETURN_NOT_OK(file->Delete(rid));
    for (const UpdateObserver& observer : observers_) {
      observer(table, named.store.get(), tuple, /*inserted=*/false);
    }
  }
  return static_cast<uint64_t>(victims.size());
}

void Database::ResetStats() {
  disk_->ResetStats();
  counters_.Reset();
  buffer_manager_->ResetStats();
}

}  // namespace reldiv
