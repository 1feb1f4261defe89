#include "storage/archival_store.h"

#include <utility>

#include "storage/serializer.h"
#include "telemetry/trace.h"

namespace gemstone::storage {

ArchivalStore::ArchivalStore()
    : telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("storage.archive.archives", archives_.value());
            sink->Counter("storage.archive.restores", restores_.value());
            sink->Gauge("storage.archive.objects", objects_gauge_.value());
            sink->Gauge("storage.archive.bytes", bytes_gauge_.value());
            sink->Gauge("storage.archive.runs", runs_gauge_.value());
            sink->Gauge("storage.archive.run_bytes",
                        run_bytes_gauge_.value());
          })) {}

void ArchivalStore::SyncMirrors() {
  objects_gauge_.Set(static_cast<std::int64_t>(images_.size()));
  bytes_gauge_.Set(static_cast<std::int64_t>(total_bytes_));
  runs_gauge_.Set(static_cast<std::int64_t>(runs_.size()));
  run_bytes_gauge_.Set(static_cast<std::int64_t>(run_bytes_));
}

Status ArchivalStore::Archive(ObjectMemory* memory, Oid oid) {
  GS_ASSIGN_OR_RETURN(GsObject object, memory->Detach(oid));
  std::vector<std::uint8_t> image =
      SerializeObject(object, memory->symbols());
  const std::uint64_t image_bytes = image.size();
  total_bytes_ += image_bytes;
  images_[oid.raw] = std::move(image);
  archives_.Increment();
  SyncMirrors();
  telemetry::RecordEvent(telemetry::TraceKind::kArchive, 0, oid.raw,
                         image_bytes, "");
  return Status::OK();
}

Status ArchivalStore::Restore(ObjectMemory* memory, Oid oid) {
  auto it = images_.find(oid.raw);
  if (it == images_.end()) {
    return Status::NotFound("not archived: " + oid.ToString());
  }
  GS_ASSIGN_OR_RETURN(GsObject object,
                      DeserializeObject(it->second, &memory->symbols()));
  GS_RETURN_IF_ERROR(memory->Insert(std::move(object)));
  const std::uint64_t image_bytes = it->second.size();
  total_bytes_ -= image_bytes;
  images_.erase(it);
  restores_.Increment();
  SyncMirrors();
  telemetry::RecordEvent(telemetry::TraceKind::kRestore, 0, oid.raw,
                         image_bytes, "");
  return Status::OK();
}

Result<GsObject> ArchivalStore::Peek(Oid oid, SymbolTable* symbols) const {
  auto it = images_.find(oid.raw);
  if (it == images_.end()) {
    return Status::NotFound("not archived: " + oid.ToString());
  }
  return DeserializeObject(it->second, symbols);
}

Status ArchivalStore::StoreRun(std::uint64_t run_id,
                               std::vector<std::uint8_t> bytes) {
  auto it = runs_.find(run_id);
  if (it != runs_.end()) {
    return Status::InvalidArgument("archive already holds run " +
                                   std::to_string(run_id));
  }
  run_bytes_ += bytes.size();
  runs_.emplace(run_id, std::move(bytes));
  SyncMirrors();
  return Status::OK();
}

Result<std::vector<std::uint8_t>> ArchivalStore::ReadRun(
    std::uint64_t run_id) const {
  auto it = runs_.find(run_id);
  if (it == runs_.end()) {
    return Status::NotFound("no archived run " + std::to_string(run_id));
  }
  return it->second;
}

Status ArchivalStore::DropRun(std::uint64_t run_id) {
  auto it = runs_.find(run_id);
  if (it == runs_.end()) {
    return Status::NotFound("no archived run " + std::to_string(run_id));
  }
  run_bytes_ -= it->second.size();
  runs_.erase(it);
  SyncMirrors();
  return Status::OK();
}

std::vector<std::uint64_t> ArchivalStore::RunIds() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(runs_.size());
  for (const auto& [id, bytes] : runs_) ids.push_back(id);
  return ids;
}

}  // namespace gemstone::storage
