#include "storage/storage_engine.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "storage/serializer.h"
#include "telemetry/trace.h"

namespace gemstone::storage {

StorageEngine::StorageEngine(SimulatedDisk* disk)
    : disk_(disk),
      commit_manager_(disk),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("engine.commits", commits_.value());
            sink->Counter("engine.objects_written", objects_written_.value());
            sink->Counter("engine.bytes_written", bytes_written_.value());
            sink->Counter("engine.objects_loaded", objects_loaded_.value());
            sink->Counter("engine.recovery_fallbacks",
                          recovery_fallbacks_.value());
            sink->Gauge("engine.free_tracks", free_tracks_gauge_.value());
            sink->Gauge("engine.epoch", epoch_gauge_.value());
          })) {}

EngineStats StorageEngine::stats() const {
  EngineStats stats;
  stats.commits = commits_.value();
  stats.objects_written = objects_written_.value();
  stats.bytes_written = bytes_written_.value();
  stats.objects_loaded = objects_loaded_.value();
  stats.recovery_fallbacks = recovery_fallbacks_.value();
  return stats;
}

Status StorageEngine::Format() {
  GS_RETURN_IF_ERROR(commit_manager_.Format());
  return Open();
}

Status StorageEngine::Open() {
  const std::vector<RootState> candidates =
      commit_manager_.RecoverRootCandidates();
  if (candidates.empty()) {
    return Status::Corruption("no valid root block on device");
  }
  // Try the newest root first; when one of its pages is unreadable (torn
  // track, bit rot, read fault, or a track a later commit reused), fall
  // back to the older slot — the reason the device keeps two. Every page
  // is checked against the checksum its parent records, so the fallback
  // adopts its own epoch's pages or nothing: never a hybrid.
  Status last_error = Status::OK();
  const RootState* adopted = nullptr;
  for (const RootState& root : candidates) {
    auto loaded = Catalog::Load(commit_manager_, root);
    if (!loaded.ok()) {
      recovery_fallbacks_.Increment();
      telemetry::RecordEvent(telemetry::TraceKind::kRecoveryFallback, 0,
                             root.epoch, 0, loaded.status().message());
      last_error = loaded.status();
      continue;
    }
    catalog_ = std::move(loaded).value();
    adopted = &root;
    break;
  }
  if (adopted == nullptr) {
    return last_error;
  }
  epoch_ = adopted->epoch;

  // Every track starts free; the root slots and whatever the catalog's
  // pages and extents occupy are taken back out.
  free_tracks_.Reset(disk_->num_tracks());
  free_tracks_.Take({CommitManager::kRootSlotA, CommitManager::kRootSlotB});
  for (const auto* pages : {&catalog_.leaves(), &catalog_.interiors()}) {
    for (const auto& [key, ref] : *pages) free_tracks_.Take(ref.tracks);
  }
  for (const auto& [oid, extent] : catalog_.entries()) {
    free_tracks_.Take(extent.tracks);
  }
  open_ = true;
  free_tracks_gauge_.Set(static_cast<std::int64_t>(free_tracks_.count()));
  epoch_gauge_.Set(static_cast<std::int64_t>(epoch_));
  return Status::OK();
}

Status StorageEngine::CommitObjects(
    const std::vector<const GsObject*>& objects, const SymbolTable& symbols) {
  std::vector<ObjectImage> images;
  images.reserve(objects.size());
  for (const GsObject* object : objects) images.emplace_back(object);
  return CommitImages(images, symbols);
}

Status StorageEngine::CommitImages(const std::vector<ObjectImage>& images,
                                   const SymbolTable& symbols) {
  GS_ASSIGN_OR_RETURN(PersistedCommit persisted, Persist(images, symbols));
  Adopt(std::move(persisted));
  return Status::OK();
}

Result<StorageEngine::PersistedCommit> StorageEngine::Persist(
    const std::vector<ObjectImage>& images, const SymbolTable& symbols) {
  if (!open_) return Status::TransactionState("engine not open");
  TELEM_SPAN("engine.commit");
  // 1. Box: serialize each image straight into the open track payload,
  // then carry every live fragment of an unchanged neighbour off the
  // tracks the superseded images vacate.
  std::vector<Boxer::Written> written;
  written.reserve(images.size());
  std::vector<TrackId> vacated;
  std::vector<Oid> carried;  // owners of the carried fragments, in order
  Boxing boxing;
  {
    TELEM_SPAN("commit.box");
    Boxer boxer(disk_->track_capacity());
    std::unordered_set<std::uint64_t> writing;
    for (const ObjectImage& image : images) {
      const Oid oid = image.object->oid();
      GS_ASSIGN_OR_RETURN(
          Boxer::Written w, boxer.Add(oid, [&](ByteWriter* out) {
            AppendObjectImage(image, symbols, out);
          }));
      written.push_back(w);
      if (!writing.insert(oid.raw).second) {
        return Status::InvalidArgument("object twice in one commit: " +
                                       oid.ToString());
      }
      if (const Extent* old = catalog_.Find(oid)) {
        vacated.insert(vacated.end(), old->tracks.begin(), old->tracks.end());
      }
    }
    std::sort(vacated.begin(), vacated.end());
    vacated.erase(std::unique(vacated.begin(), vacated.end()), vacated.end());
    for (TrackId track : vacated) {
      GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes,
                          disk_->ReadTrack(track));
      GS_RETURN_IF_ERROR(Boxer::ForEachFragment(
          bytes, [&](const Boxer::FragmentView& fragment) -> Status {
            if (writing.count(fragment.oid.raw) != 0) return Status::OK();
            const Extent* owner = catalog_.Find(fragment.oid);
            if (owner == nullptr ||
                std::find(owner->tracks.begin(), owner->tracks.end(),
                          track) == owner->tracks.end()) {
              return Status::OK();  // not a live fragment
            }
            boxer.Carry(fragment);
            carried.push_back(fragment.oid);
            return Status::OK();
          }));
    }
    boxing = boxer.Finish();
  }
  // 2. Allocate shadow tracks for the data.
  GS_ASSIGN_OR_RETURN(std::vector<TrackId> data_tracks,
                      free_tracks_.Allocate(boxing.payloads.size(), "device"));
  std::vector<TrackId> page_tracks;
  auto release_all = [&] {
    free_tracks_.Release(data_tracks);
    free_tracks_.Release(page_tracks);
  };
  // 3. The changed extents, ascending by oid: the new images, and each
  // carried neighbour with its vacated tracks swapped for fresh ones (its
  // image, hence its checksum, is unchanged).
  std::vector<std::pair<Oid, Extent>> changed;
  Linker::LinkResult linked;
  {
    TELEM_SPAN("commit.link");
    changed.reserve(images.size() + carried.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      const auto [first, end] = boxing.placements[i];
      Extent extent;
      extent.byte_len = written[i].byte_len;
      extent.checksum = written[i].checksum;
      extent.tracks.assign(data_tracks.begin() + first,
                           data_tracks.begin() + end);
      changed.emplace_back(images[i].object->oid(), std::move(extent));
    }
    // A carried neighbour keeps its tracks that stay and gains the fresh
    // ones its fragments landed on.
    std::map<std::uint64_t, std::vector<TrackId>> moved;
    for (std::size_t c = 0; c < carried.size(); ++c) {
      std::vector<TrackId>& fresh = moved[carried[c].raw];
      const TrackId t = data_tracks[boxing.placements[images.size() + c].first];
      if (std::find(fresh.begin(), fresh.end(), t) == fresh.end()) {
        fresh.push_back(t);
      }
    }
    for (const auto& [raw, fresh] : moved) {
      Extent extent = *catalog_.Find(Oid(raw));
      std::erase_if(extent.tracks, [&](TrackId t) {
        return std::binary_search(vacated.begin(), vacated.end(), t);
      });
      for (TrackId t : fresh) {
        if (std::find(extent.tracks.begin(), extent.tracks.end(), t) ==
            extent.tracks.end()) {
          extent.tracks.push_back(t);
        }
      }
      changed.emplace_back(Oid(raw), std::move(extent));
    }
    std::sort(changed.begin(), changed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    auto link = Linker::Link(
        catalog_, changed, commit_manager_,
        [&](std::size_t n) -> Result<std::vector<TrackId>> {
          GS_ASSIGN_OR_RETURN(std::vector<TrackId> tracks,
                              free_tracks_.Allocate(n, "device"));
          page_tracks.insert(page_tracks.end(), tracks.begin(), tracks.end());
          return tracks;
        });
    if (!link.ok()) {
      release_all();
      return link.status();
    }
    linked = std::move(link).value();
  }
  linked.root.epoch = epoch_ + 1;

  // 4. Safe group write: data tracks, then catalog pages, then the root.
  TrackWrites group;
  group.reserve(boxing.payloads.size() + linked.writes.size());
  for (std::size_t i = 0; i < boxing.payloads.size(); ++i) {
    group.emplace_back(data_tracks[i], std::move(boxing.payloads[i]));
  }
  for (auto& write : linked.writes) group.push_back(std::move(write));
  linked.writes.clear();
  std::uint64_t bytes_written = 0;
  for (const auto& [track, bytes] : group) bytes_written += bytes.size();
  Status commit_status =
      commit_manager_.CommitGroup(std::move(group), linked.root);
  if (!commit_status.ok()) {
    release_all();
    return commit_status;
  }
  return PersistedCommit{std::move(changed), std::move(linked),
                         std::move(vacated), images.size(), bytes_written};
}

void StorageEngine::Adopt(PersistedCommit persisted) {
  // The group is durable: adopt the new catalog pages and free what the
  // new root no longer reaches — the vacated data tracks (every live
  // fragment on them moved) and the superseded pages.
  free_tracks_.Release(persisted.vacated);
  free_tracks_.Release(persisted.linked.superseded);
  Linker::Apply(&catalog_, persisted.changed, std::move(persisted.linked));
  ++epoch_;
  commits_.Increment();
  objects_written_.Increment(persisted.objects);
  bytes_written_.Increment(persisted.bytes);
  free_tracks_gauge_.Set(static_cast<std::int64_t>(free_tracks_.count()));
  epoch_gauge_.Set(static_cast<std::int64_t>(epoch_));
}

Result<GsObject> StorageEngine::LoadObject(Oid oid, SymbolTable* symbols) {
  if (!open_) return Status::TransactionState("engine not open");
  const Extent* extent = catalog_.Find(oid);
  if (extent == nullptr) {
    return Status::NotFound("object not in catalog: " + oid.ToString());
  }
  std::vector<std::uint8_t> image(extent->byte_len);
  std::size_t placed = 0;
  for (TrackId t : extent->tracks) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> track, disk_->ReadTrack(t));
    GS_ASSIGN_OR_RETURN(
        std::size_t n,
        Boxer::ExtractFragments(track, oid,
                                std::span<std::uint8_t>(image)));
    placed += n;
  }
  if (placed != image.size()) {
    return Status::Corruption("object image incomplete: got " +
                              std::to_string(placed) + " of " +
                              std::to_string(image.size()) + " bytes");
  }
  if (Fnv1a(std::span<const std::uint8_t>(image)) != extent->checksum) {
    return Status::Corruption("object image checksum mismatch");
  }
  objects_loaded_.Increment();
  return DeserializeObject(image, symbols);
}

Result<std::vector<GsObject>> StorageEngine::LoadObjects(
    const std::vector<Oid>& oids, SymbolTable* symbols) {
  if (!open_) return Status::TransactionState("engine not open");
  // Plan: every distinct track, ascending (one sweep across the platter),
  // with the images it must fill.
  struct Pending {
    const Extent* extent;
    std::vector<std::uint8_t> image;
    std::size_t placed = 0;
  };
  std::vector<Pending> pending(oids.size());
  std::map<TrackId, std::vector<std::size_t>> plan;
  for (std::size_t i = 0; i < oids.size(); ++i) {
    const Extent* extent = catalog_.Find(oids[i]);
    if (extent == nullptr) {
      return Status::NotFound("object not in catalog: " +
                              oids[i].ToString());
    }
    pending[i].extent = extent;
    pending[i].image.resize(extent->byte_len);
    for (TrackId t : extent->tracks) plan[t].push_back(i);
  }
  for (const auto& [track, members] : plan) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes,
                        disk_->ReadTrack(track));
    // Accept fragments only for the requested images (the track also
    // carries its neighbours').
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> wanted;
    for (std::size_t i : members) wanted[oids[i].raw].push_back(i);
    // One sweep over the payload fills every co-located wanted image.
    GS_RETURN_IF_ERROR(Boxer::ForEachFragment(
        bytes, [&](const Boxer::FragmentView& fragment) -> Status {
          auto it = wanted.find(fragment.oid.raw);
          if (it == wanted.end()) return Status::OK();
          for (std::size_t i : it->second) {
            if (fragment.offset + fragment.bytes.size() >
                pending[i].image.size()) {
              return Status::Corruption("fragment outside image bounds");
            }
            std::copy(fragment.bytes.begin(), fragment.bytes.end(),
                      pending[i].image.begin() + fragment.offset);
            pending[i].placed += fragment.bytes.size();
          }
          return Status::OK();
        }));
  }
  std::vector<GsObject> out;
  out.reserve(oids.size());
  for (std::size_t i = 0; i < oids.size(); ++i) {
    if (pending[i].placed != pending[i].image.size()) {
      return Status::Corruption("object image incomplete: " +
                                oids[i].ToString());
    }
    if (Fnv1a(std::span<const std::uint8_t>(pending[i].image)) !=
        pending[i].extent->checksum) {
      return Status::Corruption("object image checksum mismatch: " +
                                oids[i].ToString());
    }
    GS_ASSIGN_OR_RETURN(GsObject object,
                        DeserializeObject(pending[i].image, symbols));
    out.push_back(std::move(object));
    objects_loaded_.Increment();
  }
  return out;
}

std::vector<Oid> StorageEngine::CatalogOids() const {
  std::vector<Oid> oids;
  oids.reserve(catalog_.size());
  for (const auto& [raw, extent] : catalog_.entries()) {
    oids.push_back(Oid(raw));
  }
  std::sort(oids.begin(), oids.end());
  return oids;
}

double StorageEngine::HistoricalHeatOf(Oid oid) const {
  const Extent* extent = catalog_.Find(oid);
  if (extent == nullptr) return 0;
  const TrackHeatmap& heatmap = disk_->heatmap();
  double heat = 0;
  for (TrackId track : extent->tracks) {
    heat += heatmap.HeatOf(track).historical_heat;
  }
  return heat;
}

void StorageEngine::NoteHistoricalObjectAccess(Oid oid) {
  const Extent* extent = catalog_.Find(oid);
  if (extent == nullptr) return;
  TrackHeatmap& heatmap = disk_->heatmap();
  for (TrackId track : extent->tracks) {
    heatmap.RecordRead(track, /*historical=*/true);
  }
}

}  // namespace gemstone::storage
