#include "storage/tier/tier_store.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_set>
#include <utility>

#include "telemetry/trace.h"

namespace gemstone::storage::tier {

namespace {

constexpr std::uint32_t kTierCatalogMagic = 0x47535443;  // "GSTC"
constexpr std::size_t kFenceInterval = 32;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Sorts and folds exact-duplicate bindings — the shape repeated
/// demotions and level merges produce by design.
void SortAndDedupe(std::vector<VersionRecord>* records) {
  std::stable_sort(records->begin(), records->end(), RecordOrder);
  records->erase(std::unique(records->begin(), records->end(), SameBinding),
                 records->end());
}

}  // namespace

TierStore::TierStore(SymbolTable* symbols, ArchivalStore* archive,
                     TierOptions options)
    : symbols_(symbols),
      archive_(archive),
      options_(options),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("storage.tier.migrations", migrations_.value());
            sink->Counter("storage.tier.records_demoted",
                          records_demoted_.value());
            sink->Counter("storage.tier.compactions", compactions_.value());
            sink->Counter("storage.tier.archive_merges",
                          archive_merges_.value());
            sink->Counter("storage.tier.resolves", resolves_.value());
            sink->Counter("storage.tier.resolve_misses",
                          resolve_misses_.value());
            sink->Counter("storage.tier.recovery_fallbacks",
                          recovery_fallbacks_.value());
            const std::size_t n =
                std::min(options_.cold_levels, kMaxMirroredLevels);
            for (std::size_t i = 0; i < n; ++i) {
              const std::string prefix =
                  "storage.tier.l" + std::to_string(i + 1);
              sink->Gauge(prefix + ".runs",
                          static_cast<std::int64_t>(level_runs_[i].load(
                              std::memory_order_relaxed)));
              sink->Gauge(prefix + ".records",
                          static_cast<std::int64_t>(level_records_[i].load(
                              std::memory_order_relaxed)));
              sink->Gauge(prefix + ".bytes",
                          static_cast<std::int64_t>(level_bytes_[i].load(
                              std::memory_order_relaxed)));
            }
          })) {
  archive_read_us_ = telemetry::MetricsRegistry::Global().GetHistogram(
      "storage.tier.archive.read_us");
  MutexLock lock(mu_);
  levels_.reserve(options_.cold_levels);
  for (std::size_t k = 0; k < options_.cold_levels; ++k) {
    Level level;
    // Each level deeper doubles in capacity: a merge into level k+1 must
    // shadow the combined runs of level k alongside what k+1 already holds.
    const TrackId tracks = options_.tracks_per_level << k;
    level.disk = std::make_unique<SimulatedDisk>(
        tracks, options_.track_capacity, options_.heatmap_half_life_ns);
    level.commits = std::make_unique<CommitManager>(level.disk.get());
    level.read_us = telemetry::MetricsRegistry::Global().GetHistogram(
        "storage.tier.l" + std::to_string(k + 1) + ".read_us");
    levels_.push_back(std::move(level));
  }
}

SimulatedDisk* TierStore::level_disk(std::size_t level) {
  MutexLock lock(mu_);
  return level < levels_.size() ? levels_[level].disk.get() : nullptr;
}

Status TierStore::Format() {
  MutexLock lock(mu_);
  for (Level& level : levels_) {
    GS_RETURN_IF_ERROR(level.commits->Format());
    level.epoch = 1;  // Format seeds epochs 0 and 1; recovery adopts 1
    level.catalog_tracks.clear();
    level.runs.clear();
    RecomputeFreeLocked(level);
  }
  next_run_id_ = 1;
  SyncMirrorsLocked();
  open_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status TierStore::Open() {
  MutexLock lock(mu_);
  // Which archived-run ids any recoverable root still references — the
  // complement gets garbage collected (a crash between StoreRun and the
  // catalog flip orphans the new blob).
  std::unordered_set<std::uint64_t> referenced_blobs;
  for (Level& level : levels_) {
    const std::vector<RootState> candidates =
        level.commits->RecoverRootCandidates();
    if (candidates.empty()) {
      return Status::Corruption("tier level has no valid root (not formatted?)");
    }
    bool adopted = false;
    Status last_error = Status::OK();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const RootState& root = candidates[c];
      std::vector<RunState> runs;
      std::uint64_t catalog_next_id = 1;
      if (!root.pages.empty()) {
        auto bytes = ReadLevelCatalog(level, root);
        if (!bytes.ok()) {
          last_error = bytes.status();
          recovery_fallbacks_.Increment();
          continue;
        }
        auto parsed = DecodeLevelCatalog(bytes.value(), &catalog_next_id);
        if (!parsed.ok()) {
          last_error = parsed.status();
          recovery_fallbacks_.Increment();
          continue;
        }
        runs = std::move(parsed).value();
      }
      // Verify every run the catalog references and rebuild its fence
      // index; one bad run condemns the whole root.
      bool runs_ok = true;
      for (RunState& run : runs) {
        Result<std::vector<std::uint8_t>> blob =
            run.archived
                ? (archive_ != nullptr
                       ? archive_->ReadRun(run.id)
                       : Result<std::vector<std::uint8_t>>(Status::Unavailable(
                             "catalog references archived run but no "
                             "archival store attached")))
                : [&]() -> Result<std::vector<std::uint8_t>> {
                    std::vector<std::uint8_t> bytes;
                    for (TrackId t : run.tracks) {
                      GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> track,
                                          level.disk->ReadTrack(t));
                      bytes.insert(bytes.end(), track.begin(), track.end());
                    }
                    return bytes;
                  }();
        if (!blob.ok() || blob.value().size() != run.byte_len) {
          last_error = blob.ok() ? Status::Corruption(
                                       "tier run length mismatch on recovery")
                                 : blob.status();
          runs_ok = false;
          break;
        }
        auto decoded = DecodeRun(blob.value(), symbols_);
        if (!decoded.ok() || decoded.value().run_id != run.id) {
          last_error = decoded.ok()
                           ? Status::Corruption("tier run id mismatch")
                           : decoded.status();
          runs_ok = false;
          break;
        }
        run.fences =
            BuildFences(decoded.value().records, decoded.value().offsets);
      }
      if (!runs_ok) {
        recovery_fallbacks_.Increment();
        continue;
      }
      if (c > 0) {
        telemetry::RecordEvent(telemetry::TraceKind::kRecoveryFallback, 0,
                               root.epoch, 0,
                               "tier level fell back to older root");
      }
      level.epoch = root.epoch;
      level.catalog_tracks =
          root.pages.empty() ? std::vector<TrackId>{} : root.pages[0].tracks;
      level.runs = std::move(runs);
      next_run_id_ = std::max(next_run_id_, catalog_next_id);
      RecomputeFreeLocked(level);
      adopted = true;
      break;
    }
    if (!adopted) {
      return last_error.ok()
                 ? Status::Corruption("tier level unrecoverable")
                 : last_error;
    }
    // Blobs any *parseable* candidate references stay (the older root is
    // the fallback if the adopted slot's catalog track rots later —
    // exactly the engine's shadow-retention rule).
    for (const RootState& root : candidates) {
      if (root.pages.empty()) continue;
      auto bytes = ReadLevelCatalog(level, root);
      if (!bytes.ok()) continue;
      std::uint64_t ignored = 0;
      auto parsed = DecodeLevelCatalog(bytes.value(), &ignored);
      if (!parsed.ok()) continue;
      for (const RunState& run : parsed.value()) {
        if (run.archived) referenced_blobs.insert(run.id);
      }
    }
  }
  if (archive_ != nullptr) {
    for (std::uint64_t id : archive_->RunIds()) {
      if (referenced_blobs.count(id) == 0) {
        (void)archive_->DropRun(id);
      }
    }
  }
  SyncMirrorsLocked();
  open_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<TierStore::Fence> TierStore::BuildFences(
    const std::vector<VersionRecord>& recs,
    const std::vector<std::size_t>& offs) {
  std::vector<Fence> fences;
  for (std::size_t i = 0; i < recs.size(); i += kFenceInterval) {
    Fence fence;
    fence.offset = offs[i];
    fence.oid = recs[i].oid;
    fence.kind = recs[i].kind;
    fence.name = recs[i].name;
    fence.index = recs[i].index;
    fence.time = recs[i].time;
    fences.push_back(std::move(fence));
  }
  return fences;
}

void TierStore::RecomputeFreeLocked(Level& level) {
  level.free_tracks.Reset(level.disk->num_tracks());
  level.free_tracks.Take(
      {CommitManager::kRootSlotA, CommitManager::kRootSlotB});
  level.free_tracks.Take(level.catalog_tracks);
  for (const RunState& run : level.runs) level.free_tracks.Take(run.tracks);
}

std::vector<std::uint8_t> TierStore::EncodeLevelCatalogLocked(
    const std::vector<RunState>& runs) const {
  ByteWriter out;
  out.PutU32(kTierCatalogMagic);
  out.PutU64(next_run_id_);
  out.PutU32(static_cast<std::uint32_t>(runs.size()));
  for (const RunState& run : runs) {
    out.PutU64(run.id);
    out.PutU8(run.archived ? 1 : 0);
    out.PutU32(run.record_count);
    out.PutU64(run.min_time);
    out.PutU64(run.max_time);
    out.PutU64(run.min_oid.raw);
    out.PutU64(run.max_oid.raw);
    out.PutU32(run.byte_len);
    out.PutU64(run.checksum);
    out.PutU32(static_cast<std::uint32_t>(run.tracks.size()));
    for (TrackId t : run.tracks) out.PutU32(t);
  }
  return out.Take();
}

Result<std::vector<TierStore::RunState>> TierStore::DecodeLevelCatalog(
    std::span<const std::uint8_t> bytes, std::uint64_t* next_run_id) const {
  ByteReader in(bytes);
  GS_ASSIGN_OR_RETURN(std::uint32_t magic, in.GetU32());
  if (magic != kTierCatalogMagic) {
    return Status::Corruption("tier catalog magic mismatch");
  }
  GS_ASSIGN_OR_RETURN(*next_run_id, in.GetU64());
  GS_ASSIGN_OR_RETURN(std::uint32_t count, in.GetU32());
  std::vector<RunState> runs;
  runs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RunState run;
    GS_ASSIGN_OR_RETURN(run.id, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::uint8_t archived, in.GetU8());
    run.archived = archived != 0;
    GS_ASSIGN_OR_RETURN(run.record_count, in.GetU32());
    GS_ASSIGN_OR_RETURN(run.min_time, in.GetU64());
    GS_ASSIGN_OR_RETURN(run.max_time, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::uint64_t min_oid, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::uint64_t max_oid, in.GetU64());
    run.min_oid = Oid(min_oid);
    run.max_oid = Oid(max_oid);
    GS_ASSIGN_OR_RETURN(run.byte_len, in.GetU32());
    GS_ASSIGN_OR_RETURN(run.checksum, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::uint32_t ntracks, in.GetU32());
    for (std::uint32_t t = 0; t < ntracks; ++t) {
      GS_ASSIGN_OR_RETURN(TrackId track, in.GetU32());
      run.tracks.push_back(track);
    }
    runs.push_back(std::move(run));
  }
  if (in.remaining() != 0) {
    return Status::Corruption("tier catalog has trailing bytes");
  }
  return runs;
}

Result<std::vector<std::uint8_t>> TierStore::ReadLevelCatalog(
    const Level& level, const RootState& root) {
  if (root.depth != 1 || root.pages.size() != 1) {
    return Status::Corruption("tier level root names no single catalog page");
  }
  return level.commits->ReadPage(root.pages[0]);
}

Status TierStore::FlipLevelLocked(Level& level,
                                  std::vector<RunState> next_runs,
                                  TrackWrites group) {
  std::vector<std::uint8_t> catalog_bytes =
      EncodeLevelCatalogLocked(next_runs);
  auto cat_tracks = level.free_tracks.Allocate(
      level.commits->TracksFor(catalog_bytes.size()), "tier level");
  if (!cat_tracks.ok()) {
    RecomputeFreeLocked(level);
    return cat_tracks.status();
  }
  // The level catalog is the one page its root names.
  RootState root;
  root.epoch = level.epoch + 1;
  root.pages.push_back(level.commits->StagePage(
      0, std::move(catalog_bytes), std::move(cat_tracks).value(), &group));
  const Status st = level.commits->CommitGroup(std::move(group), root);
  if (!st.ok()) {
    // Previous root still rules the device; drop the speculative
    // allocations so in-memory bookkeeping matches it again.
    RecomputeFreeLocked(level);
    return st;
  }
  ++level.epoch;
  level.catalog_tracks = std::move(root.pages[0].tracks);
  level.runs = std::move(next_runs);
  RecomputeFreeLocked(level);
  SyncMirrorsLocked();
  return Status::OK();
}

Status TierStore::AppendRun(const std::vector<VersionRecord>& records) {
  MutexLock lock(mu_);
  if (!open_.load(std::memory_order_relaxed)) {
    return Status::TransactionState("tier store is not open");
  }
  return AppendRunLocked(records);
}

Status TierStore::AppendRunLocked(const std::vector<VersionRecord>& records) {
  if (records.empty()) return Status::OK();
  if (levels_.empty()) {
    return Status::Unavailable("tier store configured with no cold levels");
  }
  std::vector<VersionRecord> sorted = records;
  SortAndDedupe(&sorted);

  Level& level = levels_.front();
  const std::uint64_t id = next_run_id_++;
  EncodedRun encoded = EncodeRun(id, sorted, *symbols_);
  const std::size_t n_data = level.commits->TracksFor(encoded.bytes.size());

  // One forced merge downward when L1 is too full to shadow the new run
  // (data + a worst-case catalog rewrite).
  if (level.free_tracks.count() < n_data + 2 && !level.runs.empty()) {
    GS_RETURN_IF_ERROR(CompactLevelLocked(0, /*force=*/true));
  }
  auto data_tracks = level.free_tracks.Allocate(n_data, "tier level");
  if (!data_tracks.ok()) {
    RecomputeFreeLocked(level);
    return data_tracks.status();
  }

  RunState run;
  run.id = id;
  run.record_count = static_cast<std::uint32_t>(sorted.size());
  run.min_time = sorted.front().time;
  run.max_time = sorted.front().time;
  for (const VersionRecord& r : sorted) {
    run.min_time = std::min(run.min_time, r.time);
    run.max_time = std::max(run.max_time, r.time);
  }
  run.min_oid = sorted.front().oid;
  run.max_oid = sorted.back().oid;
  run.byte_len = static_cast<std::uint32_t>(encoded.bytes.size());
  run.checksum = Fnv1a(std::span<const std::uint8_t>(encoded.bytes)
                           .first(encoded.bytes.size() - 8));
  run.tracks = data_tracks.value();
  run.fences = BuildFences(sorted, encoded.offsets);

  std::vector<RunState> next_runs = level.runs;
  next_runs.push_back(std::move(run));
  TrackWrites group;
  level.commits->Chunk(encoded.bytes, data_tracks.value(), &group);
  GS_RETURN_IF_ERROR(
      FlipLevelLocked(level, std::move(next_runs), std::move(group)));
  migrations_.Increment();
  records_demoted_.Increment(sorted.size());
  return Status::OK();
}

Result<std::vector<VersionRecord>> TierStore::DecodeWholeRunLocked(
    const Level& level, const RunState& run) {
  GS_ASSIGN_OR_RETURN(
      std::vector<std::uint8_t> bytes,
      ReadRunBytesLocked(level, run, 0, run.byte_len));
  GS_ASSIGN_OR_RETURN(DecodedRun decoded, DecodeRun(bytes, symbols_));
  return std::move(decoded.records);
}

Status TierStore::MaybeCompact() {
  MutexLock lock(mu_);
  if (!open_.load(std::memory_order_relaxed)) {
    return Status::TransactionState("tier store is not open");
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    GS_RETURN_IF_ERROR(CompactLevelLocked(i, /*force=*/false));
  }
  return Status::OK();
}

Status TierStore::CompactLevel(std::size_t level) {
  MutexLock lock(mu_);
  if (level >= levels_.size()) {
    return Status::OutOfRange("no tier level " + std::to_string(level));
  }
  return CompactLevelLocked(level, /*force=*/true);
}

Status TierStore::CompactLevelLocked(std::size_t level_index, bool force) {
  Level& src = levels_[level_index];
  std::size_t platter_runs = 0;
  for (const RunState& run : src.runs) {
    if (!run.archived) ++platter_runs;
  }
  if (!force && platter_runs <= options_.runs_per_level) return Status::OK();
  if (src.runs.empty()) return Status::OK();

  const bool deepest = level_index + 1 == levels_.size();

  // Merge-sort every source run (archived included at the deepest level).
  std::vector<VersionRecord> merged;
  std::vector<std::uint64_t> source_ids;
  std::uint64_t merged_from = 0;
  for (const RunState& run : src.runs) {
    GS_ASSIGN_OR_RETURN(std::vector<VersionRecord> records,
                        DecodeWholeRunLocked(src, run));
    merged.insert(merged.end(), std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
    source_ids.push_back(run.id);
    ++merged_from;
  }
  SortAndDedupe(&merged);
  if (merged.empty()) return Status::OK();

  const std::uint64_t id = next_run_id_++;
  EncodedRun encoded = EncodeRun(id, merged, *symbols_);

  RunState run;
  run.id = id;
  run.record_count = static_cast<std::uint32_t>(merged.size());
  run.min_time = merged.front().time;
  run.max_time = merged.front().time;
  for (const VersionRecord& r : merged) {
    run.min_time = std::min(run.min_time, r.time);
    run.max_time = std::max(run.max_time, r.time);
  }
  run.min_oid = merged.front().oid;
  run.max_oid = merged.back().oid;
  run.byte_len = static_cast<std::uint32_t>(encoded.bytes.size());
  run.checksum = Fnv1a(std::span<const std::uint8_t>(encoded.bytes)
                           .first(encoded.bytes.size() - 8));
  run.fences = BuildFences(merged, encoded.offsets);

  if (deepest && archive_ != nullptr) {
    // Fold the level — platter runs plus any previous mega-run — into one
    // archive blob. Store the blob first, then flip the catalog; a crash
    // between the two orphans the blob (GC'd at Open), never loses a run.
    run.archived = true;
    GS_RETURN_IF_ERROR(archive_->StoreRun(id, encoded.bytes));
    const Status st = FlipLevelLocked(src, {run}, {});
    if (!st.ok()) {
      (void)archive_->DropRun(id);
      return st;
    }
    for (std::uint64_t old_id : source_ids) {
      if (old_id != id && archive_ != nullptr) {
        (void)archive_->DropRun(old_id);
      }
    }
    archive_merges_.Increment();
    telemetry::RecordEvent(
        telemetry::TraceKind::kTierCompaction, 0, level_index + 1,
        merged.size(),
        "merged " + std::to_string(merged_from) + " runs into archive");
    return Status::OK();
  }

  Level& dst = deepest ? src : levels_[level_index + 1];
  if (deepest && src.runs.size() <= 1) return Status::OK();
  const std::size_t n_data = dst.commits->TracksFor(encoded.bytes.size());
  auto data_tracks = dst.free_tracks.Allocate(n_data, "tier level");
  if (!data_tracks.ok()) {
    RecomputeFreeLocked(dst);
    return data_tracks.status();
  }
  run.tracks = data_tracks.value();

  std::vector<RunState> dst_next = dst.runs;
  if (deepest) dst_next.clear();  // self-merge replaces the level wholesale
  dst_next.push_back(std::move(run));
  TrackWrites group;
  dst.commits->Chunk(encoded.bytes, data_tracks.value(), &group);
  GS_RETURN_IF_ERROR(
      FlipLevelLocked(dst, std::move(dst_next), std::move(group)));
  if (!deepest) {
    // Destination is durable; empty the source. A crash (or fault) right
    // here leaves the same records on both levels — resolution takes the
    // max-time duplicate, and the next merge folds them.
    GS_RETURN_IF_ERROR(FlipLevelLocked(src, {}, {}));
  }
  compactions_.Increment();
  telemetry::RecordEvent(
      telemetry::TraceKind::kTierCompaction, 0, level_index + 1,
      merged.size(),
      deepest ? "self-merge (no archive attached)"
              : "merged into level " + std::to_string(level_index + 2));
  return Status::OK();
}

Result<std::vector<std::uint8_t>> TierStore::ReadRunBytesLocked(
    const Level& level, const RunState& run, std::size_t begin,
    std::size_t end) const {
  if (begin > end || end > run.byte_len) {
    return Status::Internal("tier run window out of bounds");
  }
  if (run.archived) {
    if (archive_ == nullptr) {
      return Status::Unavailable("archived run without archival store");
    }
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> blob,
                        archive_->ReadRun(run.id));
    if (blob.size() < end) {
      return Status::Corruption("archived run shorter than its catalog entry");
    }
    return std::vector<std::uint8_t>(blob.begin() + begin, blob.begin() + end);
  }
  const std::size_t cap = level.disk->track_capacity();
  const std::size_t first = begin / cap;
  const std::size_t last = end == begin ? first : (end - 1) / cap;
  if (last >= run.tracks.size()) {
    return Status::Corruption("tier run window beyond its track extent");
  }
  std::vector<std::uint8_t> bytes;
  bytes.reserve((last - first + 1) * cap);
  for (std::size_t t = first; t <= last; ++t) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> track,
                        level.disk->ReadTrack(run.tracks[t]));
    bytes.insert(bytes.end(), track.begin(), track.end());
  }
  const std::size_t offset = begin - first * cap;
  if (offset + (end - begin) > bytes.size()) {
    return Status::Corruption("tier run track shorter than expected");
  }
  return std::vector<std::uint8_t>(bytes.begin() + offset,
                                   bytes.begin() + offset + (end - begin));
}

Result<std::optional<Association>> TierStore::ProbeRunLocked(
    const Level& level, const RunState& run, const ElementKey& key,
    TxnTime at) {
  // Fence binary search: first fence strictly greater than (key, at).
  const auto fence_greater = [&](const Fence& f) {
    if (f.oid != key.oid) return f.oid > key.oid;
    if (f.kind != key.kind) return f.kind > key.kind;
    if (f.kind == VersionRecord::kNamed) {
      const int c = std::string_view(f.name).compare(key.name);
      if (c != 0) return c > 0;
    } else if (f.index != key.index) {
      return f.index > key.index;
    }
    return f.time > at;
  };
  std::size_t lo = 0, hi = run.fences.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fence_greater(run.fences[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == 0) return std::optional<Association>();  // run starts past key
  const std::size_t idx = lo - 1;
  const std::size_t window_begin = run.fences[idx].offset;
  const std::size_t window_end = idx + 1 < run.fences.size()
                                     ? run.fences[idx + 1].offset
                                     : run.byte_len - 8;
  const std::uint64_t start_ns = NowNs();
  GS_ASSIGN_OR_RETURN(
      std::vector<std::uint8_t> bytes,
      ReadRunBytesLocked(level, run, window_begin, window_end));
  ByteReader in(bytes);
  std::optional<Association> best;
  while (in.remaining() > 0) {
    GS_ASSIGN_OR_RETURN(VersionRecord record, DecodeRecord(&in, symbols_));
    const int cmp = CompareElement(record, key);
    if (cmp > 0) break;
    if (cmp < 0) continue;
    if (record.time > at) break;
    best = Association{record.time, std::move(record.value)};
  }
  telemetry::Histogram* hist = run.archived ? archive_read_us_ : level.read_us;
  if (hist != nullptr) hist->Observe((NowNs() - start_ns) / 1000);
  return best;
}

Result<std::optional<Association>> TierStore::ResolveLocked(
    const ElementKey& key, TxnTime at) {
  resolves_.Increment();
  std::optional<Association> best;
  for (Level& level : levels_) {
    // Newest runs first: demotion emits disjoint (floor, boundary]
    // windows, so once a binding is found, every older run's max_time
    // prunes it without touching the platter.
    for (auto it = level.runs.rbegin(); it != level.runs.rend(); ++it) {
      const RunState& run = *it;
      if (run.min_time > at) continue;
      if (best.has_value() && run.max_time <= best->time) continue;
      if (key.oid < run.min_oid || key.oid > run.max_oid) continue;
      GS_ASSIGN_OR_RETURN(std::optional<Association> candidate,
                          ProbeRunLocked(level, run, key, at));
      if (candidate.has_value() &&
          (!best.has_value() || candidate->time > best->time)) {
        best = std::move(candidate);
      }
    }
  }
  if (!best.has_value()) resolve_misses_.Increment();
  return best;
}

Result<std::optional<Association>> TierStore::ResolveNamed(
    Oid oid, std::string_view name, TxnTime at) {
  MutexLock lock(mu_);
  return ResolveLocked(ElementKey{oid, VersionRecord::kNamed, name, 0}, at);
}

Result<std::optional<Association>> TierStore::ResolveIndexed(
    Oid oid, std::uint64_t index, TxnTime at) {
  MutexLock lock(mu_);
  return ResolveLocked(ElementKey{oid, VersionRecord::kIndexed, {}, index},
                       at);
}

Result<std::vector<Association>> TierStore::NamedHistoryOf(
    Oid oid, std::string_view name) {
  MutexLock lock(mu_);
  const ElementKey key{oid, VersionRecord::kNamed, name, 0};
  std::map<TxnTime, Value> merged;
  for (Level& level : levels_) {
    for (const RunState& run : level.runs) {
      if (key.oid < run.min_oid || key.oid > run.max_oid) continue;
      if (run.fences.empty()) continue;
      // An element's group may span several fence windows (fences land
      // every kFenceInterval records, a history can be longer), so the
      // scan range is [last fence strictly below the element, first
      // fence strictly above it) — the whole group lies inside.
      const auto element_of = [&](const Fence& f) {
        // Three-way fence element vs key, ignoring time.
        if (f.oid != key.oid) return f.oid < key.oid ? -1 : 1;
        if (f.kind != key.kind) return f.kind < key.kind ? -1 : 1;
        const int c = std::string_view(f.name).compare(key.name);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      };
      const auto search = [&](int bound) {
        // First fence index whose element compares >= `bound`.
        std::size_t lo = 0, hi = run.fences.size();
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if (element_of(run.fences[mid]) < bound) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        return lo;
      };
      const std::size_t first_at_or_after = search(0);
      const std::size_t first_after = search(1);
      const std::size_t begin_idx =
          first_at_or_after > 0 ? first_at_or_after - 1 : 0;
      const std::size_t window_begin = run.fences[begin_idx].offset;
      const std::size_t window_end = first_after < run.fences.size()
                                         ? run.fences[first_after].offset
                                         : run.byte_len - 8;
      if (window_end <= window_begin) continue;  // group not in this run
      GS_ASSIGN_OR_RETURN(
          std::vector<std::uint8_t> bytes,
          ReadRunBytesLocked(level, run, window_begin, window_end));
      ByteReader in(bytes);
      while (in.remaining() > 0) {
        GS_ASSIGN_OR_RETURN(VersionRecord record,
                            DecodeRecord(&in, symbols_));
        const int cmp = CompareElement(record, key);
        if (cmp > 0) break;
        if (cmp < 0) continue;
        merged[record.time] = std::move(record.value);
      }
    }
  }
  std::vector<Association> out;
  out.reserve(merged.size());
  for (auto& [time, value] : merged) {
    out.push_back(Association{time, std::move(value)});
  }
  return out;
}

void TierStore::SyncMirrorsLocked() {
  for (std::size_t i = 0; i < levels_.size() && i < kMaxMirroredLevels; ++i) {
    std::uint64_t runs = 0, records = 0, bytes = 0;
    for (const RunState& run : levels_[i].runs) {
      ++runs;
      records += run.record_count;
      bytes += run.byte_len;
    }
    level_runs_[i].store(runs, std::memory_order_relaxed);
    level_records_[i].store(records, std::memory_order_relaxed);
    level_bytes_[i].store(bytes, std::memory_order_relaxed);
  }
}

std::vector<TierLevelStats> TierStore::LevelStats() const {
  MutexLock lock(mu_);
  std::vector<TierLevelStats> stats;
  stats.reserve(levels_.size());
  for (const Level& level : levels_) {
    TierLevelStats s;
    for (const RunState& run : level.runs) {
      ++s.runs;
      s.records += run.record_count;
      s.bytes += run.byte_len;
    }
    s.free_tracks = level.free_tracks.count();
    s.epoch = level.epoch;
    stats.push_back(s);
  }
  return stats;
}

TierCounters TierStore::counters() const {
  TierCounters c;
  c.migrations = migrations_.value();
  c.records_demoted = records_demoted_.value();
  c.compactions = compactions_.value();
  c.archive_merges = archive_merges_.value();
  c.resolves = resolves_.value();
  c.resolve_misses = resolve_misses_.value();
  c.recovery_fallbacks = recovery_fallbacks_.value();
  return c;
}

std::string TierStore::StatusJson() const {
  const std::vector<TierLevelStats> stats = LevelStats();
  const TierCounters c = counters();
  std::string json = "{\"levels\":[";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i > 0) json += ",";
    json += "{\"level\":" + std::to_string(i + 1) +
            ",\"runs\":" + std::to_string(stats[i].runs) +
            ",\"records\":" + std::to_string(stats[i].records) +
            ",\"bytes\":" + std::to_string(stats[i].bytes) +
            ",\"free_tracks\":" + std::to_string(stats[i].free_tracks) +
            ",\"epoch\":" + std::to_string(stats[i].epoch) + "}";
  }
  json += "]";
  if (archive_ != nullptr) {
    json += ",\"archive\":{\"runs\":" + std::to_string(archive_->run_count()) +
            ",\"bytes\":" + std::to_string(archive_->run_bytes()) + "}";
  }
  json += ",\"counters\":{\"migrations\":" + std::to_string(c.migrations) +
          ",\"records_demoted\":" + std::to_string(c.records_demoted) +
          ",\"compactions\":" + std::to_string(c.compactions) +
          ",\"archive_merges\":" + std::to_string(c.archive_merges) +
          ",\"resolves\":" + std::to_string(c.resolves) +
          ",\"resolve_misses\":" + std::to_string(c.resolve_misses) +
          ",\"recovery_fallbacks\":" + std::to_string(c.recovery_fallbacks) +
          "}";
  json += ",\"options\":{\"cold_levels\":" +
          std::to_string(options_.cold_levels) +
          ",\"tracks_per_level\":" + std::to_string(options_.tracks_per_level) +
          ",\"runs_per_level\":" + std::to_string(options_.runs_per_level) +
          "}}";
  return json;
}

}  // namespace gemstone::storage::tier
