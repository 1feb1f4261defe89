#ifndef GEMSTONE_STORAGE_STORAGE_ENGINE_H_
#define GEMSTONE_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/result.h"
#include "object/gs_object.h"
#include "object/symbol_table.h"
#include "storage/boxer.h"
#include "storage/commit_manager.h"
#include "storage/free_track_map.h"
#include "storage/linker.h"
#include "storage/simulated_disk.h"
#include "telemetry/metrics.h"

namespace gemstone::storage {

/// Thin snapshot of the engine's telemetry counters (`engine.*`).
struct EngineStats {
  std::uint64_t commits = 0;
  std::uint64_t objects_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t objects_loaded = 0;
  std::uint64_t recovery_fallbacks = 0;  // roots abandoned during Open
};

/// The secondary-storage face of the Object Manager: orchestrates the
/// Boxer, Linker and Commit Manager over a track-granular device (§6).
///
/// Each commit shadows changed objects into fresh tracks, shadows the
/// catalog pages their extents live on, and flips the root atomically. A
/// crash between any two track writes recovers to the previous epoch
/// (verified by the failure-injection tests). Objects boxed together in
/// one commit land on adjacent tracks, which is what gives clustered
/// access its locality. A commit also rewrites the tracks its superseded
/// images vacate: the live fragments of their unchanged neighbours move
/// into the commit's fresh tracks, so a shared track never outlives its
/// last live fragment.
///
/// A commit is two steps. Persist boxes, links and writes the group and
/// flips the root; it reads `catalog_` but never mutates it, so it runs
/// beside readers that consult the catalog (NoteHistoricalObjectAccess,
/// HistoricalHeatOf). Adopt folds the durable link into `catalog_` and
/// frees the tracks the new root no longer reaches; it is the only step
/// that mutates what those readers see. CommitImages does both, for
/// callers that do not need the split.
///
/// Not internally synchronized. The TransactionManager serializes
/// Persist/Adopt pairs under its commit pipeline lock and runs Adopt
/// under its exclusive store lock, where no catalog reader runs; recovery
/// happens before sessions start.
class StorageEngine {
 public:
  explicit StorageEngine(SimulatedDisk* disk);

  /// Initializes an empty store (destroys any previous contents).
  Status Format();

  /// Recovers the newest valid root whose catalog pages read back intact
  /// — falling back to the older root slot (and counting
  /// `engine.recovery_fallbacks`) when one of the newest one's pages fails
  /// the checksum its parent records — then rebuilds the free-track map
  /// from the catalog's pages and extents.
  Status Open();

  bool is_open() const { return open_; }
  std::uint64_t epoch() const { return epoch_; }
  const Catalog& catalog() const { return catalog_; }
  SimulatedDisk* disk() { return disk_; }
  EngineStats stats() const;

  /// Durably writes this commit's changed objects (full images, history
  /// included) as one safe group. Objects appear on adjacent tracks in
  /// argument order.
  Status CommitObjects(const std::vector<const GsObject*>& objects,
                       const SymbolTable& symbols);

  /// CommitObjects for images a commit has yet to publish: each object is
  /// persisted with its appended bindings (ObjectImage). Persist, then
  /// Adopt.
  Status CommitImages(const std::vector<ObjectImage>& images,
                      const SymbolTable& symbols);

  /// A group whose root has flipped but which the engine has not adopted:
  /// the new extents and catalog pages, and the tracks the new root drops.
  struct PersistedCommit {
    std::vector<std::pair<Oid, Extent>> changed;
    Linker::LinkResult linked;
    std::vector<TrackId> vacated;
    std::uint64_t objects = 0;
    std::uint64_t bytes = 0;
  };

  /// The first half of CommitImages: writes `images` as one safe group
  /// and flips the root, leaving `catalog_` untouched. On failure the
  /// tracks it took are free again and nothing else changed. Must be
  /// followed by Adopt of its result before the next Persist.
  Result<PersistedCommit> Persist(const std::vector<ObjectImage>& images,
                                  const SymbolTable& symbols);

  /// The second half: folds a persisted commit into `catalog_`, frees the
  /// tracks its root no longer reaches, and advances the epoch. Cannot
  /// fail.
  void Adopt(PersistedCommit persisted);

  /// Reads one object back from its extent, verifying the image checksum.
  Result<GsObject> LoadObject(Oid oid, SymbolTable* symbols);

  /// Batched load: reads every distinct track covering `oids` exactly
  /// once and extracts all requested images from it — the payoff of the
  /// Boxer's clustering ("physical access paths parallel logical
  /// access", §6). Output order matches input order.
  Result<std::vector<GsObject>> LoadObjects(const std::vector<Oid>& oids,
                                            SymbolTable* symbols);

  bool Contains(Oid oid) const { return catalog_.Contains(oid); }
  std::vector<Oid> CatalogOids() const;

  /// Marks a time-dial read of `oid` on the heatmap: its extent tracks
  /// gain *historical* heat even when the object's past states were
  /// served from memory and no device read happened. This is how the
  /// current/historical split stays honest for in-memory history walks —
  /// the compaction signal (ROADMAP item 4) wants where the *audit*
  /// traffic lands, not just where its cache misses land. No-op for
  /// unknown oids. Caller holds whatever keeps Adopt out (the
  /// TransactionManager's store lock, shared); Persist may run beside it.
  void NoteHistoricalObjectAccess(Oid oid);

  /// Decayed *historical-channel* heat summed over `oid`'s extent tracks —
  /// the compaction policy's per-object demotion signal (an object whose
  /// history the time dial still visits regularly should keep it resident).
  /// 0 for unknown oids. Same synchronization contract as
  /// NoteHistoricalObjectAccess.
  double HistoricalHeatOf(Oid oid) const;

  std::size_t free_track_count() const { return free_tracks_.count(); }

 private:

  SimulatedDisk* disk_;
  CommitManager commit_manager_;

  bool open_ = false;
  std::uint64_t epoch_ = 0;
  Catalog catalog_;
  FreeTrackMap free_tracks_;

  telemetry::Counter commits_;
  telemetry::Counter objects_written_;
  telemetry::Counter bytes_written_;
  telemetry::Counter objects_loaded_;
  telemetry::Counter recovery_fallbacks_;
  // Mirrors of non-atomic state so the collector never races a commit.
  telemetry::Gauge free_tracks_gauge_;
  telemetry::Gauge epoch_gauge_;
  telemetry::Registration telemetry_;  // after the counters it samples
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_STORAGE_ENGINE_H_
