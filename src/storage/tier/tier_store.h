#ifndef GEMSTONE_STORAGE_TIER_TIER_STORE_H_
#define GEMSTONE_STORAGE_TIER_TIER_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "core/sync.h"
#include "object/association_table.h"
#include "object/symbol_table.h"
#include "storage/archival_store.h"
#include "storage/commit_manager.h"
#include "storage/free_track_map.h"
#include "storage/simulated_disk.h"
#include "storage/tier/cold_run.h"
#include "storage/tier/version_record.h"
#include "telemetry/metrics.h"

namespace gemstone::storage::tier {

/// Geometry and policy of the levelled store.
struct TierOptions {
  /// Cold platter levels (L1..Ln), each its own SimulatedDisk — the
  /// paper's §6 multi-disk shape. L0 is the primary object store and not
  /// owned here; the ArchivalStore (when attached) is the level below Ln.
  std::size_t cold_levels = 2;
  /// Tracks per level device. Deeper levels get this multiplied by the
  /// level's growth factor so a merged run always has shadow headroom.
  TrackId tracks_per_level = 256;
  std::size_t track_capacity = 8192;
  /// A level holding more than this many runs is merge-compacted into
  /// the next level down.
  std::size_t runs_per_level = 4;
  /// Half-life for the per-level device heatmaps; 0 = heatmap default.
  std::uint64_t heatmap_half_life_ns = 0;
};

/// Point-in-time shape of one level, for /tiers and tests.
struct TierLevelStats {
  std::size_t runs = 0;       // platter runs resident on the level
  std::uint64_t records = 0;  // bindings across those runs
  std::uint64_t bytes = 0;
  std::size_t free_tracks = 0;
  std::uint64_t epoch = 0;    // the level's commit epoch
};

/// Migration/compaction counters (monotonic, also exported as metrics).
struct TierCounters {
  std::uint64_t migrations = 0;        // AppendRun commits
  std::uint64_t records_demoted = 0;
  std::uint64_t compactions = 0;       // level -> level merges
  std::uint64_t archive_merges = 0;    // deepest level -> ArchivalStore
  std::uint64_t resolves = 0;          // point lookups served
  std::uint64_t resolve_misses = 0;    // lookups with no binding anywhere
  std::uint64_t recovery_fallbacks = 0;
};

/// The levelled temporal track store (ROADMAP item 4): object history
/// demoted off the primary device lands here as sorted immutable cold
/// runs, spread across per-level SimulatedDisks with the ArchivalStore as
/// the deepest level.
///
/// Durability: each level has its own CommitManager. A run append or a
/// compaction writes fresh tracks and flips that level's root — the same
/// dual-slot shadow protocol as the primary engine, so a crash at any
/// track write recovers the level to its previous catalog. Cross-level
/// moves order their flips destination-first: the worst a crash leaves is
/// the same run present at two levels (resolution tolerates duplicates;
/// the next compaction folds them). A gap is impossible.
///
/// Concurrency: mu_ (LockRank::kStorageTier) serializes catalog access.
/// It is taken from under the txn store lock by time-dial resolution and
/// lock-free by the compactor; inner work touches the symbol table and
/// the level devices, both inner ranks. The stats mirrors are atomics so
/// the metrics collector never takes mu_.
class TierStore {
 public:
  /// `archive` may be null (no archival level); when present it must
  /// outlive the store. The symbol table is the process-wide one — run
  /// values re-intern through it on decode.
  TierStore(SymbolTable* symbols, ArchivalStore* archive,
            TierOptions options = {});

  /// Initializes empty level catalogs (destroys previous contents).
  Status Format();

  /// Recovers every level from its newest valid root, falling back to the
  /// older slot when a catalog or a run fails verification — counting
  /// `storage.tier.recovery_fallbacks`. Fence indexes are rebuilt here.
  Status Open();

  bool is_open() const { return open_.load(std::memory_order_relaxed); }
  std::size_t cold_levels() const { return levels_.size(); }

  /// The level's device, 0-based from L1. Tests inject faults through it.
  SimulatedDisk* level_disk(std::size_t level);

  /// Durably appends one sorted run to L1 and flips its catalog. The
  /// records must be RecordOrder-sorted (CollectHistory emits them so).
  Status AppendRun(const std::vector<VersionRecord>& records);

  /// Runs one round of size-triggered maintenance: any level over its run
  /// budget merges into the level below (the deepest into the archive).
  Status MaybeCompact();

  /// Force-merges `level`'s runs downward regardless of budget.
  Status CompactLevel(std::size_t level);

  /// The binding of (`oid`, element) visible at `at`, searched across
  /// every level and the archive; nullopt when no cold run binds it.
  Result<std::optional<Association>> ResolveNamed(Oid oid,
                                                  std::string_view name,
                                                  TxnTime at);
  Result<std::optional<Association>> ResolveIndexed(Oid oid,
                                                    std::uint64_t index,
                                                    TxnTime at);

  /// Every cold binding of (`oid`, `name`) across all levels, ascending
  /// by time, duplicates folded — the tier half of History().
  Result<std::vector<Association>> NamedHistoryOf(Oid oid,
                                                  std::string_view name);

  std::vector<TierLevelStats> LevelStats() const;
  TierCounters counters() const;

  /// The /tiers payload: per-level sizes, counters, options.
  std::string StatusJson() const;

 private:
  struct Fence {
    std::size_t offset = 0;  // byte offset of the record in the run
    Oid oid;
    std::uint8_t kind = VersionRecord::kNamed;
    std::string name;
    std::uint64_t index = 0;
    TxnTime time = kTimeOrigin;
  };

  struct RunState {
    std::uint64_t id = 0;
    bool archived = false;           // payload in the ArchivalStore
    std::uint32_t record_count = 0;
    TxnTime min_time = 0, max_time = 0;
    Oid min_oid, max_oid;
    std::uint32_t byte_len = 0;      // including the checksum footer
    std::uint64_t checksum = 0;      // FNV-1a over bytes minus footer
    std::vector<TrackId> tracks;     // empty when archived
    std::vector<Fence> fences;       // rebuilt at Open, every 32 records
  };

  struct Level {
    std::unique_ptr<SimulatedDisk> disk;
    std::unique_ptr<CommitManager> commits;
    std::uint64_t epoch = 0;
    std::vector<TrackId> catalog_tracks;
    FreeTrackMap free_tracks;
    std::vector<RunState> runs;
    telemetry::Histogram* read_us = nullptr;  // storage.tier.l<k>.read_us
  };

  static std::vector<Fence> BuildFences(const std::vector<VersionRecord>& recs,
                                        const std::vector<std::size_t>& offs);

  /// Writes `group` (run data) and the level catalog, then flips the
  /// level's root to name that catalog as its one page.
  Status FlipLevelLocked(Level& level, std::vector<RunState> next_runs,
                         TrackWrites group) GS_REQUIRES(mu_);
  static Result<std::vector<std::uint8_t>> ReadLevelCatalog(
      const Level& level, const RootState& root);
  /// Rebuilds the free map from the level's adopted runs + catalog — the
  /// single undo/commit point for track bookkeeping on both flip paths.
  void RecomputeFreeLocked(Level& level) GS_REQUIRES(mu_);
  std::vector<std::uint8_t> EncodeLevelCatalogLocked(
      const std::vector<RunState>& runs) const GS_REQUIRES(mu_);
  Result<std::vector<RunState>> DecodeLevelCatalog(
      std::span<const std::uint8_t> bytes, std::uint64_t* next_run_id) const;

  /// Reads `[begin, end)` of a run's byte stream — covering platter
  /// tracks only, or a slice of the archive blob.
  Result<std::vector<std::uint8_t>> ReadRunBytesLocked(
      const Level& level, const RunState& run, std::size_t begin,
      std::size_t end) const GS_REQUIRES(mu_);

  /// Best binding <= `at` for `key` within one run; nullopt if absent.
  Result<std::optional<Association>> ProbeRunLocked(
      const Level& level, const RunState& run, const ElementKey& key,
      TxnTime at) GS_REQUIRES(mu_);

  Result<std::optional<Association>> ResolveLocked(const ElementKey& key,
                                                   TxnTime at)
      GS_REQUIRES(mu_);

  Status CompactLevelLocked(std::size_t level_index, bool force)
      GS_REQUIRES(mu_);
  Status AppendRunLocked(const std::vector<VersionRecord>& records)
      GS_REQUIRES(mu_);
  Result<std::vector<VersionRecord>> DecodeWholeRunLocked(
      const Level& level, const RunState& run) GS_REQUIRES(mu_);

  void SyncMirrorsLocked() GS_REQUIRES(mu_);

  SymbolTable* symbols_;
  ArchivalStore* archive_;
  const TierOptions options_;

  mutable Mutex mu_{LockRank::kStorageTier, "storage.tier_store_mu"};
  std::vector<Level> levels_ GS_GUARDED_BY(mu_);
  std::uint64_t next_run_id_ GS_GUARDED_BY(mu_) = 1;
  std::atomic<bool> open_{false};

  telemetry::Histogram* archive_read_us_;  // storage.tier.archive.read_us

  // Counters + atomic mirrors of catalog shape; the collector reads only
  // these (taking mu_ there would invert kTelemetryMetrics < kStorageTier).
  telemetry::Counter migrations_;
  telemetry::Counter records_demoted_;
  telemetry::Counter compactions_;
  telemetry::Counter archive_merges_;
  telemetry::Counter resolves_;
  telemetry::Counter resolve_misses_;
  telemetry::Counter recovery_fallbacks_;
  static constexpr std::size_t kMaxMirroredLevels = 8;
  std::atomic<std::uint64_t> level_runs_[kMaxMirroredLevels] = {};
  std::atomic<std::uint64_t> level_records_[kMaxMirroredLevels] = {};
  std::atomic<std::uint64_t> level_bytes_[kMaxMirroredLevels] = {};
  telemetry::Registration telemetry_;  // after everything it samples

  friend class TierStoreTestPeer;
};

}  // namespace gemstone::storage::tier

#endif  // GEMSTONE_STORAGE_TIER_TIER_STORE_H_
