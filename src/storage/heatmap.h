#ifndef GEMSTONE_STORAGE_HEATMAP_H_
#define GEMSTONE_STORAGE_HEATMAP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/annotations.h"
#include "core/sync.h"

namespace gemstone::storage {

using TrackId = std::uint32_t;

/// Per-track access heat with exponential decay (DESIGN.md §14). Every
/// read/write/seek deposits one unit of heat on its track; heat halves
/// every `half_life_ns`, so the map converges on *recent* access density
/// rather than accumulating forever like the raw `disk.*` counters.
/// Accesses are classified current-state vs. historical — the split the
/// tier compactor's policy reads (DESIGN.md §15.3): tracks hot with
/// *current* traffic should cluster near their directory; tracks hot
/// only with *historical* reads are audit traffic over settled data.
/// Historical means a time-dial read (the session's dial, an explicit
/// `@T`, a History walk): device I/O under one is classified by
/// telemetry::ThreadAccessIsHistorical, and the transaction manager also
/// deposits once per extent track of the object read. A read by a
/// transaction pinned to a snapshot is its own current read (at kTimeNow,
/// resolved at the pin) and deposits nothing here.
///
/// Decay is applied lazily per track at record/query time (no background
/// work): heat' = heat * 2^(-dt / half_life) before each deposit.
///
/// Locking: `mu_` is rank storage.heatmap, inner to storage.device — the
/// disk records into the map while holding its own lock. Aggregates the
/// registry collector exports are mirrored into plain atomics so the
/// collector (which runs under the registry lock) never touches `mu_`.
class TrackHeatmap {
 public:
  /// Default half-life: 60 s. Long enough that a compaction pass sees the
  /// last minute of workload, short enough that yesterday's bulk load is
  /// cold by lunch.
  static constexpr std::uint64_t kDefaultHalfLifeNs = 60ull * 1000000000ull;

  /// Payload caps for the /heatmap admin route.
  static constexpr std::size_t kDefaultTrackLimit = 32;
  static constexpr std::size_t kMaxTrackLimit = 1024;
  static constexpr std::size_t kDefaultSegments = 16;

  explicit TrackHeatmap(TrackId num_tracks,
                        std::uint64_t half_life_ns = kDefaultHalfLifeNs);
  TrackHeatmap(const TrackHeatmap&) = delete;
  TrackHeatmap& operator=(const TrackHeatmap&) = delete;

  /// Records one access. `now_ns` is the decay clock (TraceNowNs
  /// timebase); pass 0 to use the real clock — tests pass explicit
  /// timestamps to make the decay math deterministic.
  void RecordRead(TrackId track, bool historical, std::uint64_t now_ns = 0);
  void RecordWrite(TrackId track, bool historical, std::uint64_t now_ns = 0);
  void RecordSeek(TrackId track, std::uint64_t now_ns = 0);

  /// One track's state, decayed to the query instant.
  struct TrackHeat {
    TrackId track = 0;
    double read_heat = 0;        // decayed, current-state accesses
    double write_heat = 0;       // decayed, current-state accesses
    double historical_heat = 0;  // decayed, time-dial accesses
    std::uint64_t reads = 0;     // raw counts, never decay
    std::uint64_t writes = 0;
    std::uint64_t seeks = 0;
  };

  /// The `limit` hottest tracks by total decayed heat, hottest first.
  /// Never-touched tracks are skipped entirely.
  std::vector<TrackHeat> Hottest(std::size_t limit,
                                 std::uint64_t now_ns = 0) const;

  /// One track's decayed heat at the query instant (zeros for an
  /// out-of-range or never-touched track). The point query the compaction
  /// policy runs per candidate object extent.
  TrackHeat HeatOf(TrackId track, std::uint64_t now_ns = 0) const;

  /// One segment = 1/n of the track space, heats summed. The coarse view
  /// that makes a 10k-track device printable.
  std::vector<TrackHeat> Segments(std::size_t n,
                                  std::uint64_t now_ns = 0) const;

  /// The /heatmap document: device shape, aggregate counters, the
  /// `track_limit` hottest tracks, and `segments` segment rows.
  std::string ToJson(std::size_t track_limit = kDefaultTrackLimit,
                     std::size_t segments = kDefaultSegments,
                     std::uint64_t now_ns = 0) const;

  TrackId num_tracks() const { return num_tracks_; }
  std::uint64_t half_life_ns() const { return half_life_ns_; }

  // -- Lock-free aggregate mirrors ------------------------------------------
  // Safe from the registry collector: plain relaxed atomics, no mu_.
  std::uint64_t current_accesses() const {
    return current_accesses_.load(std::memory_order_relaxed);
  }
  std::uint64_t historical_accesses() const {
    return historical_accesses_.load(std::memory_order_relaxed);
  }
  /// Track of the hottest deposit seen recently (approximate — updated at
  /// record time, not decayed; the JSON view is the precise one).
  std::uint32_t hot_track() const {
    return hot_track_.load(std::memory_order_relaxed);
  }
  std::uint64_t touched_tracks() const {
    return touched_tracks_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    double read_heat = 0;
    double write_heat = 0;
    double historical_heat = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t seeks = 0;
    std::uint64_t last_ns = 0;  // decay clock of the heats above
    bool touched = false;
  };

  enum class Access : std::uint8_t { kRead, kWrite, kSeek };

  /// Decays `cell` in place to `now_ns`.
  void DecayTo(Cell* cell, std::uint64_t now_ns) const;
  void Deposit(TrackId track, Access access, bool historical,
               std::uint64_t now_ns);

  const TrackId num_tracks_;
  const std::uint64_t half_life_ns_;

  mutable Mutex mu_{LockRank::kStorageHeatmap, "storage.heatmap_mu"};
  std::vector<Cell> cells_ GS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> current_accesses_{0};
  std::atomic<std::uint64_t> historical_accesses_{0};
  std::atomic<std::uint32_t> hot_track_{0};
  std::atomic<std::uint64_t> touched_tracks_{0};
  std::atomic<std::uint64_t> hot_track_milliheat_{0};
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_HEATMAP_H_
