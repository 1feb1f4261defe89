#ifndef GEMSTONE_STORAGE_SIMULATED_DISK_H_
#define GEMSTONE_STORAGE_SIMULATED_DISK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "core/annotations.h"
#include "core/result.h"
#include "core/status.h"
#include "core/sync.h"
#include "storage/heatmap.h"
#include "telemetry/metrics.h"

namespace gemstone::storage {

using TrackId = std::uint32_t;

/// I/O accounting for the simulated device. §6's design arguments are
/// about *structure* (track-granular transfer, clustering, safe group
/// writes); these counters are what the arguments quantify over. A thin
/// snapshot of the device's telemetry counters (`disk.*` in the registry).
///
/// Snapshots are relaxed-atomic reads taken without the device lock: each
/// field is individually monotonic, but no cross-field consistency is
/// promised while I/O is in flight (e.g. `seeks` may momentarily lag the
/// `tracks_read` that caused it).
struct DiskStats {
  std::uint64_t tracks_read = 0;
  std::uint64_t tracks_written = 0;
  std::uint64_t seeks = 0;           // accesses not adjacent to the last
  std::uint64_t seek_distance = 0;   // total |Δtrack|
};

/// Substitute for GemStone's special-purpose disk hardware: a fixed array
/// of tracks accessed only as whole tracks ("disk access will always be by
/// entire tracks, as a track is the natural unit of physical access",
/// §6), with fault injection for crash-recovery testing.
///
/// Thread-safe; a "crash" in tests is modeled by abandoning all in-memory
/// state and re-opening a StorageEngine over the same SimulatedDisk.
class SimulatedDisk {
 public:
  /// `heatmap_half_life_ns` tunes the access-heat decay (0 = the heatmap
  /// default) — gemstone_serve plumbs --heatmap-half-life-ms down here so
  /// compaction tuning experiments don't need rebuilds.
  SimulatedDisk(TrackId num_tracks, std::size_t track_capacity,
                std::uint64_t heatmap_half_life_ns = 0);
  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  TrackId num_tracks() const { return num_tracks_; }
  std::size_t track_capacity() const { return track_capacity_; }

  /// Reads the whole track (shorter than capacity if less was written).
  Result<std::vector<std::uint8_t>> ReadTrack(TrackId track) const;

  /// Replaces the track's contents. OutOfRange for a bad id,
  /// InvalidArgument when `data` exceeds track capacity, IoError when an
  /// injected fault fires (the write does NOT reach the platter).
  Status WriteTrack(TrackId track, std::vector<std::uint8_t> data);

  /// After `writes_until_failure` more successful writes, every subsequent
  /// write fails with IoError until ClearFault(). Models a crash mid
  /// commit group: nothing from the failed write reaches the platter.
  void InjectWriteFailureAfter(std::uint64_t writes_until_failure);

  /// After `writes_until_tear` more successful writes, the next write is
  /// *torn*: only its first `keep_bytes` bytes reach the platter and the
  /// call reports IoError. Every write after the tear fails outright, as
  /// after `InjectWriteFailureAfter` — the device has crashed. Models
  /// power loss mid-track, the case checksummed recovery must survive.
  void InjectTornWriteAfter(std::uint64_t writes_until_tear,
                            std::size_t keep_bytes);

  /// Reads of `track` fail with IoError until ClearFault(). Models an
  /// unreadable sector discovered at recovery time.
  void InjectReadFault(TrackId track);

  /// Clears every injected fault (write failures, tears, read faults).
  void ClearFault();

  /// Test hook: `gate` runs at the start of every track write, before the
  /// device lock is taken, so a test can park a writer mid-commit while
  /// other threads go on using the device. Null removes it.
  void SetWriteGate(std::function<void(TrackId)> gate);

  /// XORs `mask` into the platter byte at `offset` of `track` — silent
  /// bit rot, detectable only by checksum. OutOfRange when the track or
  /// offset does not exist.
  Status CorruptTrack(TrackId track, std::size_t offset, std::uint8_t mask);

  /// Discards the platter contents of `track` beyond `new_size` — a torn
  /// write observed after the fact. OutOfRange for a bad id or a
  /// `new_size` beyond the track's current length.
  Status TruncateTrack(TrackId track, std::size_t new_size);

  DiskStats stats() const;
  void ResetStats();

  /// Per-track access heat (reads/writes/seeks with exponential decay,
  /// current vs. historical split). Thread-safe; the /heatmap admin route
  /// and the compaction policy both read it.
  const TrackHeatmap& heatmap() const { return heatmap_; }
  TrackHeatmap& heatmap() { return heatmap_; }

 private:
  const TrackId num_tracks_;
  const std::size_t track_capacity_;

  /// What an armed write fault does when its countdown reaches zero.
  enum class WriteFault : std::uint8_t { kNone, kFail, kTear };

  mutable Mutex mu_{LockRank::kStorageDevice, "storage.disk_mu"};
  std::vector<std::vector<std::uint8_t>> tracks_ GS_GUARDED_BY(mu_);
  mutable TrackId last_track_ GS_GUARDED_BY(mu_) = 0;
  WriteFault write_fault_ GS_GUARDED_BY(mu_) = WriteFault::kNone;
  std::uint64_t writes_until_failure_ GS_GUARDED_BY(mu_) = 0;
  std::size_t tear_keep_bytes_ GS_GUARDED_BY(mu_) = 0;
  std::unordered_set<TrackId> read_faults_ GS_GUARDED_BY(mu_);
  std::function<void(TrackId)> write_gate_ GS_GUARDED_BY(mu_);
  std::atomic<bool> write_gated_{false};  // write_gate_ is set

  mutable TrackHeatmap heatmap_;

  mutable telemetry::Counter tracks_read_;
  mutable telemetry::Counter tracks_written_;
  mutable telemetry::Counter seeks_;
  mutable telemetry::Counter seek_distance_;
  telemetry::Registration telemetry_;  // after the counters it samples

  void AccountSeek(TrackId track) const GS_REQUIRES(mu_);
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_SIMULATED_DISK_H_
