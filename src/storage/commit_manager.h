#ifndef GEMSTONE_STORAGE_COMMIT_MANAGER_H_
#define GEMSTONE_STORAGE_COMMIT_MANAGER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/result.h"
#include "storage/serializer.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// Track writes of one safe group, in write order.
using TrackWrites = std::vector<std::pair<TrackId, std::vector<std::uint8_t>>>;

/// Where one catalog page lives, as the parent naming it records it. The
/// page is verified against this length and checksum, never against
/// itself, so a parent only ever adopts the exact page written with it.
struct PageRef {
  std::uint64_t key = 0;        // the page's index within its level
  std::vector<TrackId> tracks;  // the page's bytes, chunked in order
  std::uint32_t byte_len = 0;
  std::uint64_t checksum = 0;   // FNV-1a of the page bytes
};

/// The durable root of a store, written alternately to tracks 0 and 1: the
/// top level of the store's catalog page tree. Recovery picks the valid
/// root with the highest epoch, so a crash at any point during a commit
/// leaves the previous epoch intact.
struct RootState {
  std::uint64_t epoch = 0;
  std::uint8_t depth = 1;      // 1: `pages` are leaves; 2: interior pages
  std::vector<PageRef> pages;  // ascending by key
};

/// The Commit Manager (§6): "provides safe writing for groups of tracks.
/// Safe writing guarantees that all the tracks in the group get written,
/// or none get written, and that the tracks in the group replace their old
/// versions atomically."
///
/// Mechanism: every commit writes to *fresh* tracks (shadowing); the group
/// becomes visible only via the single-track root flip, which is the
/// atomicity point. Tracks 0 and 1 are reserved for the two root slots.
class CommitManager {
 public:
  explicit CommitManager(SimulatedDisk* disk) : disk_(disk) {}

  static constexpr TrackId kRootSlotA = 0;
  static constexpr TrackId kRootSlotB = 1;
  static constexpr TrackId kFirstDataTrack = 2;

  /// Writes epoch-0 empty roots into both slots.
  Status Format();

  /// Reads both root slots and returns the valid one with the highest
  /// epoch; Corruption if neither slot holds a valid root.
  Result<RootState> RecoverRoot() const;

  /// Every valid root on the device, newest epoch first (0–2 entries).
  /// Recovery tries them in order: when the newest root's pages turn out
  /// unreadable, the older slot is the fallback — that is the point of
  /// keeping two slots.
  std::vector<RootState> RecoverRootCandidates() const;

  std::size_t track_capacity() const { return disk_->track_capacity(); }

  /// Tracks a page of `bytes` bytes occupies.
  std::size_t TracksFor(std::size_t bytes) const;

  /// Chunks `bytes` across `tracks` in order, appending the writes to
  /// `group`.
  void Chunk(std::span<const std::uint8_t> bytes,
             const std::vector<TrackId>& tracks, TrackWrites* group) const;

  /// Chunks page `key` across `tracks` (TracksFor its size) into `group`
  /// and answers the reference its parent records.
  PageRef StagePage(std::uint64_t key, std::vector<std::uint8_t> bytes,
                    std::vector<TrackId> tracks, TrackWrites* group) const;

  /// Reads the page `ref` names, verified against the ref's length and
  /// checksum.
  Result<std::vector<std::uint8_t>> ReadPage(const PageRef& ref) const;

  /// Page references as the root and interior pages encode them.
  static void EncodeRef(const PageRef& ref, ByteWriter* out);
  static Result<PageRef> DecodeRef(ByteReader* in);

  /// The safe group write: writes `group` (shadow tracks, each buffer
  /// moved into SimulatedDisk::WriteTrack), then flips the root to `root`. A root that does not fit its
  /// track fails before any write. If any write fails, the function
  /// returns the error and the previous root remains the recovered state —
  /// none of the group is visible.
  Status CommitGroup(TrackWrites group, const RootState& root);

  std::uint64_t commits() const { return commits_; }

 private:
  std::vector<std::uint8_t> EncodeRoot(const RootState& root) const;

  SimulatedDisk* disk_;
  std::uint64_t commits_ = 0;
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_COMMIT_MANAGER_H_
