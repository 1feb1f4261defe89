#ifndef GEMSTONE_STORAGE_FREE_TRACK_MAP_H_
#define GEMSTONE_STORAGE_FREE_TRACK_MAP_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// The free tracks of one device: one bit per track, set while the track
/// is free. Allocate hands out the lowest free tracks first, so placement
/// is deterministic. The storage engine keeps one for its device and the
/// tier store one per cold level.
class FreeTrackMap {
 public:
  /// Marks all `tracks` tracks of the device free.
  void Reset(TrackId tracks);

  /// Marks `used` taken; tracks already taken are skipped.
  void Take(const std::vector<TrackId>& used);

  /// Takes and returns the lowest `n` free tracks. When fewer are free,
  /// takes nothing and fails with IoError "<device> full: ...".
  Result<std::vector<TrackId>> Allocate(std::size_t n,
                                        std::string_view device);

  /// Marks `tracks` free again; tracks already free are skipped.
  void Release(const std::vector<TrackId>& tracks);

  std::size_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> bits_;
  std::size_t count_ = 0;
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_FREE_TRACK_MAP_H_
