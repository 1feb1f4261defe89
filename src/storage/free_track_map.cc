#include "storage/free_track_map.h"

#include <bit>
#include <string>

namespace gemstone::storage {

void FreeTrackMap::Reset(TrackId tracks) {
  bits_.assign((tracks + 63) / 64, ~std::uint64_t{0});
  if (tracks % 64 != 0) {
    bits_.back() = (std::uint64_t{1} << (tracks % 64)) - 1;
  }
  count_ = tracks;
}

void FreeTrackMap::Take(const std::vector<TrackId>& used) {
  for (TrackId t : used) {
    const std::uint64_t bit = std::uint64_t{1} << (t % 64);
    if ((bits_[t / 64] & bit) == 0) continue;
    bits_[t / 64] &= ~bit;
    --count_;
  }
}

Result<std::vector<TrackId>> FreeTrackMap::Allocate(std::size_t n,
                                                    std::string_view device) {
  if (count_ < n) {
    return Status::IoError(std::string(device) + " full: need " +
                           std::to_string(n) + " tracks, have " +
                           std::to_string(count_));
  }
  std::vector<TrackId> out;
  out.reserve(n);
  for (std::size_t w = 0; out.size() < n; ++w) {
    for (std::uint64_t& word = bits_[w]; word != 0 && out.size() < n;
         word &= word - 1) {
      out.push_back(static_cast<TrackId>(w * 64 + std::countr_zero(word)));
    }
  }
  count_ -= n;
  return out;
}

void FreeTrackMap::Release(const std::vector<TrackId>& tracks) {
  for (TrackId t : tracks) {
    const std::uint64_t bit = std::uint64_t{1} << (t % 64);
    if ((bits_[t / 64] & bit) != 0) continue;
    bits_[t / 64] |= bit;
    ++count_;
  }
}

}  // namespace gemstone::storage
