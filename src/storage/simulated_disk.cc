#include "storage/simulated_disk.h"

#include "telemetry/trace.h"
#include "telemetry/io_attribution.h"

namespace gemstone::storage {

SimulatedDisk::SimulatedDisk(TrackId num_tracks, std::size_t track_capacity,
                             std::uint64_t heatmap_half_life_ns)
    : num_tracks_(num_tracks),
      track_capacity_(track_capacity),
      tracks_(num_tracks),
      heatmap_(num_tracks, heatmap_half_life_ns == 0
                               ? TrackHeatmap::kDefaultHalfLifeNs
                               : heatmap_half_life_ns),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("disk.tracks_read", tracks_read_.value());
            sink->Counter("disk.tracks_written", tracks_written_.value());
            sink->Counter("disk.seeks", seeks_.value());
            sink->Counter("disk.seek_distance", seek_distance_.value());
            // Heatmap aggregates come from the lock-free mirrors — the
            // collector runs under the registry lock and must not take
            // the heatmap mutex (rank inversion).
            sink->Counter("storage.heatmap.current_accesses",
                          heatmap_.current_accesses());
            sink->Counter("storage.heatmap.historical_accesses",
                          heatmap_.historical_accesses());
            sink->Gauge("storage.heatmap.hot_track",
                        static_cast<std::int64_t>(heatmap_.hot_track()));
            sink->Gauge("storage.heatmap.touched_tracks",
                        static_cast<std::int64_t>(heatmap_.touched_tracks()));
          })) {}

void SimulatedDisk::AccountSeek(TrackId track) const {
  const std::uint64_t delta = track >= last_track_
                                  ? track - last_track_
                                  : last_track_ - track;
  if (delta > 1) {
    seeks_.Increment();
    ++telemetry::ThreadIoTally().seeks;
    heatmap_.RecordSeek(track);
  }
  seek_distance_.Increment(delta);
  last_track_ = track;
}

Result<std::vector<std::uint8_t>> SimulatedDisk::ReadTrack(
    TrackId track) const {
  MutexLock lock(mu_);
  if (track >= num_tracks_) {
    return Status::OutOfRange("track " + std::to_string(track) +
                              " beyond device end");
  }
  if (read_faults_.count(track) != 0) {
    telemetry::RecordEvent(telemetry::TraceKind::kStorageFault, 0, track, 0,
                           "injected read fault");
    return Status::IoError("injected read fault at track " +
                           std::to_string(track));
  }
  AccountSeek(track);
  tracks_read_.Increment();
  ++telemetry::ThreadIoTally().tracks_read;
  heatmap_.RecordRead(track, telemetry::ThreadAccessIsHistorical());
  return tracks_[track];
}

Status SimulatedDisk::WriteTrack(TrackId track,
                                 std::vector<std::uint8_t> data) {
  if (write_gated_.load(std::memory_order_acquire)) {
    std::function<void(TrackId)> gate;
    {
      MutexLock lock(mu_);
      gate = write_gate_;
    }
    if (gate) gate(track);
  }
  MutexLock lock(mu_);
  if (track >= num_tracks_) {
    return Status::OutOfRange("track " + std::to_string(track) +
                              " beyond device end");
  }
  if (data.size() > track_capacity_) {
    return Status::InvalidArgument("write of " + std::to_string(data.size()) +
                                   " bytes exceeds track capacity");
  }
  if (write_fault_ != WriteFault::kNone) {
    if (writes_until_failure_ == 0) {
      if (write_fault_ == WriteFault::kTear) {
        // The tear fires exactly once; the device then behaves as crashed.
        write_fault_ = WriteFault::kFail;
        data.resize(std::min(data.size(), tear_keep_bytes_));
        AccountSeek(track);
        tracks_written_.Increment();
        ++telemetry::ThreadIoTally().tracks_written;
        heatmap_.RecordWrite(track, telemetry::ThreadAccessIsHistorical());
        tracks_[track].assign(data.begin(), data.end());
        telemetry::RecordEvent(telemetry::TraceKind::kStorageFault, 0, track,
                               0, "injected torn write");
        return Status::IoError("injected torn write at track " +
                               std::to_string(track));
      }
      telemetry::RecordEvent(telemetry::TraceKind::kStorageFault, 0, track,
                             0, "injected write fault");
      return Status::IoError("injected write fault at track " +
                             std::to_string(track));
    }
    --writes_until_failure_;
  }
  AccountSeek(track);
  tracks_written_.Increment();
  ++telemetry::ThreadIoTally().tracks_written;
  heatmap_.RecordWrite(track, telemetry::ThreadAccessIsHistorical());
  // Into the track's own storage, as onto a platter: the buffer a track
  // keeps is allocated once, not swapped for every writer's.
  tracks_[track].assign(data.begin(), data.end());
  return Status::OK();
}

void SimulatedDisk::InjectWriteFailureAfter(
    std::uint64_t writes_until_failure) {
  MutexLock lock(mu_);
  write_fault_ = WriteFault::kFail;
  writes_until_failure_ = writes_until_failure;
}

void SimulatedDisk::InjectTornWriteAfter(std::uint64_t writes_until_tear,
                                         std::size_t keep_bytes) {
  MutexLock lock(mu_);
  write_fault_ = WriteFault::kTear;
  writes_until_failure_ = writes_until_tear;
  tear_keep_bytes_ = keep_bytes;
}

void SimulatedDisk::InjectReadFault(TrackId track) {
  MutexLock lock(mu_);
  read_faults_.insert(track);
}

void SimulatedDisk::ClearFault() {
  MutexLock lock(mu_);
  write_fault_ = WriteFault::kNone;
  read_faults_.clear();
}

void SimulatedDisk::SetWriteGate(std::function<void(TrackId)> gate) {
  MutexLock lock(mu_);
  write_gated_.store(gate != nullptr, std::memory_order_release);
  write_gate_ = std::move(gate);
}

Status SimulatedDisk::CorruptTrack(TrackId track, std::size_t offset,
                                   std::uint8_t mask) {
  MutexLock lock(mu_);
  if (track >= num_tracks_) {
    return Status::OutOfRange("track " + std::to_string(track) +
                              " beyond device end");
  }
  if (offset >= tracks_[track].size()) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " beyond track contents");
  }
  tracks_[track][offset] ^= mask;
  return Status::OK();
}

Status SimulatedDisk::TruncateTrack(TrackId track, std::size_t new_size) {
  MutexLock lock(mu_);
  if (track >= num_tracks_) {
    return Status::OutOfRange("track " + std::to_string(track) +
                              " beyond device end");
  }
  if (new_size > tracks_[track].size()) {
    return Status::OutOfRange("truncation cannot grow the track");
  }
  tracks_[track].resize(new_size);
  return Status::OK();
}

DiskStats SimulatedDisk::stats() const {
  DiskStats stats;
  stats.tracks_read = tracks_read_.value();
  stats.tracks_written = tracks_written_.value();
  stats.seeks = seeks_.value();
  stats.seek_distance = seek_distance_.value();
  return stats;
}

void SimulatedDisk::ResetStats() {
  tracks_read_.Reset();
  tracks_written_.Reset();
  seeks_.Reset();
  seek_distance_.Reset();
}

}  // namespace gemstone::storage
