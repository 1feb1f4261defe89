#include "storage/commit_manager.h"

#include <algorithm>

#include "telemetry/trace.h"

namespace gemstone::storage {

namespace {
constexpr std::uint32_t kRootMagic = 0x47535254;  // "GSRT"
}  // namespace

void CommitManager::EncodeRef(const PageRef& ref, ByteWriter* out) {
  out->PutU64(ref.key);
  out->PutU32(ref.byte_len);
  out->PutU64(ref.checksum);
  out->PutU32(static_cast<std::uint32_t>(ref.tracks.size()));
  for (TrackId t : ref.tracks) out->PutU32(t);
}

Result<PageRef> CommitManager::DecodeRef(ByteReader* in) {
  PageRef ref;
  GS_ASSIGN_OR_RETURN(ref.key, in->GetU64());
  GS_ASSIGN_OR_RETURN(ref.byte_len, in->GetU32());
  GS_ASSIGN_OR_RETURN(ref.checksum, in->GetU64());
  GS_ASSIGN_OR_RETURN(std::uint32_t ntracks, in->GetU32());
  if (ntracks > in->remaining() / 4) {
    return Status::Corruption("page reference overruns its parent");
  }
  ref.tracks.reserve(ntracks);
  for (std::uint32_t i = 0; i < ntracks; ++i) {
    GS_ASSIGN_OR_RETURN(TrackId t, in->GetU32());
    ref.tracks.push_back(t);
  }
  return ref;
}

std::vector<std::uint8_t> CommitManager::EncodeRoot(
    const RootState& root) const {
  ByteWriter out;
  out.PutU32(kRootMagic);
  out.PutU64(root.epoch);
  out.PutU8(root.depth);
  out.PutU32(static_cast<std::uint32_t>(root.pages.size()));
  for (const PageRef& ref : root.pages) EncodeRef(ref, &out);
  const std::uint64_t checksum = Fnv1a(out.bytes());
  out.PutU64(checksum);
  return out.Take();
}

std::size_t CommitManager::TracksFor(std::size_t bytes) const {
  const std::size_t cap = disk_->track_capacity();
  return (bytes + cap - 1) / cap;
}

void CommitManager::Chunk(std::span<const std::uint8_t> bytes,
                          const std::vector<TrackId>& tracks,
                          TrackWrites* group) const {
  const std::size_t cap = disk_->track_capacity();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const std::size_t begin = std::min(bytes.size(), i * cap);
    const std::size_t end = std::min(bytes.size(), begin + cap);
    group->emplace_back(tracks[i],
                        std::vector<std::uint8_t>(bytes.begin() + begin,
                                                  bytes.begin() + end));
  }
}

PageRef CommitManager::StagePage(std::uint64_t key,
                                 std::vector<std::uint8_t> bytes,
                                 std::vector<TrackId> tracks,
                                 TrackWrites* group) const {
  PageRef ref;
  ref.key = key;
  ref.byte_len = static_cast<std::uint32_t>(bytes.size());
  ref.checksum = Fnv1a(std::span<const std::uint8_t>(bytes));
  if (tracks.size() == 1) {
    group->emplace_back(tracks[0], std::move(bytes));
  } else {
    Chunk(bytes, tracks, group);
  }
  ref.tracks = std::move(tracks);
  return ref;
}

Result<std::vector<std::uint8_t>> CommitManager::ReadPage(
    const PageRef& ref) const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(ref.byte_len);
  for (TrackId t : ref.tracks) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> track, disk_->ReadTrack(t));
    bytes.insert(bytes.end(), track.begin(), track.end());
  }
  if (bytes.size() != ref.byte_len) {
    return Status::Corruption("catalog page length differs from its parent");
  }
  if (Fnv1a(std::span<const std::uint8_t>(bytes)) != ref.checksum) {
    return Status::Corruption("catalog page checksum mismatch");
  }
  return bytes;
}

Status CommitManager::Format() {
  // Both slots receive a valid empty root. Slot B (epoch 1) is written
  // last, so recovery — which prefers the highest epoch — starts from an
  // empty catalog at epoch 1 and the first commit flips epoch 2 into
  // slot A, preserving the even/odd slot alternation.
  RootState empty;
  empty.epoch = 0;
  GS_RETURN_IF_ERROR(disk_->WriteTrack(kRootSlotA, EncodeRoot(empty)));
  empty.epoch = 1;
  return disk_->WriteTrack(kRootSlotB, EncodeRoot(empty));
}

Result<RootState> CommitManager::RecoverRoot() const {
  std::vector<RootState> candidates = RecoverRootCandidates();
  if (candidates.empty()) {
    return Status::Corruption("no valid root block on device");
  }
  return std::move(candidates.front());
}

std::vector<RootState> CommitManager::RecoverRootCandidates() const {
  std::vector<RootState> candidates;
  for (TrackId slot : {kRootSlotA, kRootSlotB}) {
    auto bytes_result = disk_->ReadTrack(slot);
    if (!bytes_result.ok()) continue;
    const std::vector<std::uint8_t>& bytes = bytes_result.value();
    if (bytes.size() < 8) continue;
    const auto body = std::span<const std::uint8_t>(bytes).first(
        bytes.size() - 8);
    ByteReader tail(std::span<const std::uint8_t>(bytes).subspan(
        bytes.size() - 8));
    auto stored = tail.GetU64();
    if (!stored.ok() || Fnv1a(body) != stored.value()) continue;

    auto decoded = [&]() -> Result<RootState> {
      ByteReader in(body);
      GS_ASSIGN_OR_RETURN(std::uint32_t magic, in.GetU32());
      if (magic != kRootMagic) return Status::Corruption("root magic");
      RootState root;
      GS_ASSIGN_OR_RETURN(root.epoch, in.GetU64());
      GS_ASSIGN_OR_RETURN(root.depth, in.GetU8());
      GS_ASSIGN_OR_RETURN(std::uint32_t count, in.GetU32());
      for (std::uint32_t i = 0; i < count; ++i) {
        GS_ASSIGN_OR_RETURN(PageRef ref, DecodeRef(&in));
        root.pages.push_back(std::move(ref));
      }
      if (in.remaining() != 0 || root.depth < 1 || root.depth > 2) {
        return Status::Corruption("malformed root");
      }
      return root;
    }();
    if (decoded.ok()) candidates.push_back(std::move(decoded).value());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const RootState& a, const RootState& b) {
              return a.epoch > b.epoch;
            });
  return candidates;
}

Status CommitManager::CommitGroup(TrackWrites group, const RootState& root) {
  // Validate before any track is written: a doomed commit performs zero
  // I/O, so nothing needs undoing.
  std::vector<std::uint8_t> root_bytes = EncodeRoot(root);
  if (root_bytes.size() > disk_->track_capacity()) {
    return Status::InvalidArgument("catalog root does not fit one track");
  }
  {
    TELEM_SPAN("commit.write_group");
    // Phase 1: shadow writes of the group — data tracks and catalog
    // pages. A failure here leaves the previous root pointing exclusively
    // at old tracks.
    for (auto& [track, bytes] : group) {
      GS_RETURN_IF_ERROR(disk_->WriteTrack(track, std::move(bytes)));
    }
  }
  // Phase 2: the atomicity point — one root-track write.
  TELEM_SPAN("commit.flip_root");
  const TrackId slot = (root.epoch % 2 == 0) ? kRootSlotA : kRootSlotB;
  GS_RETURN_IF_ERROR(disk_->WriteTrack(slot, std::move(root_bytes)));
  ++commits_;
  return Status::OK();
}

}  // namespace gemstone::storage
