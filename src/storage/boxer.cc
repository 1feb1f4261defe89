#include "storage/boxer.h"

#include <algorithm>

#include "storage/serializer.h"

namespace gemstone::storage {

Boxer::Boxer(std::size_t track_capacity) : track_capacity_(track_capacity) {
  Open();
}

void Boxer::Open() {
  open_ = Payload();
  open_.bytes.PutU32(0);
}

Result<Boxer::Written> Boxer::Add(
    Oid oid, const std::function<void(ByteWriter*)>& write) {
  if (track_capacity_ < kCountHeader + kFragmentHeader + 1) {
    return Status::InvalidArgument("track capacity too small for boxing");
  }
  if (track_capacity_ - open_.bytes.size() < kFragmentHeader + 1) Seal();
  open_.bytes.Reserve(track_capacity_);
  const std::size_t item = items_++;
  const std::size_t start = open_.bytes.size();
  open_.bytes.PutU64(oid.raw);
  open_.bytes.PutU32(0);  // offset
  open_.bytes.PutU32(0);  // length, patched below
  write(&open_.bytes);
  const auto image = std::span<const std::uint8_t>(open_.bytes.bytes())
                         .subspan(start + kFragmentHeader);
  const Written written{static_cast<std::uint32_t>(image.size()),
                        Fnv1a(image)};
  if (open_.bytes.size() <= track_capacity_) {
    open_.bytes.PatchU32(start + 12, written.byte_len);
    open_.pieces.push_back({item, start, open_.bytes.size() - start});
    return written;
  }
  // The image overflowed the open track: lift it out and lay it down
  // again on fresh tracks — whole on one when it fits, else as fragments
  // on tracks of its own, so rewriting it vacates no neighbour's track.
  const std::vector<std::uint8_t> lifted(image.begin(), image.end());
  const bool large =
      kCountHeader + kFragmentHeader + lifted.size() > track_capacity_;
  open_.bytes.Truncate(start);
  Seal();
  for (std::size_t offset = 0; offset < lifted.size();) {
    if (track_capacity_ - open_.bytes.size() < kFragmentHeader + 1) Seal();
    const std::size_t take =
        std::min(lifted.size() - offset,
                 track_capacity_ - open_.bytes.size() - kFragmentHeader);
    Put(item, oid, static_cast<std::uint32_t>(offset),
        std::span<const std::uint8_t>(lifted).subspan(offset, take));
    offset += take;
  }
  if (large) Seal();
  return written;
}

void Boxer::Put(std::size_t item, Oid oid, std::uint32_t offset,
                std::span<const std::uint8_t> bytes) {
  open_.bytes.Reserve(track_capacity_);
  const std::size_t pos = open_.bytes.size();
  open_.bytes.PutU64(oid.raw);
  open_.bytes.PutU32(offset);
  open_.bytes.PutU32(static_cast<std::uint32_t>(bytes.size()));
  open_.bytes.PutBytes(bytes);
  open_.pieces.push_back({item, pos, kFragmentHeader + bytes.size()});
}

void Boxer::Carry(const FragmentView& fragment) {
  if (open_.bytes.size() + kFragmentHeader + fragment.bytes.size() >
      track_capacity_) {
    Seal();
  }
  Put(items_++, fragment.oid, fragment.offset, fragment.bytes);
}

void Boxer::Seal() {
  if (open_.pieces.empty()) return;
  open_.bytes.PatchU32(0, static_cast<std::uint32_t>(open_.pieces.size()));
  sealed_.push_back(std::move(open_));
  Open();
}

void Boxer::BalanceLastTwo() {
  if (sealed_.size() < 2) return;
  Payload& a = sealed_[sealed_.size() - 2];
  Payload& b = sealed_.back();
  const std::size_t sa = a.bytes.size();
  const std::size_t sb = b.bytes.size();
  auto gap = [](std::size_t x, std::size_t y) { return x > y ? x - y : y - x; };
  // Move the suffix of a's fragments to the front of b that leaves the
  // two closest in size; a keeps at least one fragment.
  std::size_t best_count = 0, best_moved = 0, best_gap = gap(sa, sb);
  std::size_t moved = 0;
  for (std::size_t k = 1; k < a.pieces.size(); ++k) {
    moved += a.pieces[a.pieces.size() - k].size;
    if (sb + moved > track_capacity_) break;
    if (gap(sa - moved, sb + moved) < best_gap) {
      best_gap = gap(sa - moved, sb + moved);
      best_count = k;
      best_moved = moved;
    }
  }
  if (best_count == 0) return;
  const std::size_t cut = sa - best_moved;
  Payload merged;
  merged.bytes.Reserve(track_capacity_);
  merged.bytes.PutU32(0);
  merged.bytes.PutBytes(
      std::span<const std::uint8_t>(a.bytes.bytes()).subspan(cut));
  merged.bytes.PutBytes(
      std::span<const std::uint8_t>(b.bytes.bytes()).subspan(kCountHeader));
  for (std::size_t i = a.pieces.size() - best_count; i < a.pieces.size();
       ++i) {
    Piece piece = a.pieces[i];
    piece.pos = piece.pos - cut + kCountHeader;
    merged.pieces.push_back(piece);
  }
  for (Piece piece : b.pieces) {
    piece.pos += best_moved;
    merged.pieces.push_back(piece);
  }
  merged.bytes.PatchU32(0, static_cast<std::uint32_t>(merged.pieces.size()));
  a.bytes.Truncate(cut);
  a.pieces.resize(a.pieces.size() - best_count);
  a.bytes.PatchU32(0, static_cast<std::uint32_t>(a.pieces.size()));
  b = std::move(merged);
}

Boxing Boxer::Finish() {
  Seal();
  BalanceLastTwo();
  Boxing boxing;
  // An item's pieces sit on consecutive payloads: a continuation always
  // opens its payload, and balancing never moves a payload's first piece.
  boxing.placements.resize(items_);
  for (std::size_t p = 0; p < sealed_.size(); ++p) {
    for (const Piece& piece : sealed_[p].pieces) {
      auto& [first, end] = boxing.placements[piece.item];
      if (end == 0) first = p;
      end = p + 1;
    }
    boxing.payloads.push_back(sealed_[p].bytes.Take());
  }
  sealed_.clear();
  items_ = 0;
  return boxing;
}

Result<std::size_t> Boxer::ExtractFragments(
    std::span<const std::uint8_t> track_bytes, Oid oid,
    std::span<std::uint8_t> image) {
  ByteReader in(track_bytes);
  GS_ASSIGN_OR_RETURN(std::uint32_t count, in.GetU32());
  std::size_t placed = 0;
  for (std::uint32_t f = 0; f < count; ++f) {
    GS_ASSIGN_OR_RETURN(std::uint64_t frag_oid, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::uint32_t offset, in.GetU32());
    GS_ASSIGN_OR_RETURN(std::uint32_t len, in.GetU32());
    if (in.remaining() < len) {
      return Status::Corruption("fragment overruns track payload");
    }
    if (Oid(frag_oid) == oid) {
      if (static_cast<std::size_t>(offset) + len > image.size()) {
        return Status::Corruption("fragment outside object image bounds");
      }
      for (std::uint32_t b = 0; b < len; ++b) {
        image[offset + b] = track_bytes[in.position() + b];
      }
      placed += len;
    }
    GS_RETURN_IF_ERROR(in.Skip(len));
  }
  return placed;
}

}  // namespace gemstone::storage
