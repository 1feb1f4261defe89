#ifndef GEMSTONE_STORAGE_BOXER_H_
#define GEMSTONE_STORAGE_BOXER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "storage/serializer.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// Result of boxing one commit: track payloads in emission order, plus,
/// per item added (Add and Carry calls, in call order), the payloads
/// [first, end) its fragments landed in. A payload is a container
/// of object fragments, each tagged with its owning oid and its byte
/// offset within that object's serialized image. Wire format per track:
///   [u32 fragment_count] { [u64 oid][u32 offset][u32 len][len bytes] }*
struct Boxing {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::pair<std::size_t, std::size_t>> placements;
};

/// The Boxer (§6): "whose job it is to fit objects into tracks after
/// database changes." Images are written straight into the open track
/// payload. An image that fits in one track never straddles two; a larger
/// one gets tracks of its own. Items added
/// together land on adjacent payloads, which the engine maps to adjacent
/// tracks ("physical access paths parallel logical access"). The last
/// two payloads are evened out, so a cluster that overflows one track
/// splits into two roughly half-full ones instead of a full track and a
/// straggler.
class Boxer {
 public:
  explicit Boxer(std::size_t track_capacity);

  /// Length and FNV-1a checksum of an image the Boxer wrote.
  struct Written {
    std::uint32_t byte_len = 0;
    std::uint64_t checksum = 0;
  };

  /// Writes one image of `oid`: `write` appends its bytes to the writer it
  /// is handed. Fails only if the track capacity cannot hold a fragment
  /// header plus one byte.
  Result<Written> Add(Oid oid, const std::function<void(ByteWriter*)>& write);

  /// One fragment of a track payload, viewed in place.
  struct FragmentView {
    Oid oid;
    std::uint32_t offset;
    std::span<const std::uint8_t> bytes;
  };

  /// Carries one live fragment of an unchanged object, verbatim, out of a
  /// track the commit vacates.
  void Carry(const FragmentView& fragment);

  /// Seals the open payload and answers everything boxed so far.
  Boxing Finish();

  /// Extracts the fragments belonging to `oid` from one track payload,
  /// copying them into `image` (pre-sized to the object's byte length) at
  /// their recorded offsets. Returns the number of bytes placed.
  static Result<std::size_t> ExtractFragments(
      std::span<const std::uint8_t> track_bytes, Oid oid,
      std::span<std::uint8_t> image);

  /// Single pass over every fragment in a track payload (batched loads
  /// extract all co-located objects in one sweep).
  template <typename Fn>  // Fn: Status(const FragmentView&)
  static Status ForEachFragment(std::span<const std::uint8_t> track_bytes,
                                Fn&& fn);

 private:
  static constexpr std::size_t kCountHeader = 4;      // u32 fragment count
  static constexpr std::size_t kFragmentHeader = 16;  // oid, offset, len

  /// One fragment record within a payload.
  struct Piece {
    std::size_t item;
    std::size_t pos;   // byte position of the record's header
    std::size_t size;  // header plus fragment bytes
  };
  struct Payload {
    ByteWriter bytes;
    std::vector<Piece> pieces;
  };

  void Open();
  void Put(std::size_t item, Oid oid, std::uint32_t offset,
           std::span<const std::uint8_t> bytes);
  void Seal();
  void BalanceLastTwo();

  std::size_t track_capacity_;
  std::vector<Payload> sealed_;
  Payload open_;
  std::size_t items_ = 0;
};

// Implementation details only below here.

template <typename Fn>
Status Boxer::ForEachFragment(std::span<const std::uint8_t> track_bytes,
                              Fn&& fn) {
  ByteReader in(track_bytes);
  GS_ASSIGN_OR_RETURN(std::uint32_t count, in.GetU32());
  for (std::uint32_t f = 0; f < count; ++f) {
    GS_ASSIGN_OR_RETURN(std::uint64_t oid, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::uint32_t offset, in.GetU32());
    GS_ASSIGN_OR_RETURN(std::uint32_t len, in.GetU32());
    if (in.remaining() < len) {
      return Status::Corruption("fragment overruns track payload");
    }
    FragmentView view{Oid(oid), offset,
                      track_bytes.subspan(in.position(), len)};
    GS_RETURN_IF_ERROR(fn(view));
    GS_RETURN_IF_ERROR(in.Skip(len));
  }
  return Status::OK();
}

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_BOXER_H_
