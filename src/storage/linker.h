#ifndef GEMSTONE_STORAGE_LINKER_H_
#define GEMSTONE_STORAGE_LINKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "storage/commit_manager.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// Where one object's serialized image lives on disk.
struct Extent {
  std::vector<TrackId> tracks;  // tracks holding fragments, read in order
  std::uint32_t byte_len = 0;   // size of the serialized image
  std::uint64_t checksum = 0;   // FNV-1a of the image
};

/// The durable global object table: oid -> extent. This is the disk face
/// of §6's "global object table" through which GOOPs resolve.
///
/// On disk it is a shadowed page tree. Leaf k holds the extents of oids
/// [k * kLeafOids, (k + 1) * kLeafOids) — oids are dense, as ObjectMemory
/// allocates them upward. The root names every leaf; when that list
/// outgrows the root track it spills to one interior level, interior page
/// i naming leaves [i * kInteriorFanout, (i + 1) * kInteriorFanout). Every
/// parent records its children's tracks and checksums (PageRef). In
/// memory the whole table is resident, beside where each page lives.
class Catalog {
 public:
  static constexpr std::uint64_t kLeafOids = 128;
  static constexpr std::uint64_t kInteriorFanout = 128;

  const Extent* Find(Oid oid) const {
    auto it = entries_.find(oid.raw);
    return it == entries_.end() ? nullptr : &it->second;
  }
  bool Contains(Oid oid) const { return entries_.count(oid.raw) != 0; }
  std::size_t size() const { return entries_.size(); }
  const std::unordered_map<std::uint64_t, Extent>& entries() const {
    return entries_;
  }

  /// Tree depth of the adopted root (1 = leaves named by the root).
  std::uint8_t depth() const { return depth_; }
  /// Pages the adopted root reaches, by key: leaves, and at depth 2 the
  /// interior pages.
  const std::map<std::uint64_t, PageRef>& leaves() const { return leaves_; }
  const std::map<std::uint64_t, PageRef>& interiors() const {
    return interiors_;
  }

  /// Reads the tree `root` names, verifying every page against the
  /// checksum its parent records.
  static Result<Catalog> Load(const CommitManager& commits,
                              const RootState& root);

 private:
  friend class Linker;

  std::unordered_map<std::uint64_t, Extent> entries_;
  std::map<std::uint64_t, PageRef> leaves_;
  std::map<std::uint64_t, PageRef> interiors_;  // empty at depth 1
  std::uint8_t depth_ = 1;
};

/// The Linker (§6): "incorporates updates made by a transaction in the
/// permanent database at commit time." Given the catalog and the extents
/// a commit changes, it shadows only the pages those extents live on: the
/// dirty leaves, the interior pages above them when the tree has spilled,
/// and the root that names them.
class Linker {
 public:
  /// Tracks for a page; fails when the device is full.
  using Allocator =
      std::function<Result<std::vector<TrackId>>(std::size_t n)>;

  struct LinkResult {
    TrackWrites writes;  // the new pages, chunked into their tracks
    RootState root;      // names them; `epoch` is the caller's to set
    std::map<std::uint64_t, PageRef> leaves;     // rewritten leaves
    std::map<std::uint64_t, PageRef> interiors;  // every interior page
    std::vector<TrackId> superseded;  // page tracks the new root drops
  };

  /// `changed` must be ascending by oid, one entry per oid.
  static Result<LinkResult> Link(
      const Catalog& current,
      const std::vector<std::pair<Oid, Extent>>& changed,
      const CommitManager& commits, const Allocator& allocate);

  /// Folds a link whose root is durable into `catalog`.
  static void Apply(Catalog* catalog,
                    const std::vector<std::pair<Oid, Extent>>& changed,
                    LinkResult linked);
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_LINKER_H_
