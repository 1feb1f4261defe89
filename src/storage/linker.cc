#include "storage/linker.h"

#include <set>

#include "storage/serializer.h"

namespace gemstone::storage {

namespace {

// Bytes a page reference takes in its parent (CommitManager::EncodeRef).
std::size_t RefBytes(const PageRef& ref) { return 24 + 4 * ref.tracks.size(); }

// Root bytes besides its references: magic, epoch, depth, count, checksum.
constexpr std::size_t kRootOverhead = 4 + 8 + 1 + 4 + 8;

void PutExtent(std::uint64_t oid, const Extent& extent, ByteWriter* out) {
  out->PutU64(oid);
  out->PutU32(extent.byte_len);
  out->PutU64(extent.checksum);
  out->PutU32(static_cast<std::uint32_t>(extent.tracks.size()));
  for (TrackId t : extent.tracks) out->PutU32(t);
}

// Interior page: [u32 count] { page reference }*; leaf page:
// [u32 count] { [u64 oid][u32 byte_len][u64 checksum][u32 n]{[u32]}* }*.
Result<std::vector<PageRef>> DecodeInterior(std::span<const std::uint8_t> bytes,
                                            std::uint64_t key) {
  ByteReader in(bytes);
  GS_ASSIGN_OR_RETURN(std::uint32_t count, in.GetU32());
  std::vector<PageRef> refs;
  for (std::uint32_t i = 0; i < count; ++i) {
    GS_ASSIGN_OR_RETURN(PageRef ref, CommitManager::DecodeRef(&in));
    if (ref.key / Catalog::kInteriorFanout != key) {
      return Status::Corruption("leaf outside its interior page's range");
    }
    refs.push_back(std::move(ref));
  }
  if (in.remaining() != 0) {
    return Status::Corruption("trailing bytes after interior page");
  }
  return refs;
}

}  // namespace

Result<Catalog> Catalog::Load(const CommitManager& commits,
                              const RootState& root) {
  Catalog catalog;
  catalog.depth_ = root.depth;
  std::vector<PageRef> leaf_refs;
  if (root.depth == 1) {
    leaf_refs = root.pages;
  } else {
    for (const PageRef& ref : root.pages) {
      GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes,
                          commits.ReadPage(ref));
      GS_ASSIGN_OR_RETURN(std::vector<PageRef> children,
                          DecodeInterior(bytes, ref.key));
      for (PageRef& child : children) leaf_refs.push_back(std::move(child));
      catalog.interiors_[ref.key] = ref;
    }
  }
  for (PageRef& ref : leaf_refs) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes,
                        commits.ReadPage(ref));
    ByteReader in(bytes);
    GS_ASSIGN_OR_RETURN(std::uint32_t count, in.GetU32());
    for (std::uint32_t i = 0; i < count; ++i) {
      GS_ASSIGN_OR_RETURN(std::uint64_t oid, in.GetU64());
      if (oid / kLeafOids != ref.key) {
        return Status::Corruption("extent outside its leaf's oid range");
      }
      Extent extent;
      GS_ASSIGN_OR_RETURN(extent.byte_len, in.GetU32());
      GS_ASSIGN_OR_RETURN(extent.checksum, in.GetU64());
      GS_ASSIGN_OR_RETURN(std::uint32_t num_tracks, in.GetU32());
      if (num_tracks > in.remaining() / 4) {
        return Status::Corruption("extent overruns its leaf");
      }
      extent.tracks.reserve(num_tracks);
      for (std::uint32_t t = 0; t < num_tracks; ++t) {
        GS_ASSIGN_OR_RETURN(TrackId track, in.GetU32());
        extent.tracks.push_back(track);
      }
      catalog.entries_[oid] = std::move(extent);
    }
    if (in.remaining() != 0) {
      return Status::Corruption("trailing bytes after leaf page");
    }
    const std::uint64_t key = ref.key;
    catalog.leaves_[key] = std::move(ref);
  }
  return catalog;
}

Result<Linker::LinkResult> Linker::Link(
    const Catalog& current, const std::vector<std::pair<Oid, Extent>>& changed,
    const CommitManager& commits, const Allocator& allocate) {
  LinkResult out;
  auto stage = [&](std::uint64_t key, ByteWriter& page,
                   const PageRef* old) -> Result<PageRef> {
    GS_ASSIGN_OR_RETURN(std::vector<TrackId> tracks,
                        allocate(commits.TracksFor(page.size())));
    if (old != nullptr) {
      out.superseded.insert(out.superseded.end(), old->tracks.begin(),
                            old->tracks.end());
    }
    return commits.StagePage(key, page.Take(), std::move(tracks),
                             &out.writes);
  };
  auto find = [](const std::map<std::uint64_t, PageRef>& pages,
                 std::uint64_t key) -> const PageRef* {
    auto it = pages.find(key);
    return it == pages.end() ? nullptr : &it->second;
  };

  // 1. Every leaf holding a changed extent, rewritten whole: its other
  // extents come from the current catalog.
  for (std::size_t i = 0; i < changed.size();) {
    const std::uint64_t leaf = changed[i].first.raw / Catalog::kLeafOids;
    ByteWriter page;
    page.Reserve(commits.track_capacity());
    page.PutU32(0);
    std::uint32_t count = 0;
    const std::uint64_t first = leaf * Catalog::kLeafOids;
    for (std::uint64_t oid = first; oid < first + Catalog::kLeafOids; ++oid) {
      const Extent* extent = nullptr;
      if (i < changed.size() && changed[i].first.raw == oid) {
        extent = &changed[i++].second;
      } else {
        extent = current.Find(Oid(oid));
      }
      if (extent == nullptr) continue;
      PutExtent(oid, *extent, &page);
      ++count;
    }
    page.PatchU32(0, count);
    GS_ASSIGN_OR_RETURN(PageRef ref,
                        stage(leaf, page, find(current.leaves_, leaf)));
    out.leaves[leaf] = std::move(ref);
  }
  // The leaves the new root reaches with key in [lo, hi), ascending: the
  // rewritten ones in place of their current versions.
  auto for_each_leaf = [&](std::uint64_t lo, std::uint64_t hi, auto&& fn) {
    auto a = current.leaves_.lower_bound(lo);
    auto b = out.leaves.lower_bound(lo);
    for (;;) {
      const bool a_in = a != current.leaves_.end() && a->first < hi;
      const bool b_in = b != out.leaves.end() && b->first < hi;
      if (!a_in && !b_in) return;
      if (b_in && (!a_in || b->first <= a->first)) {
        if (a_in && a->first == b->first) ++a;
        fn((b++)->second);
      } else {
        fn((a++)->second);
      }
    }
  };
  constexpr std::uint64_t kAll = ~std::uint64_t{0};

  // 2. The top level: every leaf, when that fits the root track.
  const std::size_t capacity = commits.track_capacity();
  std::size_t root_bytes = kRootOverhead;
  for_each_leaf(0, kAll,
                [&](const PageRef& ref) { root_bytes += RefBytes(ref); });
  if (root_bytes <= capacity) {
    out.root.depth = 1;
    for_each_leaf(0, kAll,
                  [&](const PageRef& ref) { out.root.pages.push_back(ref); });
    for (const auto& [key, ref] : current.interiors_) {
      out.superseded.insert(out.superseded.end(), ref.tracks.begin(),
                            ref.tracks.end());
    }
    return out;
  }

  // 3. Otherwise the top spills to one interior level; rewrite the
  // interior pages above the dirty leaves (all of them on the commit that
  // first spills).
  out.root.depth = 2;
  out.interiors = current.interiors_;
  std::set<std::uint64_t> dirty;
  if (current.depth_ == 1) {
    for_each_leaf(0, kAll, [&](const PageRef& ref) {
      dirty.insert(ref.key / Catalog::kInteriorFanout);
    });
  } else {
    for (const auto& [key, ref] : out.leaves) {
      dirty.insert(key / Catalog::kInteriorFanout);
    }
  }
  for (std::uint64_t interior : dirty) {
    ByteWriter page;
    page.PutU32(0);
    std::uint32_t count = 0;
    for_each_leaf(interior * Catalog::kInteriorFanout,
                  (interior + 1) * Catalog::kInteriorFanout,
                  [&](const PageRef& ref) {
                    CommitManager::EncodeRef(ref, &page);
                    ++count;
                  });
    page.PatchU32(0, count);
    GS_ASSIGN_OR_RETURN(
        PageRef ref, stage(interior, page, find(current.interiors_, interior)));
    out.interiors[interior] = std::move(ref);
  }
  for (const auto& [key, ref] : out.interiors) out.root.pages.push_back(ref);
  return out;  // CommitGroup rejects a root that still overflows its track
}

void Linker::Apply(Catalog* catalog,
                   const std::vector<std::pair<Oid, Extent>>& changed,
                   LinkResult linked) {
  // In place: a carried neighbour's extent keeps its allocation.
  for (const auto& [oid, extent] : changed) {
    Extent& entry = catalog->entries_[oid.raw];
    entry.tracks.assign(extent.tracks.begin(), extent.tracks.end());
    entry.byte_len = extent.byte_len;
    entry.checksum = extent.checksum;
  }
  for (auto& [key, ref] : linked.leaves) {
    catalog->leaves_[key] = std::move(ref);
  }
  catalog->interiors_ = std::move(linked.interiors);
  catalog->depth_ = linked.root.depth;
}

}  // namespace gemstone::storage
