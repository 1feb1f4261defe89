#ifndef GEMSTONE_INDEX_DIRECTORY_H_
#define GEMSTONE_INDEX_DIRECTORY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/result.h"
#include "core/sync.h"
#include "object/object_memory.h"
#include "telemetry/metrics.h"
#include "txn/session.h"

namespace gemstone::index {

/// One temporal posting: `member` carried discriminator value `key`
/// during [since, until). Directories never erase postings — "Directories
/// use standard techniques modified to handle object histories" (§6) —
/// so a lookup at any past time scans the same structure.
struct Posting {
  Oid member;
  TxnTime since = kTimeOrigin;
  TxnTime until = kTimeNow;  // kTimeNow = still current
};

/// Thin snapshot of one directory's telemetry counters. The registry
/// view (`directory.*`) sums every live directory plus retired ones.
/// Relaxed-atomic reads without the directory lock: individually
/// monotonic, no cross-field consistency under concurrent lookups.
struct DirectoryStats {
  std::uint64_t lookups = 0;
  std::uint64_t postings_scanned = 0;
  std::uint64_t updates = 0;
};

/// An associative directory over one collection: discriminator is a path
/// of element names evaluated against each member (§6's "nested element
/// as a discriminator" — the path may be several steps deep; a member
/// whose nested discriminator differs across database states appears in
/// several postings, the paper's "two branches" problem).
///
/// Postings are kept per element ("slot") of the collection, so a member
/// held under two names answers twice, as a scan of the collection does.
/// Keys are ordered by the canonical rendering of the discriminator
/// value, so the directory answers equality probes and ordered ranges.
class Directory {
 public:
  Directory(Oid collection, std::vector<SymbolId> path,
            TxnTime filled_at = kTimeOrigin);

  Oid collection() const { return collection_; }
  const std::vector<SymbolId>& path() const { return path_; }
  /// The time it was filled at (T0): it answers only reads at or after it.
  TxnTime filled_at() const { return filled_at_; }

  /// Members whose discriminator equals `key` at time `at`.
  std::vector<Oid> Lookup(const Value& key, TxnTime at) const;

  /// Members whose discriminator lies in [lo, hi] at time `at`. Only
  /// meaningful for homogeneous (all-numeric or all-string) keys.
  std::vector<Oid> LookupRange(const Value& lo, const Value& hi,
                               TxnTime at) const;

  /// Records that the collection's element `slot` holds `member` under
  /// `key` from `at` on, closing the slot's open posting; nothing new
  /// when that already says so. `through`: the objects the key path
  /// passed through (the member, then each intermediate).
  void Add(SymbolId slot, const Value& key, Oid member, TxnTime at,
           std::vector<std::uint64_t> through = {});

  /// Closes `slot`'s open posting at `at` (its member left).
  void Remove(SymbolId slot, TxnTime at);

  /// The slots a commit of `images` rebound or changed a path object of.
  std::vector<SymbolId> SlotsTouchedBy(
      const std::vector<storage::ObjectImage>& images) const;

  std::size_t posting_count() const;
  DirectoryStats stats() const;

 private:
  struct Open {  // a slot's open posting
    std::string key;
    std::size_t index = 0;  // into postings_[key], which only appends
    std::vector<std::uint64_t> through;
  };

  static std::string KeyOf(const Value& value);

  Oid collection_;
  std::vector<SymbolId> path_;
  TxnTime filled_at_;

  mutable Mutex mu_{LockRank::kDirectory, "index.directory_mu"};
  // Ordered so range probes walk a contiguous key span.
  std::map<std::string, std::vector<Posting>> postings_ GS_GUARDED_BY(mu_);
  std::unordered_map<SymbolId, Open> open_ GS_GUARDED_BY(mu_);
  // The reverse map: (oid, slot) for every object on a slot's key path.
  std::set<std::pair<std::uint64_t, SymbolId>> through_ GS_GUARDED_BY(mu_);

  mutable telemetry::Counter lookups_;
  mutable telemetry::Counter postings_scanned_;
  mutable telemetry::Counter updates_;
  telemetry::Registration telemetry_;  // after the counters it samples
};

/// The Directory Manager (§6): "creates and maintains directories."
/// Directories are created from OPAL "storage hints" (a createDirectory
/// request naming a collection and a discriminator path). Then, as the
/// TransactionManager's publish listener, the commit is their one writer:
/// uncommitted and aborted work never reaches them.
class DirectoryManager : public txn::PublishListener {
 public:
  explicit DirectoryManager(ObjectMemory* memory) : memory_(memory) {}

  /// Builds a directory over `collection` discriminating on `path`, once
  /// `session` has shown it may read the collection: filled from committed
  /// state with publishes excluded (ReadCommitted), stamped at its time,
  /// registered before the next publish. The session's pin stays.
  Status CreateDirectory(txn::Session* session, Oid collection,
                         const std::vector<SymbolId>& path);

  /// The directory on (collection, path), or nullptr.
  Directory* Find(Oid collection, const std::vector<SymbolId>& path);

  std::size_t directory_count() const {
    MutexLock lock(mu_);
    return directories_.size();
  }

  /// Re-posts, at `time`, the slots of each directory the commit touched.
  void Published(TxnTime time,
                 const std::vector<storage::ObjectImage>& images) override;

 private:
  /// The one key evaluator: posts `slot` of `collection` (null: gone) as
  /// committed objects hold it at `at`, reading them before any directory
  /// lock. A slot holding no object closes; a broken path keys nil.
  void Post(Directory* directory, const GsObject* collection, SymbolId slot,
            TxnTime at) const;

  ObjectMemory* memory_;
  // Set by the first registration; until then a publish costs one load.
  std::atomic<bool> any_{false};
  mutable Mutex mu_{LockRank::kDirectoryManager,
                    "index.directory_manager_mu"};
  // Directories are never destroyed once registered, so the raw pointers
  // Find hands out stay valid without holding mu_; Directory itself is
  // internally synchronized.
  std::vector<std::unique_ptr<Directory>> directories_ GS_GUARDED_BY(mu_);
};

}  // namespace gemstone::index

#endif  // GEMSTONE_INDEX_DIRECTORY_H_
