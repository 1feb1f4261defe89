#ifndef GEMSTONE_INDEX_DIRECTORY_H_
#define GEMSTONE_INDEX_DIRECTORY_H_

#include <cstdint>
#include <map>
#include <memory>
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
/// Keys are ordered by the canonical rendering of the discriminator
/// value, so the directory answers equality probes and ordered ranges.
class Directory {
 public:
  Directory(Oid collection, std::vector<SymbolId> path);

  Oid collection() const { return collection_; }
  const std::vector<SymbolId>& path() const { return path_; }

  /// Members whose discriminator equals `key` at time `at`.
  std::vector<Oid> Lookup(const Value& key, TxnTime at) const;

  /// Members whose discriminator lies in [lo, hi] at time `at`. Only
  /// meaningful for homogeneous (all-numeric or all-string) keys.
  std::vector<Oid> LookupRange(const Value& lo, const Value& hi,
                               TxnTime at) const;

  /// Records that `member` acquired discriminator `key` at `at` (closing
  /// any posting that was current).
  void Add(const Value& key, Oid member, TxnTime at);

  /// Closes `member`'s current posting at `at` (member removed from the
  /// collection or discriminator about to change).
  void Remove(Oid member, TxnTime at);

  std::size_t posting_count() const;
  DirectoryStats stats() const;

 private:
  static std::string KeyOf(const Value& value);

  Oid collection_;
  std::vector<SymbolId> path_;

  mutable Mutex mu_{LockRank::kDirectory, "index.directory_mu"};
  // Ordered so range probes walk a contiguous key span.
  std::map<std::string, std::vector<Posting>> postings_ GS_GUARDED_BY(mu_);
  // member -> key of its currently-open posting (for Remove/Re-Add).
  std::unordered_map<std::uint64_t, std::string> open_ GS_GUARDED_BY(mu_);

  mutable telemetry::Counter lookups_;
  mutable telemetry::Counter postings_scanned_;
  mutable telemetry::Counter updates_;
  telemetry::Registration telemetry_;  // after the counters it samples
};

/// The Directory Manager (§6): "creates and maintains directories."
/// Directories are created from OPAL "storage hints" (a createDirectory
/// request naming a collection and a discriminator path) and maintained
/// by the collection primitives on add/remove/update.
class DirectoryManager {
 public:
  explicit DirectoryManager(ObjectMemory* memory) : memory_(memory) {}

  /// Builds a directory over `collection` discriminating on `path`,
  /// populated from the members `session` reads, with entries stamped at
  /// the time it reads them at: its dial, else now. It ends a snapshot pin
  /// on the session's transaction (Transaction::LeavePin), so the members
  /// are the latest committed ones plus the workspace's.
  Status CreateDirectory(txn::Session* session, Oid collection,
                         const std::vector<SymbolId>& path);

  /// The directory on (collection, path), or nullptr.
  Directory* Find(Oid collection, const std::vector<SymbolId>& path);

  /// Any directory on `collection` whose path starts with `first`
  /// (used by selectWhere: planning), or nullptr.
  Directory* FindByFirstStep(Oid collection, SymbolId first);

  /// Maintenance hook: `member` was added to `collection` at current
  /// time. Reads the discriminator through `session` and posts it.
  Status NoteAdd(txn::Session* session, Oid collection, const Value& member);

  /// Maintenance hook: `member` left `collection`.
  Status NoteRemove(txn::Session* session, Oid collection,
                    const Value& member);

  std::size_t directory_count() const {
    MutexLock lock(mu_);
    return directories_.size();
  }

  /// Evaluates a discriminator path against one member value.
  static Result<Value> ReadPath(txn::Session* session, const Value& member,
                                const std::vector<SymbolId>& path);

 private:
  ObjectMemory* memory_;
  mutable Mutex mu_{LockRank::kDirectoryManager,
                    "index.directory_manager_mu"};
  // Directories are never destroyed once registered, so the raw pointers
  // Find hands out stay valid without holding mu_; Directory itself is
  // internally synchronized.
  std::vector<std::unique_ptr<Directory>> directories_ GS_GUARDED_BY(mu_);
};

}  // namespace gemstone::index

#endif  // GEMSTONE_INDEX_DIRECTORY_H_
