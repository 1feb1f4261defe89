#ifndef GEMSTONE_TXN_TRANSACTION_MANAGER_H_
#define GEMSTONE_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/annotations.h"
#include "core/result.h"
#include "core/sync.h"
#include "object/object_memory.h"
#include "storage/storage_engine.h"
#include "storage/tier/history_source.h"
#include "telemetry/metrics.h"
#include "txn/transaction.h"

namespace gemstone::storage::tier {
class TierStore;
}  // namespace gemstone::storage::tier

namespace gemstone::txn {

/// Told of every commit by its publish: the one writer of state a layer
/// above keeps from committed objects (the index's directories).
class PublishListener {
 public:
  virtual ~PublishListener() = default;
  /// Runs under store_mu_ exclusive, after the images are applied and
  /// before the clock reaches `time`. `images[i].object` is an updated
  /// object (`named`/`indexed`: what it rebound), null for a created one.
  virtual void Published(TxnTime time,
                         const std::vector<storage::ObjectImage>& images) = 0;
};

/// Thin snapshot of the manager's telemetry counters (`txn.*`). Commit
/// latency percentiles live in the registry histogram
/// `txn.commit_latency_us`.
///
/// Concurrency: stats() is lock-free and may run while commits are in
/// flight. Each field is individually monotonic, and these cross-field
/// invariants hold in every snapshot, however it interleaves with
/// writers:
///
///   conflicts + commit_storage_failures <= aborted
///   aborted + committed                 <= begun
///
/// The guarantee comes from an explicit ordering discipline rather than a
/// lock: the thread driving a transaction increments the implied counter
/// first (begun, then aborted/committed, then the abort-cause counter)
/// and gives the *last* increment release order; stats() loads in the
/// reverse order, cause counters first with acquire. Observing a cause
/// therefore implies observing its abort, and observing an outcome
/// implies observing its begin.
struct TxnStats {
  std::uint64_t begun = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t conflicts = 0;  // aborts caused by validation failure
  std::uint64_t commit_storage_failures = 0;  // aborts from the safe write
};

/// The shared Transaction Manager (§6): "handles concurrent use of the
/// permanent database in an optimistic manner", plus the per-session data
/// access interface of the Object Manager.
///
/// Concurrency model: readers hold `store_mu_` shared per operation.
/// Writers — commits that wrote or created something, and demotions —
/// go one at a time through the commit pipeline under `commit_mu_`:
///
///   validate + stage   store_mu_ shared (backward validation at object
///                      granularity: any object read or written whose
///                      last commit time exceeds the transaction's start
///                      time is a conflict; each dirty object's
///                      post-commit image is described, not built)
///   persist            no store lock (when a StorageEngine is attached,
///                      the safe group write and root flip)
///   publish            store_mu_ exclusive (adopt the engine's new
///                      catalog pages, apply the images, tell the
///                      listener, advance `last_commit_` and the clock)
///
/// Only publish mutates what readers see, and it follows a durable root
/// flip. `last_commit_` and the clock change only in a publish, so a
/// writer's validation still holds when it publishes. Every failure path
/// leaves the transaction aborted and ObjectMemory, `last_commit_`, and
/// the clock exactly as they were. `txn.publish_hold_us` records how long
/// each publish holds readers out.
///
/// All element access from sessions goes through this class so that no
/// raw object pointer outlives its lock scope. Every object read goes
/// through one private lookup, ReadLocked: it checks the transaction is
/// active and may read the object, resolves the view, and records the
/// read (the read set at kTimeNow, historical accounting at an explicit
/// time). Element values come only from a View, and only ReadLocked makes
/// one. The one exception is ClassOfObject: a class never changes, and
/// recording it would put every message receiver in the read set.
///
/// As the storage::tier::HistorySource it is also the compaction thread's
/// window onto live history: candidates are ranked by the engine's
/// historical-channel heat, CollectHistory emits an object's cold prefix,
/// and ApplyDemotion truncates the resident copy — durably — after the
/// tier store has the records, through the same commit pipeline. Once an
/// object's history floor rises, time-dial reads below it route through
/// the attached TierStore (the tier mutex ranks directly inside
/// store_mu_, so resolution nests cleanly under the reader lock).
class TransactionManager : public storage::tier::HistorySource {
 public:
  /// `engine`, when non-null, must be open; every commit then also writes
  /// the changed objects durably before publishing them.
  explicit TransactionManager(ObjectMemory* memory,
                              storage::StorageEngine* engine = nullptr,
                              PublishListener* listener = nullptr);

  ObjectMemory& memory() { return *memory_; }

  /// Installs an authorization policy; every subsequent read and write is
  /// checked against the transaction's user. Null disables checks.
  void set_access_controller(const AccessController* access) {
    access_ = access;
  }

  /// Attaches the levelled history store: reads at times below an
  /// object's history floor resolve through it, and the compactor's
  /// HistorySource calls start demoting into it. Wire before sessions
  /// start; null detaches (only safe while no object has a raised floor).
  void AttachTierStore(storage::tier::TierStore* tiers) { tiers_ = tiers; }
  storage::tier::TierStore* tier_store() const { return tiers_; }

  // --- HistorySource (the compaction thread's view of live history) --------

  /// SafeTime: every binding at or below it is final.
  TxnTime SafeDemotionBoundary() const override { return clock_.load(); }

  std::vector<Candidate> DemotionCandidates(
      TxnTime boundary, std::size_t limit,
      std::uint64_t min_truncatable) override;

  Result<std::vector<storage::tier::VersionRecord>> CollectHistory(
      Oid oid, TxnTime boundary) override;

  Status ApplyDemotion(Oid oid, TxnTime boundary) override;

  // --- Lifecycle -------------------------------------------------------------

  std::unique_ptr<Transaction> Begin(SessionId session,
                                     UserId user = kDbaUser);

  /// Validates and publishes. On kTransactionConflict the transaction is
  /// aborted (workspace discarded) — the caller retries with a new Begin.
  Status Commit(Transaction* txn);

  Status Abort(Transaction* txn);

  /// The logical clock: time of the latest commit.
  TxnTime Now() const { return clock_.load(); }

  /// §5.4: "the most recent state for which no currently running
  /// transaction can make changes." Commits publish atomically under the
  /// exclusive store lock and always stamp a time greater than the
  /// current clock, so the clock itself is safe: a transaction pinned at
  /// SafeTime that writes nothing can never be invalidated.
  TxnTime SafeTime() const { return clock_.load(); }

  /// Runs `read` with publishes excluded, handing it the latest commit
  /// time. `read` must not call back into this manager.
  Status ReadCommitted(const std::function<Status(TxnTime)>& read) {
    ReaderMutexLock lock(store_mu_);
    return read(clock_.load());
  }

  TxnStats stats() const;

  /// The objects that caused the most validation conflicts, hottest
  /// first: (raw oid, conflict count) pairs, at most `top_n`. This is the
  /// per-object contention evidence the MVCC plan (ROADMAP item 1) needs
  /// — which objects would still serialize under finer concurrency
  /// control. Bounded: only the first kConflictHotspotCap distinct
  /// objects are tracked (`txn.conflict_oids_dropped` counts the rest).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ConflictHotspots(
      std::size_t top_n = 10) const;

  /// Recovery support: restores the logical clock to the largest commit
  /// time found in a recovered image. Call before any Begin.
  void RestoreClock(TxnTime t) { clock_.store(t); }

  // --- Object Manager data interface ----------------------------------------

  /// Creates a new object in the workspace; it becomes visible to others
  /// only at commit. The identity is permanent from this moment (§5.4).
  Result<Oid> CreateObject(Transaction* txn, Oid class_oid);

  /// Reads `oid`'s element `name` at `at`. kTimeNow is the transaction's
  /// own view: workspace first, then the committed state at its read_time
  /// (its pin, else the latest); such a read joins the read set. A read
  /// at an explicit time is time-dial traffic: history is immutable and
  /// cannot conflict, so it is not recorded, but it is accounted as
  /// historical (see NoteRead). The other reads below record the same way.
  Result<Value> ReadNamed(Transaction* txn, Oid oid, SymbolId name,
                          TxnTime at = kTimeNow);

  Status WriteNamed(Transaction* txn, Oid oid, SymbolId name, Value value);

  Result<Value> ReadIndexed(Transaction* txn, Oid oid, std::size_t index,
                            TxnTime at = kTimeNow);
  Status WriteIndexed(Transaction* txn, Oid oid, std::size_t index,
                      Value value);
  Result<std::size_t> AppendIndexed(Transaction* txn, Oid oid, Value value);
  Result<std::size_t> IndexedSize(Transaction* txn, Oid oid,
                                  TxnTime at = kTimeNow);

  /// The object's class (identity-stable over time). Neither
  /// access-checked nor recorded: see the class comment.
  Result<Oid> ClassOfObject(Transaction* txn, Oid oid);

  /// Snapshot of the named elements bound to a non-nil value at `at` (set
  /// iteration skips departed members).
  Result<std::vector<std::pair<SymbolId, Value>>> ListNamed(
      Transaction* txn, Oid oid, TxnTime at = kTimeNow);

  /// Full history of one element (committed state only). Always
  /// historical traffic.
  Result<std::vector<Association>> History(Transaction* txn, Oid oid,
                                           SymbolId name);

  /// Structural equivalence of two values at `at` (kTimeNow = the
  /// transaction's own view). Every object it visits is read through
  /// ReadLocked, so it is access-checked and recorded like any read.
  Result<bool> DeepEquals(Transaction* txn, const Value& a, const Value& b,
                          TxnTime at = kTimeNow);

 private:
  class View;

  /// The read choke point: checks `txn` is active and may read `oid`,
  /// resolves the view (ViewLocked), records the read (NoteRead), and
  /// hands back the View. Every object read but ClassOfObject starts
  /// here.
  Result<View> ReadLocked(Transaction* txn, Oid oid, TxnTime at)
      GS_REQUIRES_SHARED(store_mu_);

  /// The object a read of `oid` at `*at` consults: at kTimeNow the
  /// transaction's workspace copy (read at kTimeNow) if present, else the
  /// permanent object with `*at` set to the transaction's read_time; at
  /// an explicit time the permanent object.
  Result<const GsObject*> ViewLocked(Transaction* txn, Oid oid,
                                     TxnTime* at) const
      GS_REQUIRES_SHARED(store_mu_);

  /// The permanent object `oid`; Unavailable once it migrated to
  /// archival media.
  Result<const GsObject*> PermanentLocked(Oid oid) const
      GS_REQUIRES_SHARED(store_mu_);

  /// Copy-on-first-write into the workspace. Caller holds store_mu_.
  Result<GsObject*> WorkingCopyLocked(Transaction* txn, Oid oid)
      GS_REQUIRES_SHARED(store_mu_);

  /// The resolver pair: one element's value as `view` sees it, nil when
  /// unbound then (`element` null: never bound). Below the object's
  /// history floor the resident tables keep only the creation marker and
  /// carry-forward, so the tier store answers, and its errors surface.
  Result<Value> NamedValueLocked(const View& view,
                                 const NamedElement* element)
      GS_REQUIRES_SHARED(store_mu_);
  Result<Value> IndexedValueLocked(const View& view, std::size_t index)
      GS_REQUIRES_SHARED(store_mu_);

  /// The named elements `view` sees bound to a non-nil value.
  Result<std::vector<std::pair<SymbolId, Value>>> NamedValuesLocked(
      const View& view) GS_REQUIRES_SHARED(store_mu_);

  /// Pairs of oids under comparison on the current DeepEquals path.
  using Assumed = std::set<std::pair<std::uint64_t, std::uint64_t>>;

  Result<bool> DeepEqualsLocked(Transaction* txn, const Value& a,
                                const Value& b, TxnTime at,
                                Assumed* assumed)
      GS_REQUIRES_SHARED(store_mu_);
  /// DeepEqualsLocked of two distinct objects whose pair is in `assumed`.
  Result<bool> ObjectsEqualLocked(Transaction* txn, Oid a, Oid b, TxnTime at,
                                  Assumed* assumed)
      GS_REQUIRES_SHARED(store_mu_);

  /// An accessed object that committed after the transaction started.
  struct Conflict {
    std::uint64_t raw;
    const char* what;  // "read" or "written"
  };

  /// Backward validation for one accessed object: true when it committed
  /// after `txn` started (created objects are invisible to others and
  /// never conflict).
  bool HasConflictLocked(const Transaction& txn, std::uint64_t raw) const
      GS_REQUIRES_SHARED(store_mu_);

  /// Backward validation: the first object `txn` read or wrote that
  /// committed after it started; nullopt when valid. Only reads
  /// `last_commit_`.
  std::optional<Conflict> FindConflictLocked(const Transaction& txn) const
      GS_REQUIRES_SHARED(store_mu_);

  /// Aborts `txn` on `conflict`: flips state, bumps the abort/conflict
  /// counters, tallies the hotspot (taking store_mu_ exclusively for just
  /// that), records the flight event, and returns the conflict status.
  Status AbortConflicted(Transaction* txn, Conflict conflict)
      GS_EXCLUDES(store_mu_);

  /// Where one staged image lands at publish.
  struct PublishTarget {
    GsObject* created = nullptr;      // workspace copy, moved in
    GsObject* permanent = nullptr;    // updated in place
    GsObject* replacement = nullptr;  // demotion: replaces *permanent
  };

  /// A writer's post-commit state, in oid order: `images[i]` is persisted
  /// and then published through `targets[i]`.
  struct Staged {
    std::vector<storage::ObjectImage> images;
    std::vector<PublishTarget> targets;
  };

  /// Stage phase of a commit: one image per dirty object of `txn`, its
  /// bindings at `commit_time`. Touches only the private workspace.
  Status StageLocked(Transaction* txn, TxnTime commit_time, Staged* staged)
      GS_REQUIRES(commit_mu_) GS_REQUIRES_SHARED(store_mu_);

  /// The persist and publish phases every writer shares: persists the
  /// staged images holding no store lock, then takes store_mu_
  /// exclusively to adopt the engine's new catalog pages and apply them.
  /// A commit publishes at `commit_time`, advancing `last_commit_` and
  /// the clock; a demotion (nullopt) changes no logical content. A
  /// persist failure returns with nothing published.
  Status PersistAndPublish(Staged staged, std::optional<TxnTime> commit_time)
      GS_REQUIRES(commit_mu_) GS_EXCLUDES(store_mu_);

  /// The element marks a write of `oid` records, or null when `txn`
  /// created `oid`: a created object publishes whole, so its marks would
  /// never be read.
  static Transaction::DirtyMarks* MarksFor(Transaction* txn, Oid oid);

  /// Accounts one read of `oid` at `at`. A read at kTimeNow, pinned or
  /// not, joins the read set and moves its high-water mark
  /// (`txn.read_set_peak`: evidence for how much validation state
  /// long-lived mutating sessions accumulate). One at an explicit time is
  /// historical: it bumps `txn.historical_reads` and, when an engine is
  /// attached, deposits historical heat on `oid`'s extent tracks (see
  /// StorageEngine::NoteHistoricalObjectAccess), so history served from
  /// memory still shows up on the heatmap's time-dial side. Returns
  /// whether the read is historical (View::historical): the caller holds
  /// a HistoricalAccessScope of that value over the rest of the read,
  /// tier resolves included.
  bool NoteRead(Transaction* txn, Oid oid, TxnTime at)
      GS_REQUIRES_SHARED(store_mu_);

  /// Authorization hooks: a transaction's own created objects are always
  /// accessible (they join a segment only after publication).
  Status CheckReadAccess(const Transaction* txn, Oid oid) const;
  Status CheckWriteAccess(const Transaction* txn, Oid oid) const;

  ObjectMemory* memory_;
  storage::StorageEngine* engine_;
  PublishListener* listener_;
  storage::tier::TierStore* tiers_ = nullptr;
  const AccessController* access_ = nullptr;

  /// The commit pipeline: one writer at a time through validate, stage,
  /// persist and publish. Readers never take it.
  Mutex commit_mu_{LockRank::kTxnCommit, "txn.commit_mu"};
  mutable SharedMutex store_mu_{LockRank::kTxnStore, "txn.store_mu"};
  std::atomic<TxnTime> clock_{0};
  std::unordered_map<std::uint64_t, TxnTime> last_commit_
      GS_GUARDED_BY(store_mu_);

  /// Per-object conflict tally, maintained by conflict aborts. Bounded so
  /// a pathological workload cannot grow it without limit.
  static constexpr std::size_t kConflictHotspotCap = 4096;
  std::unordered_map<std::uint64_t, std::uint64_t> conflict_by_oid_
      GS_GUARDED_BY(store_mu_);

  /// Largest read set any transaction has accumulated (relaxed max).
  std::atomic<std::uint64_t> read_set_peak_{0};

  telemetry::Counter begun_;
  telemetry::Counter committed_;
  telemetry::Counter aborted_;
  telemetry::Counter conflicts_;
  telemetry::Counter commit_storage_failures_;
  telemetry::Counter historical_reads_;
  telemetry::Counter tier_routed_reads_;  // element values from the tier
  telemetry::Histogram* commit_latency_us_;  // registry-owned
  telemetry::Histogram* publish_hold_us_;    // registry-owned
  telemetry::Registration telemetry_;  // after the counters it samples
};

/// One object as a read sees it: the object, the time to read its
/// elements at, and whether the read is historical. Only ReadLocked can
/// make one, after it has checked access and recorded the read, so no
/// element value is reached by a read that skipped either. Valid while
/// the caller holds store_mu_.
class TransactionManager::View {
 public:
  const GsObject& object() const { return *object_; }
  TxnTime at() const { return at_; }
  bool historical() const { return historical_; }

 private:
  friend Result<View> TransactionManager::ReadLocked(Transaction* txn,
                                                     Oid oid, TxnTime at);
  View(const GsObject* object, TxnTime at, bool historical)
      : object_(object), at_(at), historical_(historical) {}

  const GsObject* object_;
  TxnTime at_;
  bool historical_;
};

}  // namespace gemstone::txn

#endif  // GEMSTONE_TXN_TRANSACTION_MANAGER_H_
