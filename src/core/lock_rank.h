#ifndef GEMSTONE_CORE_LOCK_RANK_H_
#define GEMSTONE_CORE_LOCK_RANK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// The lock-rank lattice and its runtime validator (DESIGN.md §13).
///
/// Every gs::Mutex / gs::SharedMutex is constructed with a LockRank and a
/// stable display name. Ranks are declared outermost-first: a thread may
/// only acquire a lock whose rank is STRICTLY GREATER (more inner) than
/// the innermost lock it already holds. Acquiring upward — or sideways,
/// two locks of the same rank nested — is a lock-order violation: it is
/// the shape from which deadlocks are built, even if this particular
/// interleaving got away with it.
///
/// Enforcement is compiled in when GS_LOCK_ORDER_VALIDATION is 1 (set
/// below: debug builds and GS_THREAD_SAFETY builds) and compiled out of
/// release builds — Lock()/Unlock() collapse back to the bare primitive.
/// When active, the validator keeps
///   * a thread-local stack of held (rank, name, shared) entries that
///     aborts with both lock names on any out-of-order acquisition, and
///   * a process-wide observed-acquisition graph (rank -> rank edge
///     counts) with cycle detection, so *potential* inversions surface
///     from runs whose timing never actually deadlocked. The edge set is
///     exported as `sync.lock_edges` / `sync.lock_order_violations` and
///     rendered by the gateway's /statusz page.

#if !defined(GS_LOCK_ORDER_VALIDATION)
#if defined(GS_THREAD_SAFETY) || !defined(NDEBUG)
#define GS_LOCK_ORDER_VALIDATION 1
#else
#define GS_LOCK_ORDER_VALIDATION 0
#endif
#endif

namespace gemstone {

/// The global rank lattice, outermost (acquired first) to innermost.
/// Mirrors the DESIGN.md §12 contract
///   conn_table_mu_ -> conn->mu;  commit_mu_ -> store_mu_ -> ...
/// (the gateway holds neither of its locks while entering the executor),
/// extended downward through every module that owns shared state. The
/// full table — each rank, its owning mutex, and who may hold what
/// beneath it — lives in DESIGN.md §13; keep the two in sync (gs_lint
/// checks that every mutex declaration names a rank).
enum class LockRank : std::uint8_t {
  // -- Gateway (src/net) ----------------------------------------------------
  kNetConnTable = 0,   // net::Server::conn_table_mu_
  kNetConnection,      // net::Server::Connection::mu (one at a time)
  // -- Executor / interpreter shared state ----------------------------------
  kExecutorSessions,   // executor::Executor::sessions_mu_
  kOpalGlobals,        // opal::GlobalEnv::mu_
  // -- Transaction & object layer -------------------------------------------
  kTxnCommit,          // txn::TransactionManager::commit_mu_ (one writer
                       // at a time through validate, stage, persist and
                       // publish; takes store_mu_ beneath it)
  kTxnStore,           // txn::TransactionManager::store_mu_
  kStorageTier,        // storage::tier::TierStore::mu_ (level catalogs;
                       // taken from under store_mu_ by the time-dial
                       // resolver, lock-free by the compactor; inner work
                       // touches the symbol table and tier devices, so it
                       // sits just inside txn.store)
  kClassRegistry,      // ClassRegistry::mu_ (interns symbols inside)
  kObjectMemory,       // ObjectMemory::mu_
  kSymbolTable,        // SymbolTable::mu_
  // -- Indexes, authorization, storage --------------------------------------
  kDirectoryManager,   // index::DirectoryManager::mu_
  kDirectory,          // index::Directory::mu_
  kAuthorization,      // admin::AuthorizationManager::mu_ (ACL checks run
                       // under store_mu_)
  kStorageDevice,      // storage::SimulatedDisk::mu_
  kStorageHeatmap,     // storage::TrackHeatmap::mu_ (recorded from under
                       // the device lock and from txn historical reads)
  // -- Telemetry leaves (recordable from under any lock above) --------------
  kTelemetryObservatory,  // telemetry::Observatory::mu_ (the ring; never
                          // held while sampling the registry)
  kTelemetryMetrics,   // telemetry::MetricsRegistry::mu_
  kTelemetryProfiler,  // telemetry::Profiler::mu_
  kTelemetryTrace,     // telemetry::TraceRing::Slot::mu (one at a time)
  kTelemetryAutoDump,  // the event auto-dump path (telemetry/trace.cc)
  // -- Unconstrained leaf ----------------------------------------------------
  // For mutexes with no lock-graph neighbors (test fixtures, tools). A
  // kLeaf section must not acquire anything, kLeaf included.
  kLeaf,

  kRankCount,  // sentinel — keep last
};

/// Stable display name, e.g. "txn.store".
std::string_view LockRankName(LockRank rank);

namespace lock_order {

/// One observed acquisition edge: while holding a lock of rank `holder`,
/// some thread acquired a lock of rank `acquired` `count` times.
struct Edge {
  LockRank holder;
  LockRank acquired;
  std::uint64_t count;
};

/// One entry of the calling thread's held-lock stack, outermost first.
struct Held {
  LockRank rank;
  const char* name;
  bool shared;
};

/// Called by gs::Mutex/SharedMutex before blocking on the acquisition.
/// Records the acquisition edge, then checks the thread-local stack: if
/// `rank` is not strictly inner to the innermost held rank, reports a
/// violation (by default: prints both lock names plus the held stack to
/// stderr and aborts) and finally pushes the new hold.
void NoteAcquire(LockRank rank, const char* name, bool shared);

/// Called on release. Pops the (normally innermost) matching hold.
void NoteRelease(LockRank rank, const char* name);

/// The calling thread's current held-lock stack, outermost first.
std::vector<Held> HeldLocks();
std::size_t HeldCount();

/// Process-wide observed-acquisition graph, edges with count > 0.
std::vector<Edge> AcquisitionEdges();
/// Distinct (holder, acquired) pairs ever observed.
std::uint64_t EdgeCount();
/// Total acquisitions noted (cheap liveness signal for telemetry).
std::uint64_t AcquisitionCount();

/// True when the observed graph has no cycle. A ranked system that never
/// violated stays acyclic by construction; a cycle is proof two code
/// paths disagree about order even if neither run deadlocked. On failure
/// `cycle_out` (when non-null) receives the cycle as "a -> b -> a".
bool GraphIsAcyclic(std::string* cycle_out);

/// Out-of-order acquisitions observed. Always 0 unless aborting was
/// turned off (tests) — a violation normally never returns.
std::uint64_t ViolationCount();

/// Test hook: when false, a violation counts and records its edge
/// instead of aborting, so detection itself is unit-testable. Returns
/// the previous setting.
bool SetAbortOnViolation(bool abort_on_violation);

/// Test hook: forgets observed edges and violations (held stacks are
/// live state and stay).
void ResetGraphForTest();

}  // namespace lock_order
}  // namespace gemstone

#endif  // GEMSTONE_CORE_LOCK_RANK_H_
