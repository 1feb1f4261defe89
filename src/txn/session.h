#ifndef GEMSTONE_TXN_SESSION_H_
#define GEMSTONE_TXN_SESSION_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>

#include "core/result.h"
#include "txn/transaction_manager.h"

namespace gemstone::txn {

/// One user session (§6: "Each user session ... has its own invocation of
/// the Interpreter, and its own Object Manager with a private object
/// space. Sessions have shared access to the permanent database through
/// transactions.")
///
/// The session carries the *time dial* of §5.4: when set to T, every read
/// resolves @T, as if "@T" were appended to each path component. Writes
/// are rejected while the dial is set — the past is immutable. SafeTime
/// pins the dial to "the most recent state for which no currently running
/// transaction can make changes."
class Session {
 public:
  /// A Session is deliberately unsynchronized: it belongs to one thread
  /// at a time (DESIGN.md §8, "session-confined"). In GS_THREAD_SAFETY
  /// builds every transaction-control and data-access call runs a cheap
  /// owner check — two relaxed atomic ops — and the process aborts with a
  /// diagnostic if two threads are ever inside the session concurrently,
  /// or if a call arrives from a thread other than a bound owner. A
  /// mis-wired worker pool therefore fails loudly instead of silently
  /// corrupting the transaction workspace.
  Session(TransactionManager* manager, SessionId id, UserId user = kDbaUser)
      : manager_(manager), id_(id), user_(user) {}

  SessionId id() const { return id_; }
  UserId user() const { return user_; }
  TransactionManager& manager() { return *manager_; }

  // --- Transaction control ---------------------------------------------------

  Status Begin();
  Status Commit();
  Status Abort();
  bool InTransaction() const { return txn_ != nullptr && txn_->active(); }
  Transaction* transaction() { return txn_.get(); }

  // --- Time dial -------------------------------------------------------------

  void SetTimeDial(TxnTime t) { dial_ = t; }
  void ClearTimeDial() { dial_.reset(); }
  void SetTimeDialToSafeTime() { dial_ = manager_->SafeTime(); }
  bool DialSet() const { return dial_.has_value(); }

  /// The time every read resolves at: the dial if set, else the snapshot
  /// pin if one is active, else now.
  TxnTime EffectiveTime() const {
    if (dial_.has_value()) return *dial_;
    return snapshot_.value_or(kTimeNow);
  }

  // --- Snapshot pin (the gateway's query path) ------------------------------
  //
  // Pinning behaves like a transient time dial at SafeTime: every read
  // resolves against the pinned committed state (so it records nothing in
  // the read set and never consults the workspace) yet is accounted as
  // the current read it stands in for (no `txn.historical_reads`, no
  // historical heat), and every side effect — object writes, creates,
  // global assignment, schema or directory mutation — fails with
  // kReadOnlyRetry instead of executing. The gateway pins a query
  // optimistically; a retry status means "this block writes after all",
  // and the gateway unpins and reruns the request in place.
  //
  // Only pin a session whose transaction is fresh (nothing read at now,
  // nothing written or created): pinned reads escape commit-time
  // validation, which is only serializable when the transaction has no
  // writes that could depend on them.

  void PinSnapshot(TxnTime t) { snapshot_ = t; }
  void UnpinSnapshot() { snapshot_.reset(); }
  bool SnapshotPinned() const { return snapshot_.has_value(); }

  /// True when the session can serve a query on a snapshot: the dial
  /// already fixes an immutable view, there is no active transaction
  /// (reads fail identically pinned or not), or the transaction has
  /// recorded no accesses yet.
  bool SnapshotReadEligible() const {
    if (dial_.has_value()) return true;
    if (txn_ == nullptr || !txn_->active()) return true;
    return txn_->read_set_size() == 0 && txn_->dirty_object_count() == 0 &&
           txn_->created_count() == 0 && txn_->workspace_size() == 0;
  }

  // --- Data access (forwarders applying the time dial) ------------------------

  Result<Oid> Create(Oid class_oid);
  Result<Value> ReadNamed(Oid oid, SymbolId name);
  /// Explicit-time read: the `@T` path qualifier, overriding the dial.
  Result<Value> ReadNamedAt(Oid oid, SymbolId name, TxnTime at);
  Status WriteNamed(Oid oid, SymbolId name, Value value);
  Result<Value> ReadIndexed(Oid oid, std::size_t index);
  Result<Value> ReadIndexedAt(Oid oid, std::size_t index, TxnTime at);
  Status WriteIndexed(Oid oid, std::size_t index, Value value);
  Result<std::size_t> AppendIndexed(Oid oid, Value value);
  Result<std::size_t> IndexedSize(Oid oid);
  Result<Oid> ClassOfObject(Oid oid);
  Result<std::vector<std::pair<SymbolId, Value>>> ListNamed(
      Oid oid, bool skip_unbound = true);
  Result<std::vector<Association>> History(Oid oid, SymbolId name);
  /// Structural equivalence at the session's effective time (§4.2).
  Result<bool> DeepEquals(const Value& a, const Value& b);

  // --- Owning-thread assertion (GS_THREAD_SAFETY builds) ----------------------

  /// Pins the session to the calling thread until ReleaseOwner(): any
  /// call from another thread aborts. The network gateway binds a worker
  /// before dispatching a request and releases it after, so ownership may
  /// legally migrate between requests but never mid-request. No-op (and
  /// zero cost) when GS_THREAD_SAFETY is off.
  void BindOwnerToCurrentThread() const;
  void ReleaseOwner() const;

 private:
  Status RequireActive() const;
  Status RequireWritable() const;

  /// How reads at EffectiveTime() are accounted: a dial read is time-dial
  /// traffic; a pinned read stands in for the current read it replaces.
  ReadAccounting EffectiveAccounting() const {
    return dial_.has_value() ? ReadAccounting::kHistorical
                             : ReadAccounting::kCurrent;
  }

#ifdef GS_THREAD_SAFETY
  /// RAII reentrancy detector entered by every fallible public method.
  /// Entry CASes owner_ from 0 to this thread's token; a CAS loss against
  /// a *different* thread means two threads are inside concurrently →
  /// abort. Exit clears owner_ when the outermost guard leaves, unless an
  /// explicit bind holds it.
  class OwnerGuard {
   public:
    explicit OwnerGuard(const Session* session);
    ~OwnerGuard();
    OwnerGuard(const OwnerGuard&) = delete;
    OwnerGuard& operator=(const OwnerGuard&) = delete;

   private:
    const Session* session_;
  };
#else
  class OwnerGuard {
   public:
    explicit OwnerGuard(const Session*) {}
  };
#endif

  TransactionManager* manager_;
  SessionId id_;
  UserId user_;
  std::unique_ptr<Transaction> txn_;
  std::optional<TxnTime> dial_;
  std::optional<TxnTime> snapshot_;

#ifdef GS_THREAD_SAFETY
  mutable std::atomic<std::size_t> owner_{0};  // thread token; 0 = unowned
  mutable std::atomic<std::uint32_t> owner_depth_{0};
  mutable std::atomic<bool> owner_bound_{false};
#endif
};

/// RAII snapshot pin: pins on entry, unpins on scope exit. The gateway
/// wraps each optimistic read-path dispatch in one of these so a retry
/// (or an early return) can never leave the session pinned.
class SnapshotPin {
 public:
  SnapshotPin(Session* session, TxnTime t) : session_(session) {
    session_->PinSnapshot(t);
  }
  ~SnapshotPin() { session_->UnpinSnapshot(); }
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;

 private:
  Session* session_;
};

}  // namespace gemstone::txn

#endif  // GEMSTONE_TXN_SESSION_H_
