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

  /// The time every read resolves at: the dial if set, else the
  /// transaction's snapshot pin if it has one, else now.
  TxnTime EffectiveTime() const {
    if (dial_.has_value()) return *dial_;
    return txn_ != nullptr ? txn_->read_time() : kTimeNow;
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
  Result<std::vector<std::pair<SymbolId, Value>>> ListNamed(Oid oid);
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

  /// The time data reads ask the manager for: the dial, else kTimeNow
  /// (the transaction's own view, which a pin resolves at the pin time).
  TxnTime DialOrNow() const { return dial_.value_or(kTimeNow); }

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

#ifdef GS_THREAD_SAFETY
  mutable std::atomic<std::size_t> owner_{0};  // thread token; 0 = unowned
  mutable std::atomic<std::uint32_t> owner_depth_{0};
  mutable std::atomic<bool> owner_bound_{false};
#endif
};

/// RAII snapshot pin (DESIGN.md §12): pins the session's transaction on
/// entry if it is fresh (Transaction::Pin), and unpins it on scope exit
/// unless the request already left the pin (Transaction::LeavePin).
/// The gateway wraps each query dispatch in one of these so an early
/// return can never leave a transaction pinned. Only this pins, and a
/// transaction begun inside the scope (`System commitTransaction`) starts
/// unpinned, so the exit acts only on the transaction pinned here; one
/// that has since committed or aborted is already gone.
class SnapshotPin {
 public:
  SnapshotPin(Session* session, TxnTime t)
      : session_(session),
        pinned_(session->transaction() != nullptr &&
                session->transaction()->Pin(t)) {}
  ~SnapshotPin() {
    if (pinned_ && session_->transaction() != nullptr) {
      session_->transaction()->Unpin();
    }
  }
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;

  bool pinned() const { return pinned_; }

 private:
  Session* session_;
  bool pinned_;
};

}  // namespace gemstone::txn

#endif  // GEMSTONE_TXN_SESSION_H_
