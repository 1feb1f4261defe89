#ifndef GEMSTONE_TXN_TRANSACTION_H_
#define GEMSTONE_TXN_TRANSACTION_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "core/access_control.h"
#include "core/ids.h"
#include "object/gs_object.h"

namespace gemstone::txn {

enum class TxnState : std::uint8_t { kActive, kCommitted, kAborted };

/// One optimistic transaction: a private workspace of object copies plus
/// the recorded access sets the Transaction Manager validates at commit
/// (§6: "It records accesses to the database for each session, and
/// validates them for consistency when a transaction commits").
///
/// Writes inside the workspace bind at the provisional time kTimeNow; the
/// Linker re-stamps dirty elements with the real commit time when folding
/// them into the permanent store, so each element gains at most one
/// association per commit.
///
/// The gateway's snapshot pin (DESIGN.md §12) lives here: pinning a fresh
/// transaction at committed time P moves its start up to P, and until it
/// is unpinned its own reads (at kTimeNow) resolve at P, workspace first.
/// They are recorded like any current read, and every side effect runs
/// in place: commit-time validation against the start covers the whole
/// request. Only the first pin moves the start.
class Transaction {
 public:
  Transaction(SessionId session, TxnTime start_time,
              UserId user = kDbaUser)
      : session_(session), start_time_(start_time), user_(user) {}
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  SessionId session() const { return session_; }
  TxnTime start_time() const { return start_time_; }
  UserId user() const { return user_; }
  TxnState state() const { return state_; }
  bool active() const { return state_ == TxnState::kActive; }

  std::size_t read_set_size() const { return read_set_.size(); }
  /// Objects the transaction publishes at commit: written or created.
  std::size_t dirty_object_count() const {
    return dirty_.size() + created_.size();
  }
  /// Whether it has written a permanent object (created ones aside).
  bool wrote_permanent() const { return !dirty_.empty(); }
  /// Private copies still held; zero once the transaction finishes.
  std::size_t workspace_size() const { return working_.size(); }

  /// Pins the transaction at committed time `t`: until Unpin its own
  /// reads resolve at `t`. The first pin also moves its start up to `t`,
  /// which is sound only because nothing has been read, written or
  /// created yet; later pins leave the start where the first put it, so
  /// validation still covers the commits that reads already dropped by
  /// Unpin may predate. Returns false, changing nothing, unless it is
  /// active and fresh in that sense.
  bool Pin(TxnTime t) {
    if (!active() || !read_set_.empty() || !dirty_.empty() ||
        !created_.empty() || !working_.empty()) {
      return false;
    }
    if (!start_fixed_) start_time_ = t;
    start_fixed_ = true;
    pin_ = t;
    return true;
  }

  /// Ends the pin. A transaction that wrote and created nothing read one
  /// committed snapshot, which stays consistent whatever commits later:
  /// it drops its read set and is fresh again. One that wrote keeps its
  /// reads for validation against its start.
  void Unpin() {
    if (!pinned()) return;
    pin_ = kTimeNow;
    if (dirty_.empty() && created_.empty()) read_set_.clear();
  }

  bool pinned() const { return pin_ != kTimeNow; }

  /// The committed time the transaction's own reads resolve at: its pin,
  /// else the latest state (kTimeNow).
  TxnTime read_time() const { return pin_; }

 private:
  friend class TransactionManager;

  /// Per-object record of which elements this transaction wrote, for
  /// permanent objects only: created objects publish whole.
  struct DirtyMarks {
    std::unordered_set<SymbolId> named;
    std::unordered_set<std::size_t> indexed;
  };

  SessionId session_;
  TxnTime start_time_;
  UserId user_;
  TxnState state_ = TxnState::kActive;
  TxnTime pin_ = kTimeNow;     // kTimeNow: not pinned
  bool start_fixed_ = false;  // a pin has set start_time_

  std::unordered_map<std::uint64_t, GsObject> working_;  // private copies
  std::unordered_set<std::uint64_t> read_set_;
  std::unordered_set<std::uint64_t> created_;
  std::unordered_map<std::uint64_t, DirtyMarks> dirty_;
};

}  // namespace gemstone::txn

#endif  // GEMSTONE_TXN_TRANSACTION_H_
