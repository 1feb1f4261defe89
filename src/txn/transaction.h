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
  std::size_t created_count() const { return created_.size(); }
  /// Private copies still held; zero once the transaction finishes.
  std::size_t workspace_size() const { return working_.size(); }

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

  std::unordered_map<std::uint64_t, GsObject> working_;  // private copies
  std::unordered_set<std::uint64_t> read_set_;
  std::unordered_set<std::uint64_t> created_;
  std::unordered_map<std::uint64_t, DirtyMarks> dirty_;
};

}  // namespace gemstone::txn

#endif  // GEMSTONE_TXN_TRANSACTION_H_
