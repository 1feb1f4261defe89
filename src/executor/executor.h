#ifndef GEMSTONE_EXECUTOR_EXECUTOR_H_
#define GEMSTONE_EXECUTOR_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/result.h"
#include "core/sync.h"
#include "index/directory.h"
#include "object/object_memory.h"
#include "opal/compiler.h"
#include "opal/interpreter.h"
#include "stdm/calculus.h"
#include "stdm/stdm_value.h"
#include "storage/storage_engine.h"
#include "txn/session.h"
#include "txn/transaction_manager.h"

namespace gemstone::executor {

/// The Executor (§6): "responsible for controlling sessions in the
/// GemStone system on behalf of users on host machines ... receiving
/// blocks of code, returning results and error messages. It maintains a
/// Compiler and Interpreter for each active user."
///
/// The network link of the paper's deployment is replaced by an
/// in-process API with the same unit of communication: a block of OPAL
/// source in, a result (or error Status) out.
///
/// When constructed over a StorageEngine, commits persist through the
/// Boxer/Linker/CommitManager pipeline, and `Recover` rebuilds the full
/// image — objects, logical clock, user classes and their recompiled
/// methods — from the platters.
///
/// Threading: the session table is internally synchronized, so
/// Login/Logout and per-session calls may arrive from different threads
/// concurrently. Calls *within* one session are not — the caller (the
/// gateway's per-connection FIFO, or a single-threaded embedder) must
/// never run two operations on the same SessionId at once, and must not
/// Logout a session with an operation in flight. Raw Session/Interpreter
/// pointers stay valid until that session's Logout: the map guarantees
/// element stability across inserts, and entries are only destroyed by
/// Logout.
class Executor {
 public:
  /// Purely in-memory system.
  Executor();

  /// Durable system over an opened engine (Format/Open already done).
  explicit Executor(storage::StorageEngine* engine);

  /// Rebuilds an Executor from a recovered engine: loads every cataloged
  /// object, replays the schema (class definitions and method sources)
  /// and restores the commit clock.
  static Result<std::unique_ptr<Executor>> Recover(
      storage::StorageEngine* engine);

  // --- Sessions ---------------------------------------------------------------

  /// Opens a session (its own Interpreter and transaction workspace, §6)
  /// and begins its first transaction. `user` is the identity every
  /// authorization check runs against when an AccessController is set on
  /// the TransactionManager.
  Result<SessionId> Login(UserId user = kDbaUser);

  /// Ends a session, aborting any open transaction.
  Status Logout(SessionId session);

  /// Compiles and runs one block of OPAL source in the session, answering
  /// the block's value.
  Result<Value> Execute(SessionId session, std::string_view source);

  /// As Execute, but renders the result with printString semantics —
  /// what a host terminal would display.
  Result<std::string> ExecuteToString(SessionId session,
                                      std::string_view source);

  /// Runs a §5.1 set-calculus query: parses `query_text`, translates it
  /// to set algebra, binds free variables from the globals at the
  /// session's effective time (a time-dialed session queries the past
  /// state), executes the plan, and renders the result set.
  Result<std::string> ExecuteStdm(SessionId session,
                                  std::string_view query_text);

  /// EXPLAIN (and with `analyze`, EXPLAIN ANALYZE) for a §5.1 set-calculus
  /// query: parses `query_text`, translates it to set algebra, and renders
  /// the operator tree. Free variables resolve from the globals and export
  /// at the session's effective time, so a time-dialed session explains
  /// the plan over the past state it would query. With `analyze` the plan
  /// runs and every operator line carries measured in/out cardinalities,
  /// exclusive time, and attributed disk track reads/writes/seeks.
  Result<std::string> ExplainStdm(SessionId session,
                                  std::string_view query_text, bool analyze);

  // --- Schema persistence -----------------------------------------------------

  /// Persists user class definitions + method sources into the system
  /// object (they ride the ordinary commit pipeline). Call after schema
  /// changes when durability matters.
  Status SaveSchema(SessionId session);

  // --- Introspection ----------------------------------------------------------

  ObjectMemory& memory() { return memory_; }
  txn::TransactionManager& transactions() { return transactions_; }
  index::DirectoryManager& directories() { return directories_; }
  opal::GlobalEnv& globals() { return globals_; }
  txn::Session* session(SessionId id);
  opal::Interpreter* interpreter(SessionId id);
  /// Safe to call from any thread: monitors observe the gateway tearing
  /// sessions down concurrently, so the count is a release/acquire atomic
  /// rather than a read of the (unsynchronized) session table.
  std::size_t active_sessions() const {
    return session_count_.load(std::memory_order_acquire);
  }

 private:
  struct SessionEntry {
    std::unique_ptr<txn::Session> session;
    std::unique_ptr<opal::Interpreter> interpreter;
  };

  void Bootstrap();

  /// Execute against `session`'s interpreter, already looked up (null
  /// when there is no such session), so callers that need it afterwards
  /// look it up once.
  Result<Value> ExecuteIn(opal::Interpreter* interp, SessionId session,
                          std::string_view source);

  /// Resolves each named free variable from the globals and exports its
  /// object graph at the session's effective time; `exported` keeps the
  /// values' addresses stable for the Bindings.
  Status BindFreeVariables(txn::Session* s,
                           const std::vector<std::string>& names,
                           std::deque<stdm::StdmValue>* exported,
                           stdm::Bindings* free);

  /// Serializes user classes (names, superclasses, formats, instance
  /// variables, method sources) for schema recovery.
  std::string EncodeSchema() const;
  Status DecodeSchema(const std::string& blob);

  ObjectMemory memory_;
  opal::GlobalEnv globals_;
  index::DirectoryManager directories_;
  txn::TransactionManager transactions_;

  std::atomic<SessionId> next_session_{1};
  mutable SharedMutex sessions_mu_{LockRank::kExecutorSessions,
                                   "executor.sessions_mu"};
  std::unordered_map<SessionId, SessionEntry> sessions_
      GS_GUARDED_BY(sessions_mu_);
  std::atomic<std::size_t> session_count_{0};
};

}  // namespace gemstone::executor

#endif  // GEMSTONE_EXECUTOR_EXECUTOR_H_
