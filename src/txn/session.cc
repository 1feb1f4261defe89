#include "txn/session.h"

#ifdef GS_THREAD_SAFETY
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#endif

namespace gemstone::txn {

#ifdef GS_THREAD_SAFETY

namespace {

/// A nonzero token identifying the calling thread.
std::size_t ThreadToken() {
  const std::size_t token =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return token == 0 ? 1 : token;
}

[[noreturn]] void DieConcurrentUse(SessionId id, const char* what) {
  std::fprintf(stderr,
               "gemstone: session %u %s — sessions are single-threaded; "
               "a worker pool must serialize per-session dispatch\n",
               id, what);
  std::abort();
}

}  // namespace

Session::OwnerGuard::OwnerGuard(const Session* session) : session_(session) {
  const std::size_t me = ThreadToken();
  std::size_t expected = 0;
  if (!session_->owner_.compare_exchange_strong(
          expected, me, std::memory_order_acq_rel,
          std::memory_order_acquire) &&
      expected != me) {
    DieConcurrentUse(session_->id_, "used from two threads concurrently");
  }
  session_->owner_depth_.fetch_add(1, std::memory_order_relaxed);
}

Session::OwnerGuard::~OwnerGuard() {
  if (session_->owner_depth_.fetch_sub(1, std::memory_order_relaxed) == 1 &&
      !session_->owner_bound_.load(std::memory_order_relaxed)) {
    session_->owner_.store(0, std::memory_order_release);
  }
}

void Session::BindOwnerToCurrentThread() const {
  const std::size_t me = ThreadToken();
  std::size_t expected = 0;
  if (!owner_.compare_exchange_strong(expected, me,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire) &&
      expected != me) {
    DieConcurrentUse(id_, "bound while owned by another thread");
  }
  owner_bound_.store(true, std::memory_order_relaxed);
}

void Session::ReleaseOwner() const {
  owner_bound_.store(false, std::memory_order_relaxed);
  if (owner_depth_.load(std::memory_order_relaxed) == 0) {
    owner_.store(0, std::memory_order_release);
  }
}

#else

void Session::BindOwnerToCurrentThread() const {}
void Session::ReleaseOwner() const {}

#endif  // GS_THREAD_SAFETY

Status Session::Begin() {
  OwnerGuard guard(this);
  if (InTransaction()) {
    return Status::TransactionState("transaction already active");
  }
  txn_ = manager_->Begin(id_, user_);
  return Status::OK();
}

Status Session::Commit() {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  Status s = manager_->Commit(txn_.get());
  txn_.reset();
  return s;
}

Status Session::Abort() {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  Status s = manager_->Abort(txn_.get());
  txn_.reset();
  return s;
}

Status Session::RequireActive() const {
  if (txn_ == nullptr || !txn_->active()) {
    return Status::TransactionState("no active transaction");
  }
  return Status::OK();
}

Status Session::RequireWritable() const {
  GS_RETURN_IF_ERROR(RequireActive());
  if (dial_.has_value()) {
    return Status::TransactionState(
        "cannot write while the time dial is set to a past state");
  }
  return Status::OK();
}

Result<Oid> Session::Create(Oid class_oid) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireWritable());
  return manager_->CreateObject(txn_.get(), class_oid);
}

Result<Value> Session::ReadNamed(Oid oid, SymbolId name) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->ReadNamed(txn_.get(), oid, name, DialOrNow());
}

Result<Value> Session::ReadNamedAt(Oid oid, SymbolId name, TxnTime at) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->ReadNamed(txn_.get(), oid, name, at);
}

Status Session::WriteNamed(Oid oid, SymbolId name, Value value) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireWritable());
  return manager_->WriteNamed(txn_.get(), oid, name, std::move(value));
}

Result<Value> Session::ReadIndexed(Oid oid, std::size_t index) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->ReadIndexed(txn_.get(), oid, index, DialOrNow());
}

Result<Value> Session::ReadIndexedAt(Oid oid, std::size_t index, TxnTime at) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->ReadIndexed(txn_.get(), oid, index, at);
}

Status Session::WriteIndexed(Oid oid, std::size_t index, Value value) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireWritable());
  return manager_->WriteIndexed(txn_.get(), oid, index, std::move(value));
}

Result<std::size_t> Session::AppendIndexed(Oid oid, Value value) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireWritable());
  return manager_->AppendIndexed(txn_.get(), oid, std::move(value));
}

Result<std::size_t> Session::IndexedSize(Oid oid) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->IndexedSize(txn_.get(), oid, DialOrNow());
}

Result<Oid> Session::ClassOfObject(Oid oid) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->ClassOfObject(txn_.get(), oid);
}

Result<std::vector<std::pair<SymbolId, Value>>> Session::ListNamed(
    Oid oid, bool skip_unbound) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->ListNamed(txn_.get(), oid, DialOrNow(), skip_unbound);
}

Result<std::vector<Association>> Session::History(Oid oid, SymbolId name) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->History(txn_.get(), oid, name);
}

Result<bool> Session::DeepEquals(const Value& a, const Value& b) {
  OwnerGuard guard(this);
  GS_RETURN_IF_ERROR(RequireActive());
  return manager_->DeepEquals(txn_.get(), a, b, DialOrNow());
}

}  // namespace gemstone::txn
