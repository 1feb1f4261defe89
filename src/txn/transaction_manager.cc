#include "txn/transaction_manager.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "storage/tier/tier_store.h"
#include "telemetry/io_attribution.h"
#include "telemetry/profiler.h"
#include "telemetry/trace.h"

namespace gemstone::txn {

TransactionManager::TransactionManager(ObjectMemory* memory,
                                       storage::StorageEngine* engine,
                                       PublishListener* listener)
    : memory_(memory),
      engine_(engine),
      listener_(listener),
      commit_latency_us_(telemetry::MetricsRegistry::Global().GetHistogram(
          "txn.commit_latency_us")),
      publish_hold_us_(telemetry::MetricsRegistry::Global().GetHistogram(
          "txn.publish_hold_us")),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("txn.begun", begun_.value());
            sink->Counter("txn.committed", committed_.value());
            sink->Counter("txn.aborted", aborted_.value());
            sink->Counter("txn.conflicts", conflicts_.value());
            sink->Counter("txn.commit_storage_failures",
                          commit_storage_failures_.value());
            sink->Counter("txn.historical_reads", historical_reads_.value());
            sink->Counter("txn.tier_routed_reads",
                          tier_routed_reads_.value());
            sink->Gauge("txn.read_set_peak",
                        static_cast<std::int64_t>(read_set_peak_.load(
                            std::memory_order_relaxed)));
          })) {}

bool TransactionManager::NoteRead(Transaction* txn, Oid oid, TxnTime at) {
  if (at == kTimeNow) {
    txn->read_set_.insert(oid.raw);
    const std::uint64_t n = txn->read_set_.size();
    std::uint64_t peak = read_set_peak_.load(std::memory_order_relaxed);
    while (n > peak &&
           !read_set_peak_.compare_exchange_weak(peak, n,
                                                 std::memory_order_relaxed)) {
    }
    return false;
  }
  historical_reads_.Increment();
  if (engine_ != nullptr) engine_->NoteHistoricalObjectAccess(oid);
  return true;
}

std::unique_ptr<Transaction> TransactionManager::Begin(SessionId session,
                                                       UserId user) {
  // No store lock: the clock is atomic and advances only after a publish
  // has applied every binding stamped with it.
  begun_.Increment();
  auto txn = std::make_unique<Transaction>(session, clock_.load(), user);
  telemetry::RecordEvent(telemetry::TraceKind::kTxnBegin, session,
                         txn->start_time(), 0, "");
  return txn;
}

Status TransactionManager::CheckReadAccess(const Transaction* txn,
                                           Oid oid) const {
  if (access_ == nullptr || txn->created_.count(oid.raw) != 0) {
    return Status::OK();
  }
  return access_->CheckRead(txn->user(), oid);
}

Status TransactionManager::CheckWriteAccess(const Transaction* txn,
                                            Oid oid) const {
  if (access_ == nullptr || txn->created_.count(oid.raw) != 0) {
    return Status::OK();
  }
  return access_->CheckWrite(txn->user(), oid);
}

Status TransactionManager::Abort(Transaction* txn) {
  // Session-confined: the workspace is private, so no store lock.
  if (!txn->active()) {
    return Status::TransactionState("abort of a finished transaction");
  }
  txn->state_ = TxnState::kAborted;
  txn->working_.clear();
  aborted_.Increment(1, std::memory_order_release);
  telemetry::RecordEvent(telemetry::TraceKind::kTxnAbort, txn->session(),
                         txn->start_time(), 0, "explicit abort");
  return Status::OK();
}

bool TransactionManager::HasConflictLocked(const Transaction& txn,
                                           std::uint64_t raw) const {
  if (txn.created_.count(raw) != 0) return false;
  auto it = last_commit_.find(raw);
  return it != last_commit_.end() && it->second > txn.start_time();
}

std::optional<TransactionManager::Conflict>
TransactionManager::FindConflictLocked(const Transaction& txn) const {
  for (std::uint64_t raw : txn.read_set_) {
    if (HasConflictLocked(txn, raw)) return Conflict{raw, "read"};
  }
  for (const auto& [raw, marks] : txn.dirty_) {
    if (HasConflictLocked(txn, raw)) return Conflict{raw, "written"};
  }
  return std::nullopt;
}

Status TransactionManager::AbortConflicted(Transaction* txn,
                                           Conflict conflict) {
  const std::uint64_t raw = conflict.raw;
  const char* what = conflict.what;
  // Counter order (aborted, then the cause with release) upholds the
  // TxnStats snapshot invariants.
  txn->state_ = TxnState::kAborted;
  txn->working_.clear();
  aborted_.Increment(1, std::memory_order_release);
  conflicts_.Increment(1, std::memory_order_release);
  {
    // Per-object contention evidence (ConflictHotspots): the one piece of
    // shared state a conflict mutates, and all it holds the lock for.
    WriterMutexLock lock(store_mu_);
    auto hot = conflict_by_oid_.find(raw);
    if (hot != conflict_by_oid_.end()) {
      ++hot->second;
    } else if (conflict_by_oid_.size() < kConflictHotspotCap) {
      conflict_by_oid_.emplace(raw, 1);
    } else {
      static telemetry::Counter* dropped =
          telemetry::MetricsRegistry::Global().GetCounter(
              "txn.conflict_oids_dropped");
      dropped->Increment();
    }
  }
  telemetry::RecordEvent(telemetry::TraceKind::kTxnConflict, txn->session(),
                         raw, 0,
                         std::string(what) + " object " +
                             Oid(raw).ToString() + " changed since start");
  return Status::TransactionConflict(std::string(what) + " object " +
                                     Oid(raw).ToString() +
                                     " changed since start");
}

Status TransactionManager::Commit(Transaction* txn) {
  TELEM_SPAN("txn.commit");
  const auto commit_start = std::chrono::steady_clock::now();
  // Transaction state is session-confined; no lock needed to inspect it.
  if (!txn->active()) {
    return Status::TransactionState("commit of a finished transaction");
  }

  // Every commit path ends here: the outcome, its event (stamped with the
  // time the transaction serializes at) and its latency.
  auto committed = [&](TxnTime time) {
    txn->state_ = TxnState::kCommitted;
    txn->working_.clear();
    committed_.Increment(1, std::memory_order_release);
    const std::uint64_t latency_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - commit_start)
            .count());
    telemetry::RecordEvent(telemetry::TraceKind::kTxnCommit, txn->session(),
                           time, latency_us, "");
    commit_latency_us_->Observe(latency_us);
    return Status::OK();
  };

  // A transaction that recorded nothing (a query the gateway ran pinned
  // drops its reads when the request ends) releases without touching the
  // store lock at all — there is nothing to validate or publish. Nor does
  // a pinned one that wrote nothing: it read one committed snapshot,
  // which later commits cannot make inconsistent.
  if (txn->dirty_.empty() && txn->created_.empty() &&
      (txn->read_set_.empty() || txn->pinned())) {
    return committed(clock_.load());
  }

  // Read-only with a recorded read set: validation only compares
  // `last_commit_` stamps, so the shared lock suffices — concurrent
  // readers and other read-only commits proceed, only a publish excludes
  // us. If a writer publishes after we validate, we serialize before it.
  if (txn->dirty_.empty() && txn->created_.empty()) {
    std::optional<Conflict> conflict;
    {
      ReaderMutexLock lock(store_mu_);
      conflict = FindConflictLocked(*txn);
    }
    if (!conflict.has_value()) return committed(clock_.load());
    return AbortConflicted(txn, *conflict);
  }

  // A writer: one at a time through the commit pipeline. `last_commit_`
  // and the clock change only in a publish, which needs commit_mu_, so
  // what validate and stage see under the shared lock still holds when
  // this writer publishes.
  MutexLock pipeline(commit_mu_);

  // Any failure from here on aborts cleanly: the store, last_commit_, and
  // the clock are untouched until the publish phase, which cannot fail.
  auto abort_cleanly = [&](Status status) {
    txn->state_ = TxnState::kAborted;
    txn->working_.clear();
    aborted_.Increment(1, std::memory_order_release);
    telemetry::RecordEvent(telemetry::TraceKind::kTxnAbort, txn->session(),
                           txn->start_time(), 0, status.message());
    return status;
  };

  std::optional<Conflict> conflict;
  const TxnTime commit_time = clock_.load() + 1;
  Staged staged;
  Status stage_status = Status::OK();
  {
    ReaderMutexLock lock(store_mu_);
    // Backward validation: any accessed object committed after our start
    // is a conflict ("validates them for consistency when a transaction
    // commits", §6).
    conflict = FindConflictLocked(*txn);
    if (!conflict.has_value()) {
      stage_status = StageLocked(txn, commit_time, &staged);
    }
  }
  if (conflict.has_value()) return AbortConflicted(txn, *conflict);
  if (!stage_status.ok()) return abort_cleanly(stage_status);

  Status published = PersistAndPublish(std::move(staged), commit_time);
  if (!published.ok()) {
    // Abort (aborted_) before the cause counter: a stats() snapshot that
    // observes the storage failure has already observed the abort.
    Status status = abort_cleanly(published);
    commit_storage_failures_.Increment(1, std::memory_order_release);
    return status;
  }
  return committed(commit_time);
}

Status TransactionManager::StageLocked(Transaction* txn, TxnTime commit_time,
                                       Staged* staged) {
  // Describe each dirty object's post-commit image without building it. A
  // created object is its workspace copy, its provisional (kTimeNow)
  // bindings re-stamped with the commit time in place (the copy is
  // private, and discarded if the commit fails). An update is the
  // permanent object plus one binding per dirty element at the commit
  // time; only the publish changes the permanent object itself. Images
  // go in oid order, so objects committed together cluster by oid on the
  // platter as in the catalog's leaves.
  std::vector<std::uint64_t> order(txn->created_.begin(),
                                   txn->created_.end());
  order.reserve(order.size() + txn->dirty_.size());
  for (const auto& [raw, marks] : txn->dirty_) order.push_back(raw);
  std::sort(order.begin(), order.end());
  staged->images.reserve(order.size());
  staged->targets.reserve(order.size());
  for (std::uint64_t raw : order) {
    const Oid oid{raw};
    auto working_it = txn->working_.find(raw);
    if (working_it == txn->working_.end()) {
      return Status::Internal("dirty object lacks a workspace copy");
    }
    GsObject& copy = working_it->second;
    storage::ObjectImage image;
    PublishTarget target;
    image.time = commit_time;
    if (txn->created_.count(raw) != 0) {
      if (memory_->Find(oid) != nullptr) {
        return Status::Internal("created oid already in permanent store");
      }
      copy.StampProvisional(commit_time);
      image.object = &copy;
      target.created = &copy;
    } else {
      GsObject* permanent = memory_->FindMutable(oid);
      if (permanent == nullptr) {
        return Status::Internal("dirty object vanished from permanent store");
      }
      image.object = permanent;
      target.permanent = permanent;
      const Transaction::DirtyMarks& marks = txn->dirty_.at(raw);
      for (SymbolId name : marks.named) {
        const Value* v = copy.ReadNamed(name, kTimeNow);
        image.named.emplace_back(name, v ? *v : Value::Nil());
      }
      // Ascending order so appends extend the image correctly.
      std::vector<std::size_t> indexed(marks.indexed.begin(),
                                       marks.indexed.end());
      std::sort(indexed.begin(), indexed.end());
      for (std::size_t index : indexed) {
        const Value* v = copy.ReadIndexed(index, kTimeNow);
        image.indexed.emplace_back(index, v ? *v : Value::Nil());
      }
    }
    staged->images.push_back(std::move(image));
    staged->targets.push_back(target);
  }
  return Status::OK();
}

Status TransactionManager::PersistAndPublish(
    Staged staged, std::optional<TxnTime> commit_time) {
  std::vector<storage::ObjectImage>& images = staged.images;

  // Persist phase, holding no store lock: the safe group write
  // (Boxer/Linker/CommitManager) makes the images durable before any
  // becomes visible. Readers run beside it: it only reads the permanent
  // objects and the engine's catalog, and only writers (excluded by
  // commit_mu_) change them. On failure the disk still recovers to the
  // previous root and memory is unchanged, so a retry of the same writes
  // sees no phantom conflicts.
  storage::StorageEngine::PersistedCommit persisted;
  if (engine_ != nullptr) {
    GS_ASSIGN_OR_RETURN(persisted,
                        engine_->Persist(images, memory_->symbols()));
  }

  // Publish phase: durability achieved; the only span in which a writer
  // excludes readers. Adopt the new catalog pages, move created objects
  // into the permanent store, apply the updates, tell the listener, and
  // advance the logical state. Nothing fallible is left (ObjectMemory
  // pointers are stable and created oids were verified absent at stage,
  // which no other writer could change since).
  WriterMutexLock lock(store_mu_);
  const auto held_since = std::chrono::steady_clock::now();
  if (engine_ != nullptr) engine_->Adopt(std::move(persisted));
  for (std::size_t i = 0; i < images.size(); ++i) {
    storage::ObjectImage& image = images[i];
    const PublishTarget& target = staged.targets[i];
    const Oid oid = image.object->oid();
    if (target.created != nullptr) {
      (void)memory_->Insert(std::move(*target.created));
      image.object = nullptr;  // moved: the listener sees it as created
    } else if (target.replacement != nullptr) {
      *target.permanent = std::move(*target.replacement);
    } else {
      for (auto& [name, value] : image.named) {
        target.permanent->WriteNamed(name, image.time, std::move(value));
      }
      for (auto& [index, value] : image.indexed) {
        target.permanent->WriteIndexed(index, image.time, std::move(value));
      }
    }
    if (commit_time.has_value()) last_commit_[oid.raw] = *commit_time;
  }
  if (commit_time.has_value()) {
    if (listener_ != nullptr) listener_->Published(*commit_time, images);
    clock_.store(*commit_time);
  }
  publish_hold_us_->Observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - held_since)
          .count()));
  return Status::OK();
}

TxnStats TransactionManager::stats() const {
  // Load order is the reverse of the writers' increment order: abort
  // causes first (acquire), then outcomes (acquire), then begun — see the
  // TxnStats invariants. Writers release the last counter they touch, so
  // each acquire load publishes everything incremented before it.
  TxnStats stats;
  stats.conflicts = conflicts_.value(std::memory_order_acquire);
  stats.commit_storage_failures =
      commit_storage_failures_.value(std::memory_order_acquire);
  stats.aborted = aborted_.value(std::memory_order_acquire);
  stats.committed = committed_.value(std::memory_order_acquire);
  stats.begun = begun_.value();
  return stats;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
TransactionManager::ConflictHotspots(std::size_t top_n) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  {
    ReaderMutexLock lock(store_mu_);
    out.assign(conflict_by_oid_.begin(), conflict_by_oid_.end());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

Result<Oid> TransactionManager::CreateObject(Transaction* txn, Oid class_oid) {
  // No store lock: the oid counter is atomic, the class registry locks
  // itself, and the new object lives in the private workspace.
  if (!txn->active()) {
    return Status::TransactionState("create outside an active transaction");
  }
  if (memory_->classes().Get(class_oid) == nullptr) {
    return Status::NotFound("no such class: " + class_oid.ToString());
  }
  const Oid oid = memory_->AllocateOid();
  txn->working_.emplace(oid.raw, GsObject(oid, class_oid));
  txn->created_.insert(oid.raw);  // publishes even if never written
  telemetry::Profiler::CountAlloc();
  return oid;
}

Result<TransactionManager::View> TransactionManager::ReadLocked(
    Transaction* txn, Oid oid, TxnTime at) {
  if (!txn->active()) {
    return Status::TransactionState("read outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckReadAccess(txn, oid));
  TxnTime read_at = at;
  GS_ASSIGN_OR_RETURN(const GsObject* object, ViewLocked(txn, oid, &read_at));
  const bool historical = NoteRead(txn, oid, at);
  return View(object, read_at, historical);
}

Result<const GsObject*> TransactionManager::ViewLocked(Transaction* txn,
                                                       Oid oid,
                                                       TxnTime* at) const {
  if (*at == kTimeNow) {
    auto it = txn->working_.find(oid.raw);
    if (it != txn->working_.end()) return &it->second;
    *at = txn->read_time();
  }
  return PermanentLocked(oid);
}

Result<const GsObject*> TransactionManager::PermanentLocked(Oid oid) const {
  const GsObject* object = memory_->Find(oid);
  if (object != nullptr) return object;
  if (memory_->IsArchived(oid)) {
    return Status::Unavailable("object migrated to archival media: " +
                               oid.ToString());
  }
  return Status::NotFound("no such object: " + oid.ToString());
}

Result<GsObject*> TransactionManager::WorkingCopyLocked(Transaction* txn,
                                                        Oid oid) {
  auto it = txn->working_.find(oid.raw);
  if (it != txn->working_.end()) return &it->second;
  GS_ASSIGN_OR_RETURN(const GsObject* permanent, PermanentLocked(oid));
  auto [inserted, ok] = txn->working_.emplace(oid.raw, *permanent);
  return &inserted->second;
}

Transaction::DirtyMarks* TransactionManager::MarksFor(Transaction* txn,
                                                     Oid oid) {
  if (txn->created_.count(oid.raw) != 0) return nullptr;
  return &txn->dirty_[oid.raw];
}

Result<Value> TransactionManager::NamedValueLocked(
    const View& view, const NamedElement* element) {
  if (element == nullptr) return Value::Nil();
  if (tiers_ != nullptr && view.at() < view.object().history_floor()) {
    // Below the floor the resident table holds only the creation marker
    // and carry-forward; the cold runs hold every binding <= the floor,
    // so the level resolver's answer is authoritative here.
    tier_routed_reads_.Increment();
    GS_ASSIGN_OR_RETURN(
        std::optional<Association> binding,
        tiers_->ResolveNamed(view.object().oid(),
                             memory_->symbols().Name(element->name),
                             view.at()));
    return binding.has_value() ? std::move(binding->value) : Value::Nil();
  }
  const Value* value = element->table.ValueAt(view.at());
  return value ? *value : Value::Nil();
}

Result<Value> TransactionManager::IndexedValueLocked(const View& view,
                                                     std::size_t index) {
  if (tiers_ != nullptr && view.at() < view.object().history_floor()) {
    tier_routed_reads_.Increment();
    GS_ASSIGN_OR_RETURN(
        std::optional<Association> binding,
        tiers_->ResolveIndexed(view.object().oid(), index, view.at()));
    return binding.has_value() ? std::move(binding->value) : Value::Nil();
  }
  const Value* value = view.object().ReadIndexed(index, view.at());
  return value ? *value : Value::Nil();
}

Result<std::vector<std::pair<SymbolId, Value>>>
TransactionManager::NamedValuesLocked(const View& view) {
  // Element existence is resident (names are never truncated), so the
  // resident element list is complete at every time.
  std::vector<std::pair<SymbolId, Value>> out;
  for (const NamedElement& element : view.object().named_elements()) {
    GS_ASSIGN_OR_RETURN(Value value, NamedValueLocked(view, &element));
    if (!value.IsNil()) out.emplace_back(element.name, std::move(value));
  }
  return out;
}

Result<Value> TransactionManager::ReadNamed(Transaction* txn, Oid oid,
                                            SymbolId name, TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  GS_ASSIGN_OR_RETURN(const View view, ReadLocked(txn, oid, at));
  telemetry::HistoricalAccessScope io_class(view.historical());
  return NamedValueLocked(view, view.object().FindNamed(name));
}

Status TransactionManager::WriteNamed(Transaction* txn, Oid oid, SymbolId name,
                                      Value value) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("write outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckWriteAccess(txn, oid));
  GS_ASSIGN_OR_RETURN(GsObject* copy, WorkingCopyLocked(txn, oid));
  copy->WriteNamed(name, kTimeNow, std::move(value));
  if (auto* marks = MarksFor(txn, oid)) marks->named.insert(name);
  return Status::OK();
}

Result<Value> TransactionManager::ReadIndexed(Transaction* txn, Oid oid,
                                              std::size_t index, TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  GS_ASSIGN_OR_RETURN(const View view, ReadLocked(txn, oid, at));
  telemetry::HistoricalAccessScope io_class(view.historical());
  // The bounds check needs no tier trip: slot creation markers survive
  // truncation, so IndexedSizeAt stays exact at every time.
  const std::size_t size = view.object().IndexedSizeAt(view.at());
  if (index >= size) {
    return Status::OutOfRange("index " + std::to_string(index) +
                              " beyond size " + std::to_string(size));
  }
  return IndexedValueLocked(view, index);
}

Status TransactionManager::WriteIndexed(Transaction* txn, Oid oid,
                                        std::size_t index, Value value) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("write outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckWriteAccess(txn, oid));
  GS_ASSIGN_OR_RETURN(GsObject* copy, WorkingCopyLocked(txn, oid));
  copy->WriteIndexed(index, kTimeNow, std::move(value));
  // Gap slots materialized by an over-the-end write re-materialize on the
  // permanent object at commit (WriteIndexed grows with nil bindings), so
  // only the written slot needs a dirty mark.
  if (auto* marks = MarksFor(txn, oid)) marks->indexed.insert(index);
  return Status::OK();
}

Result<std::size_t> TransactionManager::AppendIndexed(Transaction* txn,
                                                      Oid oid, Value value) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("write outside an active transaction");
  }
  GS_RETURN_IF_ERROR(CheckWriteAccess(txn, oid));
  GS_ASSIGN_OR_RETURN(GsObject* copy, WorkingCopyLocked(txn, oid));
  const std::size_t index = copy->AppendIndexed(kTimeNow, std::move(value));
  if (auto* marks = MarksFor(txn, oid)) marks->indexed.insert(index);
  return index;
}

Result<std::size_t> TransactionManager::IndexedSize(Transaction* txn, Oid oid,
                                                    TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  GS_ASSIGN_OR_RETURN(const View view, ReadLocked(txn, oid, at));
  return view.object().IndexedSizeAt(view.at());  // no tier trip
}

Result<Oid> TransactionManager::ClassOfObject(Transaction* txn, Oid oid) {
  ReaderMutexLock lock(store_mu_);
  if (!txn->active()) {
    return Status::TransactionState("read outside an active transaction");
  }
  auto it = txn->working_.find(oid.raw);
  if (it != txn->working_.end()) return it->second.class_oid();
  GS_ASSIGN_OR_RETURN(const GsObject* object, PermanentLocked(oid));
  return object->class_oid();
}

Result<std::vector<std::pair<SymbolId, Value>>> TransactionManager::ListNamed(
    Transaction* txn, Oid oid, TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  GS_ASSIGN_OR_RETURN(const View view, ReadLocked(txn, oid, at));
  telemetry::HistoricalAccessScope io_class(view.historical());
  return NamedValuesLocked(view);
}

Result<std::vector<Association>> TransactionManager::History(Transaction* txn,
                                                             Oid oid,
                                                             SymbolId name) {
  ReaderMutexLock lock(store_mu_);
  // A history walk reads committed state only: time-dial traffic.
  GS_ASSIGN_OR_RETURN(const View view, ReadLocked(txn, oid, clock_.load()));
  const AssociationTable* table = view.object().NamedHistory(name);
  if (table == nullptr) {
    return Status::NotFound("element never bound");
  }
  telemetry::HistoricalAccessScope io_class(view.historical());
  if (tiers_ != nullptr && view.object().history_floor() > kTimeOrigin) {
    // Merge the demoted prefix back in. Cold runs re-emit the creation
    // marker and carry-forward the resident table also keeps, so fold by
    // time — the duplicates are identical bindings by construction.
    tier_routed_reads_.Increment();
    GS_ASSIGN_OR_RETURN(
        std::vector<Association> cold,
        tiers_->NamedHistoryOf(oid, memory_->symbols().Name(name)));
    std::map<TxnTime, Value> merged;
    for (Association& a : cold) merged[a.time] = std::move(a.value);
    for (const Association& a : table->entries()) merged[a.time] = a.value;
    std::vector<Association> out;
    out.reserve(merged.size());
    for (auto& [time, value] : merged) {
      out.push_back(Association{time, std::move(value)});
    }
    return out;
  }
  return table->entries();
}

Result<bool> TransactionManager::DeepEquals(Transaction* txn, const Value& a,
                                            const Value& b, TxnTime at) {
  ReaderMutexLock lock(store_mu_);
  Assumed assumed;
  return DeepEqualsLocked(txn, a, b, at, &assumed);
}

Result<bool> TransactionManager::DeepEqualsLocked(Transaction* txn,
                                                  const Value& a,
                                                  const Value& b, TxnTime at,
                                                  Assumed* assumed) {
  if (!a.IsRef() || !b.IsRef()) return a == b;
  if (a.ref() == b.ref()) return true;
  // Cycle handling: a pair already under comparison higher up is assumed
  // equal (coinductive structural equivalence), for this path only.
  const std::pair<std::uint64_t, std::uint64_t> pair{a.ref().raw,
                                                     b.ref().raw};
  if (!assumed->insert(pair).second) return true;
  Result<bool> equal = ObjectsEqualLocked(txn, a.ref(), b.ref(), at, assumed);
  assumed->erase(pair);
  return equal;
}

Result<bool> TransactionManager::ObjectsEqualLocked(Transaction* txn, Oid a,
                                                    Oid b, TxnTime at,
                                                    Assumed* assumed) {
  // A ref to no stored object (a class, say) equals only itself.
  Result<View> read_a = ReadLocked(txn, a, at);
  if (read_a.status().code() == StatusCode::kNotFound) return false;
  GS_ASSIGN_OR_RETURN(const View va, std::move(read_a));
  Result<View> read_b = ReadLocked(txn, b, at);
  if (read_b.status().code() == StatusCode::kNotFound) return false;
  GS_ASSIGN_OR_RETURN(const View vb, std::move(read_b));
  const GsObject& oa = va.object();
  if (oa.class_oid() != vb.object().class_oid()) return false;
  telemetry::HistoricalAccessScope io_class(va.historical());
  // Named elements: each bound (non-nil) element of one must match the
  // same-named element of the other; a set's members, which carry alias
  // names, match any member of the other set instead. Equal counts make
  // one direction enough, since nil never equals a bound value.
  GS_ASSIGN_OR_RETURN(const auto xs, NamedValuesLocked(va));
  GS_ASSIGN_OR_RETURN(const auto ys, NamedValuesLocked(vb));
  if (xs.size() != ys.size()) return false;
  const GsClass* cls = memory_->classes().Get(oa.class_oid());
  const bool is_set = cls != nullptr && cls->format() == ObjectFormat::kSet;
  for (const auto& [name, x] : xs) {
    bool found = false;
    for (const auto& [other, y] : ys) {
      if (!is_set && other != name) continue;
      GS_ASSIGN_OR_RETURN(found, DeepEqualsLocked(txn, x, y, at, assumed));
      if (found || !is_set) break;
    }
    if (!found) return false;
  }

  // Indexed elements compare positionally over the slots alive at `at`.
  const std::size_t n = oa.IndexedSizeAt(va.at());
  if (n != vb.object().IndexedSizeAt(vb.at())) return false;
  for (std::size_t i = 0; i < n; ++i) {
    GS_ASSIGN_OR_RETURN(const Value x, IndexedValueLocked(va, i));
    GS_ASSIGN_OR_RETURN(const Value y, IndexedValueLocked(vb, i));
    GS_ASSIGN_OR_RETURN(const bool equal,
                        DeepEqualsLocked(txn, x, y, at, assumed));
    if (!equal) return false;
  }
  return true;
}

std::vector<storage::tier::HistorySource::Candidate>
TransactionManager::DemotionCandidates(TxnTime boundary, std::size_t limit,
                                       std::uint64_t min_truncatable) {
  ReaderMutexLock lock(store_mu_);
  std::vector<Candidate> out;
  for (Oid oid : memory_->AllOids()) {
    const GsObject* object = memory_->Find(oid);
    if (object == nullptr) continue;
    const std::uint64_t truncatable = object->CountTruncatableBelow(boundary);
    if (truncatable == 0 || truncatable < min_truncatable) continue;
    Candidate candidate;
    candidate.oid = oid;
    candidate.truncatable = truncatable;
    candidate.historical_heat =
        engine_ != nullptr ? engine_->HistoricalHeatOf(oid) : 0.0;
    out.push_back(candidate);
  }
  // Coldest first — the compactor wants the history the time dial is NOT
  // visiting; ties break toward the biggest space win.
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.historical_heat != b.historical_heat) {
                return a.historical_heat < b.historical_heat;
              }
              if (a.truncatable != b.truncatable) {
                return a.truncatable > b.truncatable;
              }
              return a.oid < b.oid;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

Result<std::vector<storage::tier::VersionRecord>>
TransactionManager::CollectHistory(Oid oid, TxnTime boundary) {
  ReaderMutexLock lock(store_mu_);
  const GsObject* object = memory_->Find(oid);
  if (object == nullptr) {
    return Status::NotFound("no such object: " + oid.ToString());
  }
  // Emit the bindings in (history_floor, boundary] — everything at or
  // below the floor is already durable in the tier (ApplyDemotion raises
  // the floor only after AppendRun committed), so re-emitting the kept
  // creation marker and carry-forward would give every run min_time ~=
  // the object's birth and defeat the store's time-range run pruning.
  // After a crash between the run flip and the truncation the floor is
  // still old, so the next pass re-emits the window — duplicates, never
  // a gap; resolution takes the max time <= T and compaction folds them.
  const TxnTime floor = object->history_floor();
  std::vector<storage::tier::VersionRecord> records;
  const SymbolTable& symbols = memory_->symbols();
  for (const NamedElement& element : object->named_elements()) {
    const std::string& name = symbols.Name(element.name);
    const bool alias = symbols.IsAlias(element.name);
    for (const Association& a : element.table.entries()) {
      if (a.time > boundary) break;
      if (a.time <= floor) continue;  // already cold
      storage::tier::VersionRecord record;
      record.oid = oid;
      record.kind = storage::tier::VersionRecord::kNamed;
      record.alias = alias;
      record.name = name;
      record.time = a.time;
      record.value = a.value;
      records.push_back(std::move(record));
    }
  }
  for (std::size_t i = 0; i < object->indexed_capacity(); ++i) {
    for (const Association& a : object->IndexedHistory(i)->entries()) {
      if (a.time > boundary) break;
      if (a.time <= floor) continue;  // already cold
      storage::tier::VersionRecord record;
      record.oid = oid;
      record.kind = storage::tier::VersionRecord::kIndexed;
      record.index = i;
      record.time = a.time;
      record.value = a.value;
      records.push_back(std::move(record));
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   storage::tier::RecordOrder);
  return records;
}

Status TransactionManager::ApplyDemotion(Oid oid, TxnTime boundary) {
  // A demotion is a writer like any commit: same pipeline, same locks.
  MutexLock pipeline(commit_mu_);
  GsObject truncated;
  PublishTarget target;
  {
    ReaderMutexLock lock(store_mu_);
    GsObject* permanent = memory_->FindMutable(oid);
    if (permanent == nullptr) {
      return Status::NotFound("no such object: " + oid.ToString());
    }
    if (boundary <= permanent->history_floor() &&
        permanent->CountTruncatableBelow(boundary) == 0) {
      return Status::OK();
    }
    truncated = *permanent;
    target.permanent = permanent;
  }
  truncated.TruncateHistoryBelow(boundary);
  target.replacement = &truncated;
  Staged staged;
  staged.images.emplace_back(&truncated);
  staged.targets.push_back(target);
  // Durability order: the truncated image reaches the primary device
  // before the resident copy changes. A crash on either side of the write
  // recovers to pre- or post-truncation — the demoted bindings are
  // already in the tier store either way, so reads never see a gap.
  // last_commit_ and the clock stay untouched (no commit time): truncation
  // changes no logical content, so in-flight transactions must not see
  // phantom conflicts from it.
  return PersistAndPublish(std::move(staged), std::nullopt);
}

}  // namespace gemstone::txn
