#include "txn/transaction_manager.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "telemetry/trace.h"

namespace gemstone::txn {
namespace {

class TransactionManagerTest : public ::testing::Test {
 protected:
  TransactionManagerTest() : manager_(&memory_) {}

  SymbolId Sym(std::string_view s) { return memory_.symbols().Intern(s); }

  // Creates and commits one object with `name` = value, returning its oid.
  Oid Seed(std::string_view name, Value value) {
    auto txn = manager_.Begin(0);
    Oid oid = manager_.CreateObject(txn.get(), memory_.kernel().object)
                  .ValueOrDie();
    EXPECT_TRUE(manager_.WriteNamed(txn.get(), oid, Sym(name), value).ok());
    EXPECT_TRUE(manager_.Commit(txn.get()).ok());
    return oid;
  }

  ObjectMemory memory_;
  TransactionManager manager_;
};

TEST_F(TransactionManagerTest, CreateCommitRead) {
  Oid oid = Seed("salary", Value::Integer(24650));
  EXPECT_EQ(manager_.Now(), 1u);

  auto txn = manager_.Begin(1);
  EXPECT_EQ(manager_.ReadNamed(txn.get(), oid, Sym("salary")).ValueOrDie(),
            Value::Integer(24650));
  EXPECT_TRUE(manager_.Commit(txn.get()).ok());
}

TEST_F(TransactionManagerTest, CreateAgainstUnknownClassFails) {
  auto txn = manager_.Begin(0);
  EXPECT_EQ(manager_.CreateObject(txn.get(), Oid(404040)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TransactionManagerTest, UncommittedWritesInvisibleToOthers) {
  Oid oid = Seed("x", Value::Integer(1));
  auto writer = manager_.Begin(1);
  ASSERT_TRUE(
      manager_.WriteNamed(writer.get(), oid, Sym("x"), Value::Integer(2))
          .ok());
  // Writer sees its own workspace value...
  EXPECT_EQ(manager_.ReadNamed(writer.get(), oid, Sym("x")).ValueOrDie(),
            Value::Integer(2));
  // ...another session still sees the committed state.
  auto reader = manager_.Begin(2);
  EXPECT_EQ(manager_.ReadNamed(reader.get(), oid, Sym("x")).ValueOrDie(),
            Value::Integer(1));
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());
  // The reader started before the commit; its snapshot-less current read
  // now sees the new value (current-time reads are not snapshotted)...
  EXPECT_EQ(manager_.ReadNamed(reader.get(), oid, Sym("x")).ValueOrDie(),
            Value::Integer(2));
  // ...and validation at commit detects the overlap.
  EXPECT_TRUE(manager_.Commit(reader.get()).IsTransactionConflict());
}

TEST_F(TransactionManagerTest, AbortDiscardsWorkspace) {
  Oid oid = Seed("x", Value::Integer(1));
  auto txn = manager_.Begin(1);
  ASSERT_TRUE(manager_.WriteNamed(txn.get(), oid, Sym("x"), Value::Integer(9))
                  .ok());
  ASSERT_TRUE(manager_.Abort(txn.get()).ok());
  auto check = manager_.Begin(2);
  EXPECT_EQ(manager_.ReadNamed(check.get(), oid, Sym("x")).ValueOrDie(),
            Value::Integer(1));
  EXPECT_EQ(manager_.stats().aborted, 1u);
}

TEST_F(TransactionManagerTest, WriteWriteConflictAborts) {
  Oid oid = Seed("x", Value::Integer(0));
  auto t1 = manager_.Begin(1);
  auto t2 = manager_.Begin(2);
  ASSERT_TRUE(manager_.WriteNamed(t1.get(), oid, Sym("x"), Value::Integer(1))
                  .ok());
  ASSERT_TRUE(manager_.WriteNamed(t2.get(), oid, Sym("x"), Value::Integer(2))
                  .ok());
  EXPECT_TRUE(manager_.Commit(t1.get()).ok());
  Status s = manager_.Commit(t2.get());
  EXPECT_TRUE(s.IsTransactionConflict()) << s.ToString();
  EXPECT_EQ(manager_.stats().conflicts, 1u);
  EXPECT_EQ(t2->state(), TxnState::kAborted);
}

TEST_F(TransactionManagerTest, ReadWriteConflictAborts) {
  Oid oid = Seed("x", Value::Integer(0));
  auto reader = manager_.Begin(1);
  auto writer = manager_.Begin(2);
  (void)manager_.ReadNamed(reader.get(), oid, Sym("x"));
  ASSERT_TRUE(
      manager_.WriteNamed(writer.get(), oid, Sym("x"), Value::Integer(1))
          .ok());
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());
  EXPECT_TRUE(manager_.Commit(reader.get()).IsTransactionConflict());
}

TEST_F(TransactionManagerTest, DisjointWritesBothCommit) {
  Oid a = Seed("x", Value::Integer(0));
  Oid b = Seed("x", Value::Integer(0));
  auto t1 = manager_.Begin(1);
  auto t2 = manager_.Begin(2);
  ASSERT_TRUE(manager_.WriteNamed(t1.get(), a, Sym("x"), Value::Integer(1))
                  .ok());
  ASSERT_TRUE(manager_.WriteNamed(t2.get(), b, Sym("x"), Value::Integer(2))
                  .ok());
  EXPECT_TRUE(manager_.Commit(t1.get()).ok());
  EXPECT_TRUE(manager_.Commit(t2.get()).ok());
}

TEST_F(TransactionManagerTest, PastReadsDoNotConflict) {
  Oid oid = Seed("x", Value::Integer(0));
  const TxnTime t0 = manager_.Now();
  auto reader = manager_.Begin(1);
  auto writer = manager_.Begin(2);
  // Read a *past* state: immutable, so it never joins the read set.
  EXPECT_EQ(manager_.ReadNamed(reader.get(), oid, Sym("x"), t0).ValueOrDie(),
            Value::Integer(0));
  ASSERT_TRUE(
      manager_.WriteNamed(writer.get(), oid, Sym("x"), Value::Integer(1))
          .ok());
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());
  EXPECT_TRUE(manager_.Commit(reader.get()).ok());  // no conflict
}

TEST_F(TransactionManagerTest, CommitTimesStampHistory) {
  Oid oid = Seed("x", Value::Integer(10));  // commit time 1
  {
    auto txn = manager_.Begin(0);
    ASSERT_TRUE(
        manager_.WriteNamed(txn.get(), oid, Sym("x"), Value::Integer(20))
            .ok());
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());  // commit time 2
  }
  auto txn = manager_.Begin(1);
  auto history = manager_.History(txn.get(), oid, Sym("x")).ValueOrDie();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].time, 1u);
  EXPECT_EQ(history[0].value, Value::Integer(10));
  EXPECT_EQ(history[1].time, 2u);
  EXPECT_EQ(history[1].value, Value::Integer(20));
  // Reads at past times resolve through the same associations.
  EXPECT_EQ(manager_.ReadNamed(txn.get(), oid, Sym("x"), 1).ValueOrDie(),
            Value::Integer(10));
  EXPECT_EQ(manager_.ReadNamed(txn.get(), oid, Sym("x"), 2).ValueOrDie(),
            Value::Integer(20));
}

TEST_F(TransactionManagerTest, MultipleWritesOneCommitOneAssociation) {
  Oid oid = Seed("x", Value::Integer(0));
  auto txn = manager_.Begin(0);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        manager_.WriteNamed(txn.get(), oid, Sym("x"), Value::Integer(i)).ok());
  }
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  auto check = manager_.Begin(1);
  auto history = manager_.History(check.get(), oid, Sym("x")).ValueOrDie();
  EXPECT_EQ(history.size(), 2u);  // seed + one per commit, not per write
  EXPECT_EQ(history.back().value, Value::Integer(5));
}

TEST_F(TransactionManagerTest, IndexedElementsThroughTransactions) {
  auto txn = manager_.Begin(0);
  Oid oid = manager_.CreateObject(txn.get(), memory_.kernel().array)
                .ValueOrDie();
  EXPECT_EQ(manager_.AppendIndexed(txn.get(), oid, Value::Integer(10))
                .ValueOrDie(),
            0u);
  EXPECT_EQ(manager_.AppendIndexed(txn.get(), oid, Value::Integer(20))
                .ValueOrDie(),
            1u);
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());

  auto txn2 = manager_.Begin(1);
  EXPECT_EQ(manager_.IndexedSize(txn2.get(), oid).ValueOrDie(), 2u);
  EXPECT_EQ(manager_.ReadIndexed(txn2.get(), oid, 1).ValueOrDie(),
            Value::Integer(20));
  EXPECT_EQ(manager_.ReadIndexed(txn2.get(), oid, 5).status().code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(
      manager_.WriteIndexed(txn2.get(), oid, 0, Value::Integer(11)).ok());
  ASSERT_TRUE(manager_.Commit(txn2.get()).ok());

  auto txn3 = manager_.Begin(2);
  EXPECT_EQ(manager_.ReadIndexed(txn3.get(), oid, 0).ValueOrDie(),
            Value::Integer(11));
  // The array's size in the first committed state was already 2.
  EXPECT_EQ(manager_.IndexedSize(txn3.get(), oid, 1).status().code(),
            StatusCode::kOk);
}

TEST_F(TransactionManagerTest, ListNamedSkipsDeparted) {
  auto txn = manager_.Begin(0);
  Oid set = manager_.CreateObject(txn.get(), memory_.kernel().set)
                .ValueOrDie();
  SymbolId a1 = memory_.symbols().GenerateAlias();
  SymbolId a2 = memory_.symbols().GenerateAlias();
  ASSERT_TRUE(manager_.WriteNamed(txn.get(), set, a1, Value::Integer(1)).ok());
  ASSERT_TRUE(manager_.WriteNamed(txn.get(), set, a2, Value::Integer(2)).ok());
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());

  auto txn2 = manager_.Begin(0);
  ASSERT_TRUE(manager_.WriteNamed(txn2.get(), set, a1, Value::Nil()).ok());
  ASSERT_TRUE(manager_.Commit(txn2.get()).ok());

  auto txn3 = manager_.Begin(1);
  auto members = manager_.ListNamed(txn3.get(), set).ValueOrDie();
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].second, Value::Integer(2));
  // At the earlier time both members are present.
  EXPECT_EQ(manager_.ListNamed(txn3.get(), set, 1).ValueOrDie().size(), 2u);
}

// §4.2: "Two entities can have equivalent structures ... but not be the
// same object. Thus, we can distinguish, say, two gates in a circuit that
// have all the same characteristics, but are not physically the same gate."
TEST_F(TransactionManagerTest, IdentityVersusStructuralEquivalence) {
  auto build = manager_.Begin(0);
  const Oid gate1 =
      manager_.CreateObject(build.get(), memory_.kernel().object).ValueOrDie();
  const Oid gate2 =
      manager_.CreateObject(build.get(), memory_.kernel().object).ValueOrDie();
  for (Oid g : {gate1, gate2}) {
    ASSERT_TRUE(manager_
                    .WriteNamed(build.get(), g, Sym("kind"),
                                Value::String("nand"))
                    .ok());
    ASSERT_TRUE(
        manager_.WriteNamed(build.get(), g, Sym("delayNs"), Value::Integer(4))
            .ok());
  }
  ASSERT_TRUE(manager_.Commit(build.get()).ok());  // t=1
  const Value a = Value::Ref(gate1);
  const Value b = Value::Ref(gate2);

  // Not identical...
  EXPECT_NE(a, b);
  // ...but structurally equivalent.
  auto before = manager_.Begin(1);
  EXPECT_TRUE(manager_.DeepEquals(before.get(), a, b).ValueOrDie());

  auto rewire = manager_.Begin(0);
  ASSERT_TRUE(manager_
                  .WriteNamed(rewire.get(), gate2, Sym("delayNs"),
                              Value::Integer(9))
                  .ok());
  ASSERT_TRUE(manager_.Commit(rewire.get()).ok());  // t=2
  auto after = manager_.Begin(1);
  EXPECT_FALSE(manager_.DeepEquals(after.get(), a, b).ValueOrDie());
  // At t=1 they were still equivalent.
  EXPECT_TRUE(manager_.DeepEquals(after.get(), a, b, 1).ValueOrDie());
}

TEST_F(TransactionManagerTest, DeepEqualsDifferentClassesFalse) {
  auto txn = manager_.Begin(0);
  const Oid a =
      manager_.CreateObject(txn.get(), memory_.kernel().set).ValueOrDie();
  const Oid b =
      manager_.CreateObject(txn.get(), memory_.kernel().bag).ValueOrDie();
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  auto reader = manager_.Begin(1);
  EXPECT_FALSE(manager_.DeepEquals(reader.get(), Value::Ref(a), Value::Ref(b))
                   .ValueOrDie());
  // A class is no stored object: it equals only itself.
  const Value set_class = Value::Ref(memory_.kernel().set);
  EXPECT_FALSE(
      manager_.DeepEquals(reader.get(), Value::Ref(a), set_class).ValueOrDie());
  EXPECT_FALSE(
      manager_.DeepEquals(reader.get(), set_class, Value::Ref(a)).ValueOrDie());
}

TEST_F(TransactionManagerTest, DeepEqualsSetsAreUnordered) {
  auto txn = manager_.Begin(0);
  const Oid s1 =
      manager_.CreateObject(txn.get(), memory_.kernel().set).ValueOrDie();
  const Oid s2 =
      manager_.CreateObject(txn.get(), memory_.kernel().set).ValueOrDie();
  auto add = [&](Transaction* t, Oid set, const char* member) {
    return manager_.WriteNamed(t, set, memory_.symbols().GenerateAlias(),
                               Value::String(member));
  };
  ASSERT_TRUE(add(txn.get(), s1, "Olivia").ok());
  ASSERT_TRUE(add(txn.get(), s1, "Dale").ok());
  ASSERT_TRUE(add(txn.get(), s2, "Dale").ok());
  ASSERT_TRUE(add(txn.get(), s2, "Olivia").ok());
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());

  auto reader = manager_.Begin(1);
  EXPECT_TRUE(manager_.DeepEquals(reader.get(), Value::Ref(s1), Value::Ref(s2))
                  .ValueOrDie());
  // The comparison sees the transaction's own workspace.
  ASSERT_TRUE(add(reader.get(), s2, "Paul").ok());
  EXPECT_FALSE(
      manager_.DeepEquals(reader.get(), Value::Ref(s1), Value::Ref(s2))
          .ValueOrDie());
}

TEST_F(TransactionManagerTest, DeepEqualsHandlesCycles) {
  auto txn = manager_.Begin(0);
  const Oid a =
      manager_.CreateObject(txn.get(), memory_.kernel().object).ValueOrDie();
  const Oid b =
      manager_.CreateObject(txn.get(), memory_.kernel().object).ValueOrDie();
  ASSERT_TRUE(
      manager_.WriteNamed(txn.get(), a, Sym("next"), Value::Ref(b)).ok());
  ASSERT_TRUE(
      manager_.WriteNamed(txn.get(), b, Sym("next"), Value::Ref(a)).ok());
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  // Two mutually-referencing objects: structurally equivalent under the
  // coinductive reading, and the comparison must terminate.
  auto reader = manager_.Begin(1);
  EXPECT_TRUE(manager_.DeepEquals(reader.get(), Value::Ref(a), Value::Ref(b))
                  .ValueOrDie());
}

// A structural comparison reads the objects it visits, so they join the
// read set: a commit that changes one of them after the comparison
// invalidates the comparing transaction (no lost update).
TEST_F(TransactionManagerTest, DeepEqualsJoinsTheReadSet) {
  const Oid x = Seed("v", Value::Integer(1));
  const Oid y = Seed("v", Value::Integer(1));
  const Oid z = Seed("v", Value::Integer(0));
  auto b = manager_.Begin(2);
  ASSERT_TRUE(manager_.DeepEquals(b.get(), Value::Ref(x), Value::Ref(y))
                  .ValueOrDie());
  ASSERT_TRUE(manager_.WriteNamed(b.get(), z, Sym("v"), Value::Integer(1)).ok());

  auto a = manager_.Begin(1);
  ASSERT_TRUE(manager_.WriteNamed(a.get(), x, Sym("v"), Value::Integer(2)).ok());
  ASSERT_TRUE(manager_.Commit(a.get()).ok());
  EXPECT_EQ(manager_.Commit(b.get()).code(), StatusCode::kTransactionConflict);
}

// Read-only commits (a validated read set, or nothing recorded at all)
// leave an outcome in the event ring like a writer's commit does.
TEST_F(TransactionManagerTest, EveryCommitPathRecordsItsOutcome) {
  const Oid oid = Seed("x", Value::Integer(1));
  telemetry::TraceRing::Events().Clear();
  const std::uint64_t committed = manager_.stats().committed;

  auto reader = manager_.Begin(1);
  ASSERT_TRUE(manager_.ReadNamed(reader.get(), oid, Sym("x")).ok());
  ASSERT_TRUE(manager_.Commit(reader.get()).ok());
  auto empty = manager_.Begin(2);
  ASSERT_TRUE(manager_.Commit(empty.get()).ok());

  std::uint64_t commit_events = 0;
  for (const auto& event : telemetry::TraceRing::Events().Snapshot()) {
    if (event.kind == telemetry::TraceKind::kTxnCommit) ++commit_events;
  }
  EXPECT_EQ(commit_events, 2u);
  EXPECT_EQ(manager_.stats().committed, committed + 2);
}

TEST_F(TransactionManagerTest, OperationsOnFinishedTransactionRejected) {
  auto txn = manager_.Begin(0);
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  EXPECT_EQ(manager_.ReadNamed(txn.get(), Oid(1), Sym("x")).status().code(),
            StatusCode::kTransactionState);
  EXPECT_EQ(manager_.Commit(txn.get()).code(), StatusCode::kTransactionState);
  EXPECT_EQ(manager_.Abort(txn.get()).code(), StatusCode::kTransactionState);
}

TEST_F(TransactionManagerTest, SafeTimeAdvancesWithCommits) {
  EXPECT_EQ(manager_.SafeTime(), 0u);
  Seed("x", Value::Integer(1));
  EXPECT_EQ(manager_.SafeTime(), 1u);
  Seed("y", Value::Integer(2));
  EXPECT_EQ(manager_.SafeTime(), 2u);
}

// Concurrency stress: counter increments under OCC with retry must not
// lose updates (the canonical serializability check).
TEST_F(TransactionManagerTest, ConcurrentIncrementsAreSerializable) {
  Oid counter = Seed("n", Value::Integer(0));
  constexpr int kThreads = 8;
  constexpr int kIncrements = 25;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          auto txn = manager_.Begin(static_cast<SessionId>(w));
          auto v = manager_.ReadNamed(txn.get(), counter, Sym("n"));
          if (!v.ok()) continue;
          Status ws = manager_.WriteNamed(txn.get(), counter, Sym("n"),
                                          Value::Integer(v->integer() + 1));
          if (!ws.ok()) continue;
          Status cs = manager_.Commit(txn.get());
          if (cs.ok()) break;
          ASSERT_TRUE(cs.IsTransactionConflict()) << cs.ToString();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every transaction either committed or aborted-and-retried; the books
  // must balance. (Whether conflicts occurred is scheduling-dependent.)
  TxnStats stats = manager_.stats();
  EXPECT_EQ(stats.committed + stats.aborted, stats.begun);
  auto txn = manager_.Begin(99);
  EXPECT_EQ(manager_.ReadNamed(txn.get(), counter, Sym("n")).ValueOrDie(),
            Value::Integer(kThreads * kIncrements));
}

class PersistentTxnTest : public ::testing::Test {
 protected:
  PersistentTxnTest()
      : disk_(1024, 2048), engine_(&disk_), manager_(&memory_, &engine_) {
    EXPECT_TRUE(engine_.Format().ok());
  }

  ObjectMemory memory_;
  storage::SimulatedDisk disk_;
  storage::StorageEngine engine_;
  TransactionManager manager_;
};

TEST_F(PersistentTxnTest, CommitsAreDurable) {
  auto txn = manager_.Begin(0);
  Oid oid = manager_.CreateObject(txn.get(), memory_.kernel().object)
                .ValueOrDie();
  SymbolId name = memory_.symbols().Intern("name");
  ASSERT_TRUE(
      manager_.WriteNamed(txn.get(), oid, name, Value::String("durable"))
          .ok());
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());

  // Crash: rebuild everything from the platters.
  storage::StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  ObjectMemory fresh_memory;
  for (Oid o : recovered.CatalogOids()) {
    auto obj = recovered.LoadObject(o, &fresh_memory.symbols());
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE(fresh_memory.Insert(std::move(obj).value()).ok());
  }
  auto value = fresh_memory.ReadNamed(
      oid, fresh_memory.symbols().Intern("name"), kTimeNow);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), Value::String("durable"));
}

// A storage-failed commit is a clean abort: counted as aborted (plus the
// dedicated failure counter), workspace discarded, and nothing published —
// ObjectMemory, last_commit_, and the clock stay exactly as they were, so
// a retry of the same writes sees no phantom conflicts.
TEST_F(PersistentTxnTest, StorageFailedCommitIsCleanAbort) {
  SymbolId x = memory_.symbols().Intern("x");
  auto seed = manager_.Begin(0);
  Oid oid = manager_.CreateObject(seed.get(), memory_.kernel().object)
                .ValueOrDie();
  ASSERT_TRUE(manager_.WriteNamed(seed.get(), oid, x, Value::Integer(1)).ok());
  ASSERT_TRUE(manager_.Commit(seed.get()).ok());
  const TxnTime clock_before = manager_.Now();

  disk_.InjectWriteFailureAfter(0);
  auto doomed = manager_.Begin(1);
  ASSERT_TRUE(
      manager_.WriteNamed(doomed.get(), oid, x, Value::Integer(2)).ok());
  Status failed = manager_.Commit(doomed.get());
  ASSERT_TRUE(failed.IsIoError()) << failed.ToString();
  EXPECT_EQ(doomed->state(), TxnState::kAborted);
  EXPECT_EQ(doomed->workspace_size(), 0u);

  TxnStats stats = manager_.stats();
  EXPECT_EQ(stats.committed, 1u);  // the seed only
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.commit_storage_failures, 1u);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(manager_.Now(), clock_before);  // clock did not advance

  // Memory untouched by the failed publish.
  auto check = manager_.Begin(2);
  EXPECT_EQ(manager_.ReadNamed(check.get(), oid, x).ValueOrDie(),
            Value::Integer(1));

  // The retry commits without a phantom conflict against the failure.
  disk_.ClearFault();
  auto retry = manager_.Begin(1);
  ASSERT_TRUE(
      manager_.WriteNamed(retry.get(), oid, x, Value::Integer(2)).ok());
  Status retried = manager_.Commit(retry.get());
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(manager_.Now(), clock_before + 1);
  EXPECT_EQ(manager_.stats().commit_storage_failures, 1u);
}

// A created-in-this-transaction object must not linger anywhere after a
// storage failure — neither in memory nor on disk after recovery.
TEST_F(PersistentTxnTest, StorageFailureDiscardsCreatedObjects) {
  disk_.InjectWriteFailureAfter(1);  // fail partway through the group
  auto txn = manager_.Begin(0);
  Oid oid = manager_.CreateObject(txn.get(), memory_.kernel().object)
                .ValueOrDie();
  SymbolId x = memory_.symbols().Intern("x");
  ASSERT_TRUE(manager_.WriteNamed(txn.get(), oid, x, Value::Integer(7)).ok());
  ASSERT_TRUE(manager_.Commit(txn.get()).IsIoError());
  EXPECT_EQ(memory_.Find(oid), nullptr);

  disk_.ClearFault();
  storage::StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_FALSE(recovered.Contains(oid));
  EXPECT_EQ(recovered.catalog().size(), 0u);
}

TEST_F(PersistentTxnTest, OnlyChangedObjectsHitDisk) {
  auto txn = manager_.Begin(0);
  Oid a = manager_.CreateObject(txn.get(), memory_.kernel().object)
              .ValueOrDie();
  Oid b = manager_.CreateObject(txn.get(), memory_.kernel().object)
              .ValueOrDie();
  SymbolId x = memory_.symbols().Intern("x");
  ASSERT_TRUE(manager_.WriteNamed(txn.get(), a, x, Value::Integer(1)).ok());
  ASSERT_TRUE(manager_.WriteNamed(txn.get(), b, x, Value::Integer(2)).ok());
  ASSERT_TRUE(manager_.Commit(txn.get()).ok());
  const std::uint64_t after_first = engine_.stats().objects_written;
  EXPECT_EQ(after_first, 2u);

  auto txn2 = manager_.Begin(0);
  ASSERT_TRUE(manager_.WriteNamed(txn2.get(), a, x, Value::Integer(3)).ok());
  ASSERT_TRUE(manager_.Commit(txn2.get()).ok());
  EXPECT_EQ(engine_.stats().objects_written, after_first + 1);
}

// txn.publish_hold_us bounds how long a reader can wait on a writer: one
// observation per writer commit or demotion, none for read-only commits
// or conflict aborts, which never publish.
TEST_F(PersistentTxnTest, PublishHoldRecordsOncePerWriterCommit) {
  const telemetry::Histogram* hold =
      telemetry::MetricsRegistry::Global().GetHistogram("txn.publish_hold_us");
  const std::uint64_t before = hold->count();
  SymbolId x = memory_.symbols().Intern("x");
  auto create = manager_.Begin(0);
  Oid oid = manager_.CreateObject(create.get(), memory_.kernel().object)
                .ValueOrDie();
  ASSERT_TRUE(
      manager_.WriteNamed(create.get(), oid, x, Value::Integer(0)).ok());
  ASSERT_TRUE(manager_.Commit(create.get()).ok());
  EXPECT_EQ(hold->count(), before + 1);

  for (int i = 1; i <= 3; ++i) {
    auto update = manager_.Begin(0);
    ASSERT_TRUE(
        manager_.WriteNamed(update.get(), oid, x, Value::Integer(i)).ok());
    ASSERT_TRUE(manager_.Commit(update.get()).ok());
  }
  EXPECT_EQ(hold->count(), before + 4);

  auto reader = manager_.Begin(1);
  ASSERT_TRUE(manager_.ReadNamed(reader.get(), oid, x).ok());
  ASSERT_TRUE(manager_.Commit(reader.get()).ok());
  EXPECT_EQ(hold->count(), before + 4);

  auto loser = manager_.Begin(2);
  ASSERT_TRUE(manager_.WriteNamed(loser.get(), oid, x, Value::Integer(9)).ok());
  auto winner = manager_.Begin(3);
  ASSERT_TRUE(
      manager_.WriteNamed(winner.get(), oid, x, Value::Integer(8)).ok());
  ASSERT_TRUE(manager_.Commit(winner.get()).ok());
  ASSERT_TRUE(manager_.Commit(loser.get()).IsTransactionConflict());
  EXPECT_EQ(hold->count(), before + 5);

  ASSERT_TRUE(manager_.ApplyDemotion(oid, manager_.Now()).ok());
  EXPECT_EQ(hold->count(), before + 6);
  // Exported with every other registry histogram (/metrics, System stats).
  EXPECT_EQ(telemetry::MetricsRegistry::Global().Snapshot().histograms.count(
                "txn.publish_hold_us"),
            1u);
}

}  // namespace
}  // namespace gemstone::txn
