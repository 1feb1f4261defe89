// Snapshot-pin semantics (the gateway's query path, DESIGN.md §12): the
// pin is a fresh transaction's start. Pinned reads resolve at the pin
// time and are recorded as current reads (never historical heat), side
// effects land in place, a pinned transaction that wrote nothing is fresh
// again once unpinned, the time dial takes precedence over a pin, and the
// tiered commit releases access-free transactions without store-lock
// work.

#include <gtest/gtest.h>

#include "storage/simulated_disk.h"
#include "storage/storage_engine.h"
#include "telemetry/metrics.h"
#include "txn/session.h"

namespace gemstone::txn {
namespace {

class SnapshotReadTest : public ::testing::Test {
 protected:
  SnapshotReadTest()
      : disk_(256, 4096),
        engine_(&disk_),
        manager_(&memory_, &engine_),
        session_(&manager_, 1) {
    EXPECT_TRUE(engine_.Format().ok());
    EXPECT_TRUE(engine_.Open().ok());
  }

  SymbolId Sym(std::string_view s) { return memory_.symbols().Intern(s); }

  static std::uint64_t HistoricalReads() {
    return telemetry::MetricsRegistry::Global()
        .Snapshot()
        .counters["txn.historical_reads"];
  }

  /// A committed object with element x = `value`, visible to everyone.
  Oid CommittedObject(std::int64_t value) {
    auto txn = manager_.Begin(99);
    Oid oid = manager_.CreateObject(txn.get(), memory_.kernel().object)
                  .ValueOrDie();
    EXPECT_TRUE(manager_
                    .WriteNamed(txn.get(), oid, Sym("x"),
                                Value::Integer(value))
                    .ok());
    EXPECT_TRUE(manager_.Commit(txn.get()).ok());
    return oid;
  }

  storage::SimulatedDisk disk_;
  storage::StorageEngine engine_;
  ObjectMemory memory_;
  TransactionManager manager_;
  Session session_;
};

TEST_F(SnapshotReadTest, PinnedReadsRecordNothing) {
  const Oid oid = CommittedObject(7);
  ASSERT_TRUE(session_.Begin().ok());

  {
    SnapshotPin pin(&session_, manager_.SafeTime());
    EXPECT_TRUE(session_.transaction()->pinned());
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(7));
    // Recorded while pinned, like any current read...
    EXPECT_EQ(session_.transaction()->read_set_size(), 1u);
  }
  // ...and dropped at the unpin: the transaction wrote nothing, so it is
  // fresh again.
  EXPECT_FALSE(session_.transaction()->pinned());
  EXPECT_EQ(session_.transaction()->read_set_size(), 0u);

  // The same read unpinned is recorded for commit-time validation.
  EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
            Value::Integer(7));
  EXPECT_EQ(session_.transaction()->read_set_size(), 1u);
}

TEST_F(SnapshotReadTest, PinnedReadsAreAccountedAsCurrentReads) {
  const Oid oid = CommittedObject(7);
  ASSERT_TRUE(session_.Begin().ok());
  const storage::TrackHeatmap& heat = disk_.heatmap();
  const std::uint64_t reads = HistoricalReads();
  const std::uint64_t heat_deposits = heat.historical_accesses();

  {
    SnapshotPin pin(&session_, manager_.SafeTime());
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(7));
    EXPECT_EQ(session_.IndexedSize(oid).ValueOrDie(), 0u);
    EXPECT_EQ(session_.ListNamed(oid).ValueOrDie().size(), 1u);
  }
  EXPECT_EQ(HistoricalReads(), reads);
  EXPECT_EQ(heat.historical_accesses(), heat_deposits);

  // The same reads under a dial are time-dial traffic, and so is an
  // explicit-time read.
  session_.SetTimeDial(manager_.SafeTime());
  EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
            Value::Integer(7));
  EXPECT_EQ(session_.IndexedSize(oid).ValueOrDie(), 0u);
  EXPECT_EQ(session_.ListNamed(oid).ValueOrDie().size(), 1u);
  session_.ClearTimeDial();
  EXPECT_EQ(session_.ReadNamedAt(oid, Sym("x"), manager_.SafeTime())
                .ValueOrDie(),
            Value::Integer(7));
  EXPECT_EQ(HistoricalReads(), reads + 4);
  EXPECT_GE(heat.historical_accesses(), heat_deposits + 4);
}

TEST_F(SnapshotReadTest, PinnedReadsSeeTheSnapshotNotLaterCommits) {
  const Oid oid = CommittedObject(1);
  ASSERT_TRUE(session_.Begin().ok());
  SnapshotPin pin(&session_, manager_.SafeTime());
  EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
            Value::Integer(1));

  // Another session commits a new value after the pin.
  auto writer = manager_.Begin(2);
  ASSERT_TRUE(manager_
                  .WriteNamed(writer.get(), oid, Sym("x"),
                              Value::Integer(2))
                  .ok());
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());

  // The pinned view is repeatable: still the old value.
  EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
            Value::Integer(1));
}

TEST_F(SnapshotReadTest, PinnedSideEffectsLand) {
  const Oid oid = CommittedObject(3);
  ASSERT_TRUE(session_.Begin().ok());
  {
    SnapshotPin pin(&session_, manager_.SafeTime());
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(3));
    EXPECT_TRUE(session_.WriteNamed(oid, Sym("x"), Value::Integer(4)).ok());
    EXPECT_TRUE(session_.Create(memory_.kernel().object).ok());
    // The workspace shadows the pinned snapshot.
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(4));
  }
  // A transaction that wrote keeps its reads for validation.
  EXPECT_EQ(session_.transaction()->read_set_size(), 1u);
  EXPECT_EQ(session_.transaction()->dirty_object_count(), 2u);
  ASSERT_TRUE(session_.Commit().ok());
  ASSERT_TRUE(session_.Begin().ok());
  EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
            Value::Integer(4));
}

TEST_F(SnapshotReadTest, PinnedReadThenWriteStillValidates) {
  const Oid read = CommittedObject(1);
  const Oid written = CommittedObject(2);
  ASSERT_TRUE(session_.Begin().ok());
  {
    SnapshotPin pin(&session_, manager_.SafeTime());
    ASSERT_TRUE(session_.ReadNamed(read, Sym("x")).ok());
    ASSERT_TRUE(
        session_.WriteNamed(written, Sym("x"), Value::Integer(3)).ok());
  }
  // Another transaction commits the object the pinned request read.
  auto writer = manager_.Begin(2);
  ASSERT_TRUE(manager_
                  .WriteNamed(writer.get(), read, Sym("x"),
                              Value::Integer(9))
                  .ok());
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());

  EXPECT_EQ(session_.Commit().code(), StatusCode::kTransactionConflict);
}

TEST_F(SnapshotReadTest, PinnedReadOnlyCommitIgnoresLaterCommits) {
  const Oid oid = CommittedObject(1);
  ASSERT_TRUE(session_.Begin().ok());
  SnapshotPin pin(&session_, manager_.SafeTime());
  ASSERT_TRUE(session_.ReadNamed(oid, Sym("x")).ok());
  auto writer = manager_.Begin(2);
  ASSERT_TRUE(manager_
                  .WriteNamed(writer.get(), oid, Sym("x"),
                              Value::Integer(2))
                  .ok());
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());

  // Every read was of the one pinned snapshot: nothing to invalidate.
  EXPECT_TRUE(session_.Commit().ok());
}

TEST_F(SnapshotReadTest, UnpinLeavesAReplacedTransactionAlone) {
  const Oid oid = CommittedObject(1);
  ASSERT_TRUE(session_.Begin().ok());
  {
    SnapshotPin pin(&session_, manager_.SafeTime());
    ASSERT_TRUE(session_.WriteNamed(oid, Sym("x"), Value::Integer(5)).ok());
    // What `System commitTransaction` does inside a pinned request.
    ASSERT_TRUE(session_.Commit().ok());
    ASSERT_TRUE(session_.Begin().ok());
    // The new transaction is unpinned: it sees its predecessor's commit,
    // and its read is recorded.
    EXPECT_FALSE(session_.transaction()->pinned());
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(5));
  }
  // Ending the pin did not touch the new transaction's read set.
  EXPECT_EQ(session_.transaction()->read_set_size(), 1u);
}

TEST_F(SnapshotReadTest, OnlyTheFirstPinMovesTheStart) {
  const Oid oid = CommittedObject(1);
  const auto commit_elsewhere = [&](std::int64_t v) {
    auto writer = manager_.Begin(2);
    ASSERT_TRUE(manager_
                    .WriteNamed(writer.get(), oid, Sym("x"),
                                Value::Integer(v))
                    .ok());
    ASSERT_TRUE(manager_.Commit(writer.get()).ok());
  };
  ASSERT_TRUE(session_.Begin().ok());
  commit_elsewhere(2);
  const TxnTime first = manager_.SafeTime();
  {
    SnapshotPin pin(&session_, first);
    EXPECT_EQ(session_.transaction()->start_time(), first);
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(2));
  }
  commit_elsewhere(3);
  {
    // The next request reads the latest snapshot, but validates against
    // the first pin: the read dropped above may predate that commit.
    SnapshotPin pin(&session_, manager_.SafeTime());
    EXPECT_GT(session_.EffectiveTime(), first);
    EXPECT_EQ(session_.transaction()->start_time(), first);
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(3));
    ASSERT_TRUE(session_.WriteNamed(oid, Sym("x"), Value::Integer(4)).ok());
  }
  EXPECT_EQ(session_.Commit().code(), StatusCode::kTransactionConflict);
}

TEST_F(SnapshotReadTest, DialTakesPrecedenceOverPin) {
  const Oid oid = CommittedObject(5);
  const TxnTime before = manager_.Now();
  // Advance the committed state past `before`.
  auto writer = manager_.Begin(2);
  ASSERT_TRUE(manager_
                  .WriteNamed(writer.get(), oid, Sym("x"),
                              Value::Integer(6))
                  .ok());
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());

  ASSERT_TRUE(session_.Begin().ok());
  session_.SetTimeDial(before);
  SnapshotPin pin(&session_, manager_.SafeTime());
  EXPECT_TRUE(pin.pinned());
  EXPECT_EQ(session_.EffectiveTime(), before);
  EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
            Value::Integer(5));
}

TEST_F(SnapshotReadTest, EligibilityTracksRecordedAccesses) {
  const Oid oid = CommittedObject(8);
  const auto pins = [&] {
    return SnapshotPin(&session_, manager_.SafeTime()).pinned();
  };

  // No transaction: nothing to pin.
  EXPECT_FALSE(pins());
  ASSERT_TRUE(session_.Begin().ok());
  // Fresh transaction: pinned, and fresh again after a read-only pin.
  EXPECT_TRUE(pins());
  {
    SnapshotPin pin(&session_, manager_.SafeTime());
    ASSERT_TRUE(session_.ReadNamed(oid, Sym("x")).ok());
  }
  EXPECT_TRUE(pins());

  // A recorded read outside a pin makes it ineligible: moving the start
  // would hide commits the read may predate.
  ASSERT_TRUE(session_.ReadNamed(oid, Sym("x")).ok());
  EXPECT_FALSE(pins());

  // Committing ends the transaction; the next one is fresh.
  ASSERT_TRUE(session_.Commit().ok());
  ASSERT_TRUE(session_.Begin().ok());
  EXPECT_TRUE(pins());
  // So does a write.
  ASSERT_TRUE(session_.WriteNamed(oid, Sym("x"), Value::Integer(9)).ok());
  EXPECT_FALSE(pins());
}

TEST_F(SnapshotReadTest, ReadOnlyCommitStillValidates) {
  const Oid oid = CommittedObject(1);

  // Session reads at now (recorded), then another transaction commits the
  // object: the read-only fast path must still conflict.
  ASSERT_TRUE(session_.Begin().ok());
  ASSERT_TRUE(session_.ReadNamed(oid, Sym("x")).ok());

  auto writer = manager_.Begin(2);
  ASSERT_TRUE(manager_
                  .WriteNamed(writer.get(), oid, Sym("x"),
                              Value::Integer(2))
                  .ok());
  ASSERT_TRUE(manager_.Commit(writer.get()).ok());

  EXPECT_EQ(session_.Commit().code(), StatusCode::kTransactionConflict);
}

TEST_F(SnapshotReadTest, AccessFreeCommitSucceedsWithoutConflict) {
  // Tier 0: nothing read, written, or created — the commit releases with
  // no validation scan regardless of concurrent commits.
  ASSERT_TRUE(session_.Begin().ok());
  CommittedObject(9);  // concurrent commit after our Begin
  EXPECT_TRUE(session_.Commit().ok());
}

}  // namespace
}  // namespace gemstone::txn
