// Snapshot-pin semantics (the gateway's lock-free read path, DESIGN.md
// §12): pinned reads resolve at the pinned commit time and record
// nothing, not even historical heat, every side effect bounces with
// kReadOnlyRetry before mutating anything, the time dial takes precedence
// over a pin, and the tiered commit releases access-free transactions
// without store-lock work.

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
    EXPECT_TRUE(session_.SnapshotPinned());
    EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
              Value::Integer(7));
    EXPECT_EQ(session_.transaction()->read_set_size(), 0u);
  }
  EXPECT_FALSE(session_.SnapshotPinned());

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

TEST_F(SnapshotReadTest, PinnedSideEffectsReturnReadOnlyRetry) {
  const Oid oid = CommittedObject(3);
  ASSERT_TRUE(session_.Begin().ok());
  {
    SnapshotPin pin(&session_, manager_.SafeTime());
    EXPECT_EQ(session_.WriteNamed(oid, Sym("x"), Value::Integer(4)).code(),
              StatusCode::kReadOnlyRetry);
    EXPECT_EQ(session_.Create(memory_.kernel().object).status().code(),
              StatusCode::kReadOnlyRetry);
    // Nothing was recorded or mutated: the retry reruns from scratch.
    EXPECT_EQ(session_.transaction()->dirty_object_count(), 0u);
    EXPECT_EQ(session_.transaction()->created_count(), 0u);
  }
  // After the pin the same write succeeds.
  EXPECT_TRUE(session_.WriteNamed(oid, Sym("x"), Value::Integer(4)).ok());
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
  EXPECT_EQ(session_.EffectiveTime(), before);
  EXPECT_EQ(session_.ReadNamed(oid, Sym("x")).ValueOrDie(),
            Value::Integer(5));
}

TEST_F(SnapshotReadTest, EligibilityTracksRecordedAccesses) {
  const Oid oid = CommittedObject(8);

  // No transaction: eligible (reads fail identically on either path).
  EXPECT_TRUE(session_.SnapshotReadEligible());
  ASSERT_TRUE(session_.Begin().ok());
  // Fresh transaction: eligible.
  EXPECT_TRUE(session_.SnapshotReadEligible());

  // A recorded read makes it ineligible...
  ASSERT_TRUE(session_.ReadNamed(oid, Sym("x")).ok());
  EXPECT_FALSE(session_.SnapshotReadEligible());
  // ...but a time dial always fixes an immutable view.
  session_.SetTimeDial(manager_.SafeTime());
  EXPECT_TRUE(session_.SnapshotReadEligible());
  session_.ClearTimeDial();
  EXPECT_FALSE(session_.SnapshotReadEligible());

  // Committing ends the transaction and restores eligibility.
  ASSERT_TRUE(session_.Commit().ok());
  EXPECT_TRUE(session_.SnapshotReadEligible());
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
