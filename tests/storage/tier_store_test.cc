// The levelled temporal track store (DESIGN.md §15): cold-run codec
// roundtrips, point resolution across levels, duplicate folding, merge
// compaction, archive overflow, recovery, and the TransactionManager
// integration — time-dial reads below an object's history floor must be
// indistinguishable from the all-resident answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "object/object_memory.h"
#include "storage/archival_store.h"
#include "storage/storage_engine.h"
#include "storage/tier/cold_run.h"
#include "storage/tier/compactor.h"
#include "storage/tier/tier_store.h"
#include "txn/session.h"
#include "txn/transaction_manager.h"

namespace gemstone::storage::tier {
namespace {

VersionRecord Named(std::uint64_t oid, const std::string& name, TxnTime t,
                    Value v, bool alias = false) {
  VersionRecord r;
  r.oid = Oid(oid);
  r.kind = VersionRecord::kNamed;
  r.alias = alias;
  r.name = name;
  r.time = t;
  r.value = std::move(v);
  return r;
}

VersionRecord Indexed(std::uint64_t oid, std::uint64_t index, TxnTime t,
                      Value v) {
  VersionRecord r;
  r.oid = Oid(oid);
  r.kind = VersionRecord::kIndexed;
  r.index = index;
  r.time = t;
  r.value = std::move(v);
  return r;
}

std::vector<VersionRecord> Sorted(std::vector<VersionRecord> records) {
  std::stable_sort(records.begin(), records.end(), RecordOrder);
  return records;
}

TEST(ColdRunTest, EncodeDecodeRoundtrip) {
  SymbolTable symbols;
  const std::vector<VersionRecord> records = Sorted({
      Named(7, "name", 3, Value::String("smith")),
      Named(7, "name", 9, Value::String("jones")),
      Named(7, "salary", 5, Value::Integer(42000)),
      Named(9, "member-1", 4, Value::Integer(1), /*alias=*/true),
      Indexed(7, 0, 3, Value::Symbol(symbols.Intern("engineer"))),
      Indexed(7, 3, 8, Value::Boolean(true)),
  });
  const EncodedRun encoded = EncodeRun(77, records, symbols);
  ASSERT_EQ(encoded.offsets.size(), records.size());

  SymbolTable fresh;
  auto decoded = DecodeRun(encoded.bytes, &fresh);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->run_id, 77u);
  ASSERT_EQ(decoded->records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const VersionRecord& want = records[i];
    const VersionRecord& got = decoded->records[i];
    EXPECT_EQ(got.oid, want.oid) << i;
    EXPECT_EQ(got.kind, want.kind) << i;
    EXPECT_EQ(got.alias, want.alias) << i;
    EXPECT_EQ(got.name, want.name) << i;
    EXPECT_EQ(got.index, want.index) << i;
    EXPECT_EQ(got.time, want.time) << i;
    EXPECT_EQ(decoded->offsets[i], encoded.offsets[i]) << i;
  }
  // Symbols travel as text and re-intern on decode. (Sorted order puts
  // oid 7's named elements first, then its indexed slots: the symbol
  // landed at slot 0, record index 3.)
  EXPECT_EQ(decoded->records[3].value,
            Value::Symbol(fresh.Intern("engineer")));
}

TEST(ColdRunTest, ChecksumCatchesCorruption) {
  SymbolTable symbols;
  const EncodedRun encoded =
      EncodeRun(1, Sorted({Named(1, "x", 1, Value::Integer(1))}), symbols);
  for (std::size_t flip : {std::size_t{0}, encoded.bytes.size() / 2,
                           encoded.bytes.size() - 1}) {
    std::vector<std::uint8_t> bent = encoded.bytes;
    bent[flip] ^= 0x40;
    SymbolTable fresh;
    EXPECT_FALSE(DecodeRun(bent, &fresh).ok()) << "flip at " << flip;
  }
  // Truncation is corruption too, never a short read.
  std::vector<std::uint8_t> cut(encoded.bytes.begin(),
                                encoded.bytes.end() - 3);
  SymbolTable fresh;
  EXPECT_FALSE(DecodeRun(cut, &fresh).ok());
}

TierOptions SmallOptions(std::size_t levels = 2,
                         std::size_t runs_per_level = 4) {
  TierOptions options;
  options.cold_levels = levels;
  options.tracks_per_level = 32;
  options.track_capacity = 1024;
  options.runs_per_level = runs_per_level;
  return options;
}

TEST(TierStoreTest, ResolveAcrossTimesAndElements) {
  SymbolTable symbols;
  TierStore store(&symbols, nullptr, SmallOptions());
  ASSERT_TRUE(store.Format().ok());
  ASSERT_TRUE(store
                  .AppendRun(Sorted({
                      Named(1, "x", 5, Value::Integer(1)),
                      Named(1, "x", 10, Value::Integer(2)),
                      Named(1, "x", 15, Value::Integer(3)),
                      Named(1, "y", 7, Value::String("only")),
                      Indexed(1, 0, 5, Value::Integer(100)),
                  }))
                  .ok());

  auto at = [&](TxnTime t) {
    auto r = store.ResolveNamed(Oid(1), "x", t);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  };
  EXPECT_FALSE(at(4).has_value());  // before the first binding
  EXPECT_EQ(at(5)->value, Value::Integer(1));
  EXPECT_EQ(at(12)->value, Value::Integer(2));
  EXPECT_EQ(at(12)->time, 10u);
  EXPECT_EQ(at(1000)->value, Value::Integer(3));

  auto y = store.ResolveNamed(Oid(1), "y", 8).ValueOrDie();
  ASSERT_TRUE(y.has_value());
  EXPECT_EQ(y->value, Value::String("only"));
  // A different element of the same object never bleeds through.
  EXPECT_FALSE(store.ResolveNamed(Oid(1), "z", 1000).ValueOrDie().has_value());
  EXPECT_FALSE(store.ResolveNamed(Oid(2), "x", 1000).ValueOrDie().has_value());

  auto slot = store.ResolveIndexed(Oid(1), 0, 6).ValueOrDie();
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->value, Value::Integer(100));
  EXPECT_FALSE(store.ResolveIndexed(Oid(1), 1, 6).ValueOrDie().has_value());

  const TierCounters counters = store.counters();
  EXPECT_GT(counters.resolves, 0u);
  EXPECT_GT(counters.resolve_misses, 0u);
}

TEST(TierStoreTest, DuplicateBindingsAcrossRunsFold) {
  // Repeated demotion re-emits creation markers and carry-forwards; the
  // resolver must treat N copies as one, and history must fold them.
  SymbolTable symbols;
  TierStore store(&symbols, nullptr, SmallOptions());
  ASSERT_TRUE(store.Format().ok());
  ASSERT_TRUE(store
                  .AppendRun(Sorted({
                      Named(3, "v", 2, Value::Integer(10)),
                      Named(3, "v", 4, Value::Integer(20)),
                  }))
                  .ok());
  ASSERT_TRUE(store
                  .AppendRun(Sorted({
                      Named(3, "v", 2, Value::Integer(10)),  // duplicate
                      Named(3, "v", 4, Value::Integer(20)),  // duplicate
                      Named(3, "v", 6, Value::Integer(30)),
                  }))
                  .ok());
  EXPECT_EQ(store.ResolveNamed(Oid(3), "v", 3).ValueOrDie()->value,
            Value::Integer(10));
  EXPECT_EQ(store.ResolveNamed(Oid(3), "v", 9).ValueOrDie()->value,
            Value::Integer(30));

  auto history = store.NamedHistoryOf(Oid(3), "v");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_EQ((*history)[0].time, 2u);
  EXPECT_EQ((*history)[1].time, 4u);
  EXPECT_EQ((*history)[2].time, 6u);
}

TEST(TierStoreTest, OverBudgetLevelMergesDownward) {
  SymbolTable symbols;
  TierStore store(&symbols, nullptr,
                  SmallOptions(/*levels=*/2, /*runs_per_level=*/2));
  ASSERT_TRUE(store.Format().ok());
  for (int run = 0; run < 3; ++run) {
    std::vector<VersionRecord> records;
    for (int i = 0; i < 40; ++i) {
      records.push_back(Named(10 + i, "f",
                              static_cast<TxnTime>(run * 100 + i + 1),
                              Value::Integer(run * 1000 + i)));
    }
    ASSERT_TRUE(store.AppendRun(Sorted(std::move(records))).ok());
  }
  ASSERT_TRUE(store.MaybeCompact().ok());

  const std::vector<TierLevelStats> stats = store.LevelStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].runs, 0u);  // L1 emptied
  EXPECT_EQ(stats[1].runs, 1u);  // one merged run on L2
  EXPECT_EQ(stats[1].records, 120u);
  EXPECT_GE(store.counters().compactions, 1u);

  // Resolution is level-transparent.
  EXPECT_EQ(store.ResolveNamed(Oid(10), "f", 1).ValueOrDie()->value,
            Value::Integer(0));
  EXPECT_EQ(store.ResolveNamed(Oid(10), "f", 500).ValueOrDie()->value,
            Value::Integer(2000));

  // Placement stays lowest-first: the merge freed L1's run tracks, so the
  // next run lands on the lowest free track, the first data track.
  std::vector<TrackId> written;
  store.level_disk(0)->SetWriteGate(
      [&written](TrackId track) { written.push_back(track); });
  ASSERT_TRUE(
      store.AppendRun(Sorted({Named(99, "f", 1000, Value::Integer(7))})).ok());
  store.level_disk(0)->SetWriteGate(nullptr);
  std::erase_if(written, [](TrackId track) {
    return track < CommitManager::kFirstDataTrack;  // root slot flips
  });
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(*std::min_element(written.begin(), written.end()),
            CommitManager::kFirstDataTrack);
}

TEST(TierStoreTest, DeepestLevelOverflowsIntoArchive) {
  SymbolTable symbols;
  ArchivalStore archive;
  TierStore store(&symbols, &archive,
                  SmallOptions(/*levels=*/1, /*runs_per_level=*/1));
  ASSERT_TRUE(store.Format().ok());
  ASSERT_TRUE(
      store.AppendRun(Sorted({Named(5, "a", 1, Value::Integer(1))})).ok());
  ASSERT_TRUE(
      store.AppendRun(Sorted({Named(5, "a", 3, Value::Integer(2))})).ok());
  ASSERT_TRUE(store.MaybeCompact().ok());

  EXPECT_EQ(store.counters().archive_merges, 1u);
  EXPECT_EQ(archive.RunIds().size(), 1u);  // one merged blob, sources gone
  // Archived bindings resolve exactly like platter-resident ones.
  EXPECT_EQ(store.ResolveNamed(Oid(5), "a", 2).ValueOrDie()->value,
            Value::Integer(1));
  EXPECT_EQ(store.ResolveNamed(Oid(5), "a", 9).ValueOrDie()->value,
            Value::Integer(2));
}

TEST(TierStoreTest, OpenRecoversEveryLevelFromPlatters) {
  SymbolTable symbols;
  ArchivalStore archive;
  TierStore store(&symbols, &archive,
                  SmallOptions(/*levels=*/2, /*runs_per_level=*/1));
  ASSERT_TRUE(store.Format().ok());
  ASSERT_TRUE(store
                  .AppendRun(Sorted({
                      Named(1, "x", 1, Value::Integer(1)),
                      Named(1, "x", 5, Value::Integer(2)),
                  }))
                  .ok());
  ASSERT_TRUE(
      store.AppendRun(Sorted({Named(1, "x", 9, Value::Integer(3))})).ok());
  ASSERT_TRUE(store.MaybeCompact().ok());  // pushes L1 into L2
  const std::vector<TierLevelStats> before = store.LevelStats();

  // Reboot: recover the catalogs from the platters alone. Open() discards
  // all in-memory state and re-adopts each level's newest valid root.
  ASSERT_TRUE(store.Open().ok());
  const std::vector<TierLevelStats> after = store.LevelStats();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].runs, before[i].runs) << "level " << i;
    EXPECT_EQ(after[i].records, before[i].records) << "level " << i;
  }
  EXPECT_EQ(store.counters().recovery_fallbacks, 0u);
  EXPECT_EQ(store.ResolveNamed(Oid(1), "x", 6).ValueOrDie()->value,
            Value::Integer(2));
  EXPECT_EQ(store.ResolveNamed(Oid(1), "x", 100).ValueOrDie()->value,
            Value::Integer(3));
}

// ---------------------------------------------------------------------------
// TransactionManager integration: demotion must be invisible to readers.
// ---------------------------------------------------------------------------

class TierManagerTest : public ::testing::Test {
 protected:
  TierManagerTest()
      : disk_(256, 4096),
        engine_(&disk_),
        manager_(&memory_, &engine_),
        tiers_(&memory_.symbols(), &archive_, SmallOptions()) {
    EXPECT_TRUE(engine_.Format().ok());
    EXPECT_TRUE(engine_.Open().ok());
    EXPECT_TRUE(tiers_.Format().ok());
    manager_.AttachTierStore(&tiers_);
  }

  // Commits `versions` successive values of `oid`.`name`, one commit per
  // version, and returns the commit times.
  std::vector<TxnTime> CommitVersions(Oid oid, SymbolId name, int versions,
                                      int base) {
    std::vector<TxnTime> times;
    for (int i = 0; i < versions; ++i) {
      auto txn = manager_.Begin(0);
      EXPECT_TRUE(
          manager_.WriteNamed(txn.get(), oid, name, Value::Integer(base + i))
              .ok());
      EXPECT_TRUE(manager_.Commit(txn.get()).ok());
      times.push_back(manager_.Now());
    }
    return times;
  }

  Oid CreateOne() {
    auto txn = manager_.Begin(0);
    Oid oid =
        manager_.CreateObject(txn.get(), memory_.kernel().object).ValueOrDie();
    EXPECT_TRUE(manager_.Commit(txn.get()).ok());
    return oid;
  }

  SimulatedDisk disk_;
  StorageEngine engine_;
  ObjectMemory memory_;
  txn::TransactionManager manager_;
  ArchivalStore archive_;
  TierStore tiers_;
};

TEST_F(TierManagerTest, DemotionPreservesEveryHistoricalRead) {
  const Oid oid = CreateOne();
  const SymbolId x = memory_.symbols().Intern("x");
  const std::vector<TxnTime> times = CommitVersions(oid, x, 30, 100);

  // The fully-resident answers, captured before any demotion.
  std::vector<Value> expected;
  {
    auto reader = manager_.Begin(1);
    for (TxnTime t : times) {
      expected.push_back(
          manager_.ReadNamed(reader.get(), oid, x, t).ValueOrDie());
    }
  }

  CompactorOptions copts;
  copts.min_versions = 4;
  copts.max_objects_per_pass = 64;
  // The expectation capture above was 30 time-dial reads — enough heat
  // for the default ceiling to (correctly) skip the object. This test is
  // about read fidelity, not policy, so lift the ceiling.
  copts.max_historical_heat = 1e18;
  TierCompactor compactor(&tiers_, &manager_, copts);
  auto pass = compactor.RunOncePass();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_GE(pass.value(), 1u);

  const GsObject* resident = memory_.Find(oid);
  ASSERT_NE(resident, nullptr);
  EXPECT_GT(resident->history_floor(), kTimeOrigin);
  EXPECT_GT(tiers_.counters().migrations, 0u);

  // Every historical read answers exactly as it did when resident.
  auto reader = manager_.Begin(2);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(manager_.ReadNamed(reader.get(), oid, x, times[i]).ValueOrDie(),
              expected[i])
        << "t=" << times[i];
  }
  // Current-state reads untouched.
  EXPECT_EQ(manager_.ReadNamed(reader.get(), oid, x).ValueOrDie(),
            Value::Integer(129));
}

TEST_F(TierManagerTest, HistoryMergesColdAndResidentBindings) {
  const Oid oid = CreateOne();
  const SymbolId x = memory_.symbols().Intern("x");
  CommitVersions(oid, x, 20, 0);

  auto reader = manager_.Begin(1);
  const std::vector<Association> before =
      manager_.History(reader.get(), oid, x).ValueOrDie();
  ASSERT_EQ(before.size(), 20u);

  CompactorOptions copts;
  copts.min_versions = 4;
  copts.max_historical_heat = 1e18;  // the History() above warmed the object
  TierCompactor compactor(&tiers_, &manager_, copts);
  ASSERT_TRUE(compactor.RunOncePass().ok());

  // More versions on top of the demoted prefix.
  CommitVersions(oid, x, 5, 100);

  auto after_reader = manager_.Begin(2);
  const std::vector<Association> after =
      manager_.History(after_reader.get(), oid, x).ValueOrDie();
  ASSERT_EQ(after.size(), 25u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].time, before[i].time) << i;
    EXPECT_EQ(after[i].value, before[i].value) << i;
  }
  for (std::size_t i = 1; i < after.size(); ++i) {
    EXPECT_LT(after[i - 1].time, after[i].time);
  }
}

TEST_F(TierManagerTest, RepeatedDemotionDuplicatesAreHarmless) {
  const Oid oid = CreateOne();
  const SymbolId x = memory_.symbols().Intern("x");
  const std::vector<TxnTime> first = CommitVersions(oid, x, 12, 0);

  CompactorOptions copts;
  copts.min_versions = 2;
  TierCompactor compactor(&tiers_, &manager_, copts);
  ASSERT_TRUE(compactor.RunOncePass().ok());

  // Grow more history and demote again: the second run re-emits the
  // carry-forward and creation marker the first demotion kept resident.
  const std::vector<TxnTime> second = CommitVersions(oid, x, 12, 50);
  ASSERT_TRUE(compactor.RunOncePass().ok());

  auto reader = manager_.Begin(1);
  std::vector<TxnTime> all = first;
  all.insert(all.end(), second.begin(), second.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Value want = Value::Integer(
        i < first.size() ? static_cast<std::int64_t>(i)
                         : static_cast<std::int64_t>(50 + i - first.size()));
    EXPECT_EQ(manager_.ReadNamed(reader.get(), oid, x, all[i]).ValueOrDie(),
              want)
        << "t=" << all[i];
  }
  const std::vector<Association> history =
      manager_.History(reader.get(), oid, x).ValueOrDie();
  EXPECT_EQ(history.size(), all.size());  // duplicates folded, no gaps
}

TEST_F(TierManagerTest, IndexedSizeNeedsNoTierTrip) {
  const Oid oid = CreateOne();
  const SymbolId x = memory_.symbols().Intern("x");
  // Indexed growth interleaved with named churn.
  std::vector<TxnTime> append_times;
  for (int i = 0; i < 10; ++i) {
    auto txn = manager_.Begin(0);
    ASSERT_TRUE(
        manager_.AppendIndexed(txn.get(), oid, Value::Integer(i)).ok());
    ASSERT_TRUE(
        manager_.WriteNamed(txn.get(), oid, x, Value::Integer(i)).ok());
    ASSERT_TRUE(manager_.Commit(txn.get()).ok());
    append_times.push_back(manager_.Now());
  }

  CompactorOptions copts;
  copts.min_versions = 2;
  TierCompactor compactor(&tiers_, &manager_, copts);
  ASSERT_TRUE(compactor.RunOncePass().ok());
  ASSERT_GT(memory_.Find(oid)->history_floor(), kTimeOrigin);

  // Creation markers stay resident, so the indexed size at every past
  // time is exact without consulting the tier — and slot reads below the
  // floor route through it transparently.
  auto reader = manager_.Begin(1);
  for (std::size_t i = 0; i < append_times.size(); ++i) {
    EXPECT_EQ(
        manager_.IndexedSize(reader.get(), oid, append_times[i]).ValueOrDie(),
        i + 1)
        << "t=" << append_times[i];
    EXPECT_EQ(manager_
                  .ReadIndexed(reader.get(), oid, i, append_times[i])
                  .ValueOrDie(),
              Value::Integer(static_cast<std::int64_t>(i)))
        << "slot " << i;
  }
}

TEST_F(TierManagerTest, HotObjectsAreSkipped) {
  const Oid oid = CreateOne();
  const SymbolId x = memory_.symbols().Intern("x");
  CommitVersions(oid, x, 10, 0);

  CompactorOptions copts;
  copts.min_versions = 2;
  copts.max_historical_heat = -1.0;  // everything counts as too hot
  TierCompactor compactor(&tiers_, &manager_, copts);
  auto pass = compactor.RunOncePass();
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(pass.value(), 0u);
  EXPECT_GT(compactor.stats().skipped_hot, 0u);
  EXPECT_EQ(memory_.Find(oid)->history_floor(), kTimeOrigin);
}

TEST_F(TierManagerTest, SubFloorDialReadsAreHistoricalLevelTraffic) {
  const Oid oid = CreateOne();
  const SymbolId x = memory_.symbols().Intern("x");
  const std::vector<TxnTime> times = CommitVersions(oid, x, 12, 0);

  CompactorOptions copts;
  copts.min_versions = 2;
  TierCompactor compactor(&tiers_, &manager_, copts);
  ASSERT_TRUE(compactor.RunOncePass().ok());
  ASSERT_GT(memory_.Find(oid)->history_floor(), times.front());

  const auto level_accesses = [&](bool historical) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < tiers_.cold_levels(); ++i) {
      const TrackHeatmap& heat = tiers_.level_disk(i)->heatmap();
      n += historical ? heat.historical_accesses() : heat.current_accesses();
    }
    return n;
  };
  const std::uint64_t current = level_accesses(false);
  const std::uint64_t historical = level_accesses(true);

  // A dial read below the floor resolves through the cold runs: the
  // level tracks it reads are audit traffic, not current-state traffic.
  auto reader = manager_.Begin(1);
  EXPECT_EQ(manager_.ReadNamed(reader.get(), oid, x, times.front())
                .ValueOrDie(),
            Value::Integer(0));
  EXPECT_GT(level_accesses(true), historical);
  EXPECT_EQ(level_accesses(false), current);

  // So is a structural comparison at that time.
  const Oid other = CreateOne();
  const std::uint64_t before_compare = level_accesses(true);
  EXPECT_FALSE(manager_
                   .DeepEquals(reader.get(), Value::Ref(oid),
                               Value::Ref(other), times.front())
                   .ValueOrDie());
  EXPECT_GT(level_accesses(true), before_compare);
  EXPECT_EQ(level_accesses(false), current);
}

TEST_F(TierManagerTest, PinnedReadsLeaveHistoryColdForDemotion) {
  const Oid oid = CreateOne();
  const SymbolId x = memory_.symbols().Intern("x");
  CommitVersions(oid, x, 10, 0);

  // The gateway's pinned reads stand in for current reads: however many
  // there are, they leave the object's history cold.
  txn::Session session(&manager_, 1);
  ASSERT_TRUE(session.Begin().ok());
  for (int i = 0; i < 20; ++i) {
    txn::SnapshotPin pin(&session, manager_.SafeTime());
    ASSERT_TRUE(session.ReadNamed(oid, x).ok());
  }
  ASSERT_TRUE(session.Commit().ok());

  CompactorOptions copts;  // the default max_historical_heat
  copts.min_versions = 2;
  TierCompactor compactor(&tiers_, &manager_, copts);
  auto pass = compactor.RunOncePass();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass.value(), 1u);
  EXPECT_EQ(compactor.stats().skipped_hot, 0u);
  const TxnTime floor = memory_.Find(oid)->history_floor();
  EXPECT_GT(floor, kTimeOrigin);

  // The same reads under a dial are audit traffic: the object stays.
  CommitVersions(oid, x, 10, 100);
  ASSERT_TRUE(session.Begin().ok());
  session.SetTimeDial(manager_.SafeTime());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.ReadNamed(oid, x).ok());
  }
  session.ClearTimeDial();
  ASSERT_TRUE(session.Commit().ok());

  pass = compactor.RunOncePass();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass.value(), 0u);
  EXPECT_GT(compactor.stats().skipped_hot, 0u);
  EXPECT_EQ(memory_.Find(oid)->history_floor(), floor);
}

TEST_F(TierManagerTest, CompactorLifecycleIsIdempotent) {
  CompactorOptions copts;
  copts.interval_ms = 5;
  TierCompactor compactor(&tiers_, &manager_, copts);
  EXPECT_FALSE(compactor.running());
  compactor.Start();
  compactor.Start();  // idempotent
  EXPECT_TRUE(compactor.running());
  compactor.Stop();
  compactor.Stop();  // idempotent
  EXPECT_FALSE(compactor.running());
  compactor.Start();  // restartable
  EXPECT_TRUE(compactor.running());
  compactor.Stop();
}

}  // namespace
}  // namespace gemstone::storage::tier
