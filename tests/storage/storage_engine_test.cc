#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "storage/serializer.h"

namespace gemstone::storage {
namespace {

class StorageEngineTest : public ::testing::Test {
 protected:
  StorageEngineTest() : disk_(512, 1024), engine_(&disk_) {
    EXPECT_TRUE(engine_.Format().ok());
  }

  GsObject MakeEmployee(std::uint64_t oid, std::string name,
                        std::int64_t salary, TxnTime t) {
    GsObject obj{Oid(oid), Oid(7)};
    obj.WriteNamed(symbols_.Intern("name"), t, Value::String(std::move(name)));
    obj.WriteNamed(symbols_.Intern("salary"), t, Value::Integer(salary));
    return obj;
  }

  SymbolTable symbols_;
  SimulatedDisk disk_;
  StorageEngine engine_;
};

TEST_F(StorageEngineTest, FormatYieldsEmptyCatalog) {
  EXPECT_TRUE(engine_.is_open());
  EXPECT_EQ(engine_.catalog().size(), 0u);
}

TEST_F(StorageEngineTest, CommitAndLoadRoundTrip) {
  GsObject emp = MakeEmployee(100, "Ellen Burns", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&emp}, symbols_).ok());
  EXPECT_TRUE(engine_.Contains(Oid(100)));

  auto loaded = engine_.LoadObject(Oid(100), &symbols_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded->ReadNamed(symbols_.Intern("name"), kTimeNow),
            Value::String("Ellen Burns"));
  EXPECT_EQ(engine_.stats().commits, 1u);
}

TEST_F(StorageEngineTest, LoadMissingIsNotFound) {
  EXPECT_EQ(engine_.LoadObject(Oid(77), &symbols_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StorageEngineTest, RecommitSupersedesOldVersion) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());
  const std::size_t free_after_v1 = engine_.free_track_count();

  GsObject v2 = v1;
  v2.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(30000));
  ASSERT_TRUE(engine_.CommitObjects({&v2}, symbols_).ok());
  // Old data tracks recycled: free count does not decay monotonically.
  EXPECT_GE(engine_.free_track_count() + 2, free_after_v1);

  auto loaded = engine_.LoadObject(Oid(100), &symbols_).ValueOrDie();
  EXPECT_EQ(*loaded.ReadNamed(symbols_.Intern("salary"), kTimeNow),
            Value::Integer(30000));
  // History survives the rewrite.
  EXPECT_EQ(*loaded.ReadNamed(symbols_.Intern("salary"), 2),
            Value::Integer(24650));
}

TEST_F(StorageEngineTest, ReopenRecoversCatalog) {
  GsObject a = MakeEmployee(100, "Ellen", 24650, 1);
  GsObject b = MakeEmployee(101, "Robert", 24000, 2);
  ASSERT_TRUE(engine_.CommitObjects({&a, &b}, symbols_).ok());

  // "Crash": new engine instance over the same platters.
  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.catalog().size(), 2u);
  SymbolTable fresh;
  auto loaded = recovered.LoadObject(Oid(101), &fresh).ValueOrDie();
  EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("name"), kTimeNow),
            Value::String("Robert"));

  // Allocate -> release -> reopen: a recommit frees the tracks the old
  // image held, and a reopen rebuilds exactly the free map the running
  // engine kept, which hands out the lowest free track first.
  GsObject a2 = a;
  a2.WriteNamed(symbols_.Intern("salary"), 3, Value::Integer(26000));
  ASSERT_TRUE(recovered.CommitObjects({&a2}, symbols_).ok());
  StorageEngine reopened(&disk_);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.free_track_count(), recovered.free_track_count());
  std::vector<bool> used(disk_.num_tracks(), false);
  used[CommitManager::kRootSlotA] = used[CommitManager::kRootSlotB] = true;
  for (const auto* pages :
       {&reopened.catalog().leaves(), &reopened.catalog().interiors()}) {
    for (const auto& [key, ref] : *pages) {
      for (TrackId t : ref.tracks) used[t] = true;
    }
  }
  for (const auto& [oid, extent] : reopened.catalog().entries()) {
    for (TrackId t : extent.tracks) used[t] = true;
  }
  const auto lowest_free = static_cast<TrackId>(
      std::find(used.begin(), used.end(), false) - used.begin());
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(used.begin(), used.end(), false)),
            reopened.free_track_count());
  GsObject c = MakeEmployee(102, "Ken", 23000, 4);
  ASSERT_TRUE(reopened.CommitObjects({&c}, symbols_).ok());
  EXPECT_EQ(reopened.catalog().Find(Oid(102))->tracks.front(), lowest_free);
}

TEST_F(StorageEngineTest, LargeObjectSpansTracksAndRoundTrips) {
  GsObject big{Oid(500), Oid(7)};
  for (int i = 0; i < 500; ++i) {
    big.AppendIndexed(1, Value::String("padding-padding-" + std::to_string(i)));
  }
  ASSERT_TRUE(engine_.CommitObjects({&big}, symbols_).ok());
  ASSERT_GT(engine_.catalog().Find(Oid(500))->tracks.size(), 1u);
  auto loaded = engine_.LoadObject(Oid(500), &symbols_).ValueOrDie();
  EXPECT_EQ(loaded.IndexedSizeAt(kTimeNow), 500u);
  EXPECT_EQ(*loaded.ReadIndexed(499, kTimeNow),
            Value::String("padding-padding-499"));
}

// The Commit Manager's safe-writing guarantee: a crash anywhere inside the
// commit group leaves the previous state fully intact.
TEST_F(StorageEngineTest, CrashMidCommitPreservesPreviousEpoch) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());

  // Probe every possible crash point within the next commit group.
  for (std::uint64_t crash_after = 0; crash_after < 12; ++crash_after) {
    SimulatedDisk disk(512, 1024);
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Format().ok());
    GsObject base = MakeEmployee(100, "Ellen", 24650, 1);
    ASSERT_TRUE(engine.CommitObjects({&base}, symbols_).ok());

    GsObject update = base;
    update.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(99999));
    GsObject extra = MakeEmployee(101, "Robert", 24000, 5);
    disk.InjectWriteFailureAfter(crash_after);
    Status s = engine.CommitObjects({&update, &extra}, symbols_);
    disk.ClearFault();

    StorageEngine recovered(&disk);
    ASSERT_TRUE(recovered.Open().ok()) << "crash_after=" << crash_after;
    SymbolTable fresh;
    if (s.ok()) {
      // Fault budget exceeded the group: commit completed.
      auto loaded = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
      EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("salary"), kTimeNow),
                Value::Integer(99999));
      EXPECT_TRUE(recovered.Contains(Oid(101)));
    } else {
      // All-or-nothing: previous state intact, new object absent.
      EXPECT_TRUE(s.IsIoError());
      auto loaded = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
      EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("salary"), kTimeNow),
                Value::Integer(24650))
          << "crash_after=" << crash_after;
      EXPECT_FALSE(recovered.Contains(Oid(101)));
    }
  }
}

TEST_F(StorageEngineTest, DeviceFullReported) {
  SimulatedDisk tiny(6, 256);  // 2 roots + barely any data tracks
  StorageEngine engine(&tiny);
  ASSERT_TRUE(engine.Format().ok());
  GsObject big{Oid(1), Oid(7)};
  for (int i = 0; i < 200; ++i) {
    big.AppendIndexed(1, Value::String("xxxxxxxxxxxxxxxx"));
  }
  EXPECT_TRUE(engine.CommitObjects({&big}, symbols_).IsIoError());
  // Failed allocation must not leak tracks.
  GsObject small{Oid(2), Oid(7)};
  small.WriteNamed(symbols_.Intern("x"), 1, Value::Integer(1));
  EXPECT_TRUE(engine.CommitObjects({&small}, symbols_).ok());
}

TEST_F(StorageEngineTest, BatchLoadReadsEachTrackOnce) {
  std::vector<GsObject> objects;
  std::vector<const GsObject*> ptrs;
  std::vector<Oid> oids;
  for (int i = 0; i < 20; ++i) {
    objects.push_back(MakeEmployee(300 + static_cast<unsigned>(i),
                                   "emp" + std::to_string(i), i, 1));
    oids.push_back(Oid(300 + static_cast<unsigned>(i)));
  }
  for (const auto& o : objects) ptrs.push_back(&o);
  ASSERT_TRUE(engine_.CommitObjects(ptrs, symbols_).ok());

  disk_.ResetStats();
  auto loaded = engine_.LoadObjects(oids, &symbols_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(loaded->at(static_cast<std::size_t>(i)).oid(), oids[i]);
    EXPECT_EQ(*loaded->at(static_cast<std::size_t>(i))
                   .ReadNamed(symbols_.Intern("name"), kTimeNow),
              Value::String("emp" + std::to_string(i)));
  }
  // Clustered: far fewer track reads than objects.
  EXPECT_LT(disk_.stats().tracks_read, 20u);

  // Missing oid fails as a whole.
  std::vector<Oid> with_missing = oids;
  with_missing.push_back(Oid(9999));
  EXPECT_EQ(engine_.LoadObjects(with_missing, &symbols_).status().code(),
            StatusCode::kNotFound);
}

// Regression: two small objects share one track; superseding one of them
// must not recycle the track while the other's extent still points at it.
TEST_F(StorageEngineTest, SharedTrackSurvivesNeighborRewrite) {
  GsObject a = MakeEmployee(100, "Ellen", 1, 1);
  GsObject b = MakeEmployee(101, "Robert", 2, 1);
  ASSERT_TRUE(engine_.CommitObjects({&a, &b}, symbols_).ok());
  // Both images landed on the same track.
  ASSERT_EQ(engine_.catalog().Find(Oid(100))->tracks,
            engine_.catalog().Find(Oid(101))->tracks);

  // Rewrite only `a`, several times, forcing track churn.
  for (int i = 0; i < 8; ++i) {
    a.WriteNamed(symbols_.Intern("salary"), 2 + static_cast<TxnTime>(i),
                 Value::Integer(100 + i));
    ASSERT_TRUE(engine_.CommitObjects({&a}, symbols_).ok());
  }

  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  SymbolTable fresh;
  auto loaded_b = recovered.LoadObject(Oid(101), &fresh);
  ASSERT_TRUE(loaded_b.ok()) << loaded_b.status().ToString();
  EXPECT_EQ(*loaded_b->ReadNamed(fresh.Lookup("name"), kTimeNow),
            Value::String("Robert"));
  auto loaded_a = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
  EXPECT_EQ(*loaded_a.ReadNamed(fresh.Lookup("salary"), kTimeNow),
            Value::Integer(107));
}

TEST_F(StorageEngineTest, ClusteredObjectsLandOnAdjacentTracks) {
  std::vector<GsObject> objects;
  std::vector<const GsObject*> ptrs;
  for (int i = 0; i < 32; ++i) {
    objects.push_back(MakeEmployee(200 + i, "emp" + std::to_string(i),
                                   1000 + i, 1));
  }
  for (const auto& o : objects) ptrs.push_back(&o);
  ASSERT_TRUE(engine_.CommitObjects(ptrs, symbols_).ok());
  // All 32 small employees pack into a handful of adjacent tracks.
  TrackId lo = ~TrackId{0}, hi = 0;
  for (int i = 0; i < 32; ++i) {
    const Extent* e = engine_.catalog().Find(Oid(200 + i));
    ASSERT_NE(e, nullptr);
    for (TrackId t : e->tracks) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  EXPECT_LE(hi - lo, 8u);
}

// Regression for Format's contract: recovery over a freshly formatted
// device starts from an empty catalog at epoch 1 (slot B written last),
// so the first commit flips epoch 2 into slot A.
TEST_F(StorageEngineTest, FormatRecoversAtEpochOne) {
  CommitManager manager(&disk_);
  auto root = manager.RecoverRoot();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root->epoch, 1u);
  EXPECT_TRUE(root->pages.empty());
  EXPECT_EQ(engine_.epoch(), 1u);

  GsObject emp = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&emp}, symbols_).ok());
  EXPECT_EQ(engine_.epoch(), 2u);
  EXPECT_EQ(manager.RecoverRoot()->epoch, 2u);
}

// A doomed commit must perform zero I/O: the root-fit check runs before
// any track is written.
TEST_F(StorageEngineTest, OversizedCatalogCommitWritesNothing) {
  CommitManager manager(&disk_);
  const std::uint64_t written_before = disk_.stats().tracks_written;
  RootState root;
  root.epoch = 2;
  for (std::uint64_t key = 0; key * 24 <= disk_.track_capacity(); ++key) {
    root.pages.push_back(PageRef{key, {6}, 1, 0});
  }
  TrackWrites group;
  group.emplace_back(5, std::vector<std::uint8_t>{1, 2, 3});
  Status s = manager.CommitGroup(std::move(group), root);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk_.stats().tracks_written, written_before);
  EXPECT_TRUE(disk_.ReadTrack(5).ValueOrDie().empty());
}

// The dual-root payoff: when a catalog leaf the newest root names fails
// the checksum the root records, Open falls back to the older valid root
// instead of failing.
TEST_F(StorageEngineTest, OpenFallsBackWhenNewestCatalogCorrupt) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());  // epoch 2
  GsObject v2 = v1;
  v2.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(30000));
  GsObject extra = MakeEmployee(101, "Robert", 24000, 5);
  ASSERT_TRUE(engine_.CommitObjects({&v2, &extra}, symbols_).ok());  // 3

  // Bit rot inside the leaf epoch 3 rewrote.
  CommitManager manager(&disk_);
  auto newest = manager.RecoverRoot().ValueOrDie();
  ASSERT_EQ(newest.epoch, 3u);
  ASSERT_FALSE(newest.pages.empty());
  ASSERT_TRUE(disk_.CorruptTrack(newest.pages[0].tracks[0], 0, 0xFF).ok());

  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.epoch(), 2u);  // the older slot's state
  EXPECT_GE(recovered.stats().recovery_fallbacks, 1u);
  SymbolTable fresh;
  auto loaded = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
  EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("salary"), kTimeNow),
            Value::Integer(24650));
  EXPECT_FALSE(recovered.Contains(Oid(101)));
}

// Same fallback when the newest root's leaf is unreadable outright.
TEST_F(StorageEngineTest, OpenFallsBackOnCatalogReadFault) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());
  GsObject v2 = v1;
  v2.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(30000));
  ASSERT_TRUE(engine_.CommitObjects({&v2}, symbols_).ok());

  CommitManager manager(&disk_);
  auto newest = manager.RecoverRoot().ValueOrDie();
  ASSERT_FALSE(newest.pages.empty());
  disk_.InjectReadFault(newest.pages[0].tracks[0]);

  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.epoch(), newest.epoch - 1);
  EXPECT_GE(recovered.stats().recovery_fallbacks, 1u);
  disk_.ClearFault();
}

// LoadObject/LoadObjects corruption paths, driven by the fault hooks.
TEST_F(StorageEngineTest, BitFlippedTrackFailsImageChecksum) {
  GsObject a = MakeEmployee(100, "Ellen", 24650, 1);
  GsObject b = MakeEmployee(101, "Robert", 24000, 1);
  ASSERT_TRUE(engine_.CommitObjects({&a, &b}, symbols_).ok());
  const Extent* extent = engine_.catalog().Find(Oid(100));
  ASSERT_NE(extent, nullptr);
  const TrackId track = extent->tracks[0];
  // Flip the last payload byte: framing stays intact, the image doesn't.
  const std::size_t len = disk_.ReadTrack(track).ValueOrDie().size();
  ASSERT_TRUE(disk_.CorruptTrack(track, len - 1, 0x40).ok());

  EXPECT_EQ(engine_.LoadObject(Oid(101), &symbols_).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(engine_.LoadObjects({Oid(100), Oid(101)}, &symbols_)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(StorageEngineTest, TruncatedTrackYieldsIncompleteImage) {
  GsObject big{Oid(500), Oid(7)};
  for (int i = 0; i < 500; ++i) {
    big.AppendIndexed(1, Value::String("padding-padding-" + std::to_string(i)));
  }
  ASSERT_TRUE(engine_.CommitObjects({&big}, symbols_).ok());
  const Extent* extent = engine_.catalog().Find(Oid(500));
  ASSERT_GT(extent->tracks.size(), 1u);
  // Drop the whole tail track: the image cannot be reassembled.
  ASSERT_TRUE(disk_.TruncateTrack(extent->tracks.back(), 0).ok());

  EXPECT_EQ(engine_.LoadObject(Oid(500), &symbols_).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(engine_.LoadObjects({Oid(500)}, &symbols_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(StorageEngineTest, ReadFaultSurfacesAsIoError) {
  GsObject emp = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&emp}, symbols_).ok());
  const Extent* extent = engine_.catalog().Find(Oid(100));
  disk_.InjectReadFault(extent->tracks[0]);
  EXPECT_TRUE(engine_.LoadObject(Oid(100), &symbols_).status().IsIoError());
  EXPECT_TRUE(
      engine_.LoadObjects({Oid(100)}, &symbols_).status().IsIoError());
  disk_.ClearFault();
  EXPECT_TRUE(engine_.LoadObject(Oid(100), &symbols_).ok());
}

// Tracks the catalog's pages occupy.
std::size_t CatalogTracks(const StorageEngine& engine) {
  std::size_t n = 0;
  for (const auto* pages :
       {&engine.catalog().leaves(), &engine.catalog().interiors()}) {
    for (const auto& [key, ref] : *pages) n += ref.tracks.size();
  }
  return n;
}

// Regression: on gemstone_serve's default 2048-track device, updates of
// distinct small objects once filled the device (each update pinned the
// shared track its old image sat on). A commit now rewrites the tracks it
// vacates, so live tracks stay proportional to live bytes.
TEST_F(StorageEngineTest, UpdateChurnKeepsDefaultDeviceBounded) {
  SimulatedDisk disk(2048, 8192);
  StorageEngine engine(&disk);
  ASSERT_TRUE(engine.Format().ok());
  constexpr std::uint64_t kObjects = 2000;
  const SymbolId v = symbols_.Intern("v");
  std::vector<GsObject> objects;
  std::vector<const GsObject*> group;
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    objects.emplace_back(Oid(1000 + i), Oid(7));
    objects.back().WriteNamed(v, 1, Value::Integer(static_cast<int>(i)));
  }
  for (const GsObject& o : objects) group.push_back(&o);
  ASSERT_TRUE(engine.CommitObjects(group, symbols_).ok());

  for (std::uint64_t c = 0; c < 20000; ++c) {
    GsObject& object = objects[(c * 7919) % kObjects];
    object.WriteNamed(v, 2 + c, Value::Integer(static_cast<int>(c)));
    Status s = engine.CommitObjects({&object}, symbols_);
    ASSERT_TRUE(s.ok()) << "commit " << c << ": " << s.ToString();
  }
  std::uint64_t live_bytes = 0;
  for (const auto& [oid, extent] : engine.catalog().entries()) {
    live_bytes += extent.byte_len;
  }
  const std::size_t live_tracks = disk.num_tracks() - engine.free_track_count();
  EXPECT_LE(live_tracks,
            2 * live_bytes / disk.track_capacity() + CatalogTracks(engine) + 2);

  StorageEngine recovered(&disk);
  ASSERT_TRUE(recovered.Open().ok());
  SymbolTable fresh;
  for (std::uint64_t i = 0; i < kObjects; i += 97) {
    auto loaded = recovered.LoadObject(Oid(1000 + i), &fresh);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded->ReadNamed(fresh.Intern("v"), kTimeNow),
              *objects[i].ReadNamed(v, kTimeNow));
  }
}

// A neighbour carried off a vacated track keeps its image and checksum;
// only the track in its extent changes.
TEST_F(StorageEngineTest, RewriteCarriesNeighboursIntoFreshTrack) {
  GsObject a = MakeEmployee(100, "Ellen", 1, 1);
  GsObject b = MakeEmployee(101, "Robert", 2, 1);
  ASSERT_TRUE(engine_.CommitObjects({&a, &b}, symbols_).ok());
  const Extent before = *engine_.catalog().Find(Oid(101));
  const TrackId old_track = before.tracks[0];

  a.WriteNamed(symbols_.Intern("salary"), 2, Value::Integer(3));
  ASSERT_TRUE(engine_.CommitObjects({&a}, symbols_).ok());
  const Extent after = *engine_.catalog().Find(Oid(101));
  EXPECT_EQ(after.checksum, before.checksum);
  EXPECT_EQ(after.byte_len, before.byte_len);
  EXPECT_NE(after.tracks, before.tracks);
  EXPECT_EQ(after.tracks, engine_.catalog().Find(Oid(100))->tracks);
  // The vacated track is free again.
  const std::size_t free_before = engine_.free_track_count();
  GsObject c = MakeEmployee(102, "Hugh", 3, 3);
  ASSERT_TRUE(engine_.CommitObjects({&c}, symbols_).ok());
  EXPECT_EQ(engine_.catalog().Find(Oid(102))->tracks[0], old_track)
      << "lowest free track is the vacated one";
  EXPECT_LT(engine_.free_track_count(), free_before);
}

// A one-object commit writes its data track, the leaf its extent lives
// on, and the root — however many objects the catalog holds.
TEST_F(StorageEngineTest, OneObjectCommitWritesConstantTracks) {
  for (std::uint64_t count : {1000u, 20000u}) {
    SimulatedDisk disk(16384, 8192);
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Format().ok());
    std::vector<GsObject> objects;
    std::vector<const GsObject*> group;
    for (std::uint64_t i = 0; i < count; ++i) {
      objects.push_back(MakeEmployee(1000 + i, "e", 1, 1));
    }
    for (const GsObject& o : objects) group.push_back(&o);
    ASSERT_TRUE(engine.CommitObjects(group, symbols_).ok());
    GsObject& target = objects[count / 2 + 5];
    target.WriteNamed(symbols_.Intern("salary"), 2, Value::Integer(9));
    const std::uint64_t before = disk.stats().tracks_written;
    ASSERT_TRUE(engine.CommitObjects({&target}, symbols_).ok());
    EXPECT_LE(disk.stats().tracks_written - before, 5u) << count;
  }
}

// Dense oids on 1 KiB tracks: the leaf list outgrows the root track and
// spills to an interior level.
class SpilledCatalogTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kObjects = 4000;

  static GsObject Item(std::uint64_t i, std::int64_t value, TxnTime t,
                       SymbolTable* symbols) {
    GsObject object{Oid(1000 + i), Oid(7)};
    object.WriteNamed(symbols->Intern("v"), t, Value::Integer(value));
    return object;
  }

  // Formats `disk` and commits every item with value = its index.
  static void Build(SimulatedDisk* disk, SymbolTable* symbols) {
    StorageEngine engine(disk);
    ASSERT_TRUE(engine.Format().ok());
    std::vector<GsObject> objects;
    std::vector<const GsObject*> group;
    for (std::uint64_t i = 0; i < kObjects; ++i) {
      objects.push_back(Item(i, static_cast<std::int64_t>(i), 1, symbols));
    }
    for (const GsObject& o : objects) group.push_back(&o);
    ASSERT_TRUE(engine.CommitObjects(group, *symbols).ok());
    ASSERT_EQ(engine.catalog().depth(), 2);
  }

  static void ExpectValue(StorageEngine* engine, std::uint64_t i,
                          std::int64_t value, const std::string& context) {
    SymbolTable fresh;
    auto loaded = engine->LoadObject(Oid(1000 + i), &fresh);
    ASSERT_TRUE(loaded.ok()) << context << ": " << loaded.status().ToString();
    EXPECT_EQ(*loaded->ReadNamed(fresh.Intern("v"), kTimeNow),
              Value::Integer(value))
        << context << " item " << i;
  }
};

TEST_F(SpilledCatalogTest, DepthTwoTreeRoundTripsThroughOpen) {
  SimulatedDisk disk(2048, 1024);
  SymbolTable symbols;
  Build(&disk, &symbols);
  StorageEngine recovered(&disk);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.catalog().depth(), 2);
  EXPECT_FALSE(recovered.catalog().interiors().empty());
  EXPECT_EQ(recovered.catalog().size(), kObjects);
  for (std::uint64_t i = 0; i < kObjects; i += 37) {
    ExpectValue(&recovered, i, static_cast<std::int64_t>(i), "reopened");
  }
  // An update through the reopened tree rewrites one leaf and the
  // interior page above it, and survives another reopen.
  GsObject update = Item(5, 500, 2, &symbols);
  ASSERT_TRUE(recovered.CommitObjects({&update}, symbols).ok());
  StorageEngine again(&disk);
  ASSERT_TRUE(again.Open().ok());
  ExpectValue(&again, 5, 500, "updated");
  ExpectValue(&again, 6, 6, "neighbour");
}

// The crash matrix for a commit that dirties two leaves and the spilled
// interior level: at every write, clean failure or torn, recovery yields
// exactly the old epoch or exactly the new one.
TEST_F(SpilledCatalogTest, CrashAtEveryWriteOfSpilledCommit) {
  const std::uint64_t first = 3, second = 3000;  // different leaves
  auto commit = [&](StorageEngine* engine, SymbolTable* symbols) {
    GsObject a = Item(first, 111, 2, symbols);
    GsObject b = Item(second, 222, 2, symbols);
    return engine->CommitObjects({&a, &b}, *symbols);
  };
  std::uint64_t writes = 0;
  {
    SimulatedDisk disk(2048, 1024);
    SymbolTable symbols;
    Build(&disk, &symbols);
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Open().ok());
    const std::uint64_t before = disk.stats().tracks_written;
    ASSERT_TRUE(commit(&engine, &symbols).ok());
    writes = disk.stats().tracks_written - before;
  }
  ASSERT_GE(writes, 4u);  // data, two leaves, the interior page, the root
  for (bool tear : {false, true}) {
    for (std::uint64_t crash_at = 0; crash_at <= writes; ++crash_at) {
      SimulatedDisk disk(2048, 1024);
      SymbolTable symbols;
      Build(&disk, &symbols);
      StorageEngine engine(&disk);
      ASSERT_TRUE(engine.Open().ok());
      const std::uint64_t old_epoch = engine.epoch();
      if (tear) {
        disk.InjectTornWriteAfter(crash_at, 10);
      } else {
        disk.InjectWriteFailureAfter(crash_at);
      }
      const bool committed = commit(&engine, &symbols).ok();
      disk.ClearFault();
      const std::string context = std::string(tear ? "tear" : "fail") +
                                  " crash_at=" + std::to_string(crash_at);
      EXPECT_EQ(committed, crash_at == writes) << context;

      StorageEngine recovered(&disk);
      ASSERT_TRUE(recovered.Open().ok()) << context;
      EXPECT_EQ(recovered.epoch(), old_epoch + (committed ? 1 : 0))
          << context;
      EXPECT_EQ(recovered.catalog().size(), kObjects) << context;
      ExpectValue(&recovered, first, committed ? 111 : 3, context);
      ExpectValue(&recovered, second, committed ? 222 : 3000, context);
      ExpectValue(&recovered, first + 1, 4, context);
      ExpectValue(&recovered, second + 1, 3001, context);
    }
  }
}

}  // namespace
}  // namespace gemstone::storage
