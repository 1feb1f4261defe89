// C3 — the Commit Manager's safe group writes (§6): commit cost vs. group
// size. Expected shape: per-commit overhead (the dirty catalog leaves and
// the root flip) is amortized as the group grows — committing N objects
// in one group is far cheaper than N single-object commits.

#include <benchmark/benchmark.h>

#include "bench_telemetry.h"

#include "object/object_memory.h"
#include "storage/storage_engine.h"

using namespace gemstone;  // NOLINT

namespace {

std::vector<GsObject> MakeBatch(ObjectMemory& memory, std::uint64_t base,
                                int n) {
  std::vector<GsObject> batch;
  for (int i = 0; i < n; ++i) {
    GsObject object{Oid(base + static_cast<unsigned>(i)),
                    memory.kernel().object};
    object.WriteNamed(memory.symbols().Intern("payload"), 1,
                      Value::String(std::string(64, 'x')));
    batch.push_back(std::move(object));
  }
  return batch;
}

void BM_GroupCommit(benchmark::State& state) {
  const int group = static_cast<int>(state.range(0));
  storage::SimulatedDisk disk(65536, 8192);
  storage::StorageEngine engine(&disk);
  if (!engine.Format().ok()) return;
  ObjectMemory memory;

  std::uint64_t base = 1000;
  for (auto _ : state) {
    std::vector<GsObject> batch = MakeBatch(memory, base, group);
    base += static_cast<unsigned>(group);
    std::vector<const GsObject*> ptrs;
    for (const auto& o : batch) ptrs.push_back(&o);
    if (!engine.CommitObjects(ptrs, memory.symbols()).ok()) {
      state.SkipWithError("commit failed (device full?)");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * group);
  state.counters["tracks_written_per_object"] =
      static_cast<double>(disk.stats().tracks_written) /
      static_cast<double>(state.iterations() * group);
}

// One object per commit: the degenerate group, maximal overhead.
void BM_SingleObjectCommits(benchmark::State& state) {
  storage::SimulatedDisk disk(65536, 8192);
  storage::StorageEngine engine(&disk);
  if (!engine.Format().ok()) return;
  ObjectMemory memory;

  std::uint64_t oid = 1000;
  for (auto _ : state) {
    GsObject object{Oid(oid++), memory.kernel().object};
    object.WriteNamed(memory.symbols().Intern("payload"), 1,
                      Value::String(std::string(64, 'x')));
    if (!engine.CommitObjects({&object}, memory.symbols()).ok()) {
      state.SkipWithError("commit failed (device full?)");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["tracks_written_per_object"] =
      static_cast<double>(disk.stats().tracks_written) /
      static_cast<double>(state.iterations());
}

// The atomicity machinery itself: root flips are one track write.
void BM_RootFlip(benchmark::State& state) {
  storage::SimulatedDisk disk(64, 8192);
  storage::CommitManager commit_manager(&disk);
  if (!commit_manager.Format().ok()) return;
  storage::RootState root;
  root.epoch = 2;
  for (auto _ : state) {
    Status s = commit_manager.CommitGroup({}, root);
    ++root.epoch;
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
}

// Work-shape gauges for the CI bench gate: a FIXED workload (64 groups
// of 8 objects on a fresh device) whose I/O counts are pure SimulatedDisk
// arithmetic — identical on every host and measuring budget, unlike the
// wall-clock span percentiles. bench_diff fails the run when a gated
// dump's `*.bench.*` metric drifts past tolerance.
void BM_CommitWorkShape(benchmark::State& state) {
  for (auto _ : state) {
    storage::SimulatedDisk disk(65536, 8192);
    storage::StorageEngine engine(&disk);
    if (!engine.Format().ok()) return;
    ObjectMemory memory;
    constexpr int kGroups = 64;
    constexpr int kGroupSize = 8;
    std::uint64_t base = 1000;
    for (int g = 0; g < kGroups; ++g) {
      std::vector<GsObject> batch = MakeBatch(memory, base, kGroupSize);
      base += kGroupSize;
      std::vector<const GsObject*> ptrs;
      for (const auto& o : batch) ptrs.push_back(&o);
      if (!engine.CommitObjects(ptrs, memory.symbols()).ok()) return;
    }
    const storage::DiskStats stats = disk.stats();
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.GetGauge("commit.bench.tracks_per_commit_x1000")
        ->Set(static_cast<std::int64_t>(stats.tracks_written * 1000 /
                                        kGroups));
    registry.GetGauge("commit.bench.seek_distance_per_commit")
        ->Set(static_cast<std::int64_t>(stats.seek_distance / kGroups));
  }
}

// Work-shape gauge: tracks a single-object commit writes over a catalog
// of 1k and of 20k objects, averaged over 64 commits of objects spread
// across the catalog. A commit shadows only its data track, the catalog
// leaves its cluster's extents live on (one, or two when the cluster
// straddles a leaf boundary) and the root, so both read about the same.
// Each rewrite keeps the image's size, so no cluster overflows its track.
void BM_OneObjectCommitTracks(benchmark::State& state) {
  constexpr int kCommits = 64;
  for (auto _ : state) {
    for (int cataloged : {1000, 20000}) {
      storage::SimulatedDisk disk(65536, 8192);
      storage::StorageEngine engine(&disk);
      if (!engine.Format().ok()) return;
      ObjectMemory memory;
      std::vector<GsObject> batch = MakeBatch(memory, 1000, cataloged);
      std::vector<const GsObject*> ptrs;
      for (const auto& o : batch) ptrs.push_back(&o);
      if (!engine.CommitObjects(ptrs, memory.symbols()).ok()) return;
      const std::uint64_t before = disk.stats().tracks_written;
      for (int c = 0; c < kCommits; ++c) {
        GsObject& target =
            batch[static_cast<std::size_t>(c * cataloged / kCommits)];
        target.WriteNamed(memory.symbols().Intern("payload"), 1,
                          Value::String(std::string(64, 'y')));
        if (!engine.CommitObjects({&target}, memory.symbols()).ok()) return;
      }
      telemetry::MetricsRegistry::Global()
          .GetGauge("commit.bench.one_object_tracks_x1000_" +
                    std::to_string(cataloged / 1000) + "k")
          ->Set(static_cast<std::int64_t>(
              (disk.stats().tracks_written - before) * 1000 / kCommits));
    }
  }
}

}  // namespace

BENCHMARK(BM_GroupCommit)->Arg(1)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_SingleObjectCommits);
BENCHMARK(BM_RootFlip);
BENCHMARK(BM_CommitWorkShape)->Iterations(1);
BENCHMARK(BM_OneObjectCommitTracks)->Iterations(1);

GS_BENCH_MAIN("commit");
