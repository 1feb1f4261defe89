// Recovery-path cost: StorageEngine::Open over a device with N committed
// epochs (root scan + catalog page reads + free-map rebuild), and the
// same with a catalog leaf of the newest epoch corrupted so Open takes the
// root-slot fallback. Expected shape: Open is O(catalog size), and the
// fallback adds at most one failed catalog read — not a full device scan.

#include <benchmark/benchmark.h>

#include "bench_telemetry.h"

#include "object/object_memory.h"
#include "storage/commit_manager.h"
#include "storage/storage_engine.h"

using namespace gemstone;  // NOLINT

namespace {

// Populates `disk` with `commits` single-object-batch epochs.
void Populate(storage::SimulatedDisk* disk, int commits, int batch) {
  storage::StorageEngine engine(disk);
  if (!engine.Format().ok()) return;
  ObjectMemory memory;
  std::uint64_t base = 1000;
  for (int c = 0; c < commits; ++c) {
    std::vector<GsObject> objects;
    for (int i = 0; i < batch; ++i) {
      GsObject object{Oid(base++), memory.kernel().object};
      object.WriteNamed(memory.symbols().Intern("payload"),
                        static_cast<TxnTime>(c + 1),
                        Value::String(std::string(64, 'x')));
      objects.push_back(std::move(object));
    }
    std::vector<const GsObject*> ptrs;
    for (const auto& o : objects) ptrs.push_back(&o);
    if (!engine.CommitObjects(ptrs, memory.symbols()).ok()) return;
  }
}

void BM_Open(benchmark::State& state) {
  const int commits = static_cast<int>(state.range(0));
  storage::SimulatedDisk disk(65536, 8192);
  Populate(&disk, commits, 16);
  for (auto _ : state) {
    storage::StorageEngine engine(&disk);
    if (!engine.Open().ok()) {
      state.SkipWithError("open failed");
      break;
    }
    benchmark::DoNotOptimize(engine.catalog().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Open)->Arg(1)->Arg(16)->Arg(64);

void BM_OpenWithRootFallback(benchmark::State& state) {
  const int commits = static_cast<int>(state.range(0));
  storage::SimulatedDisk disk(65536, 8192);
  Populate(&disk, commits, 16);
  // Bit rot in the catalog leaf the newest epoch wrote (its objects have
  // the highest oids): every Open falls back to the older root slot.
  storage::CommitManager manager(&disk);
  auto newest = manager.RecoverRoot();
  if (!newest.ok() || newest->pages.empty() ||
      !disk.CorruptTrack(newest->pages.back().tracks[0], 0, 0xFF).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    storage::StorageEngine engine(&disk);
    if (!engine.Open().ok()) {
      state.SkipWithError("fallback open failed");
      break;
    }
    benchmark::DoNotOptimize(engine.epoch());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenWithRootFallback)->Arg(16)->Arg(64);

}  // namespace

GS_BENCH_MAIN("recovery");
