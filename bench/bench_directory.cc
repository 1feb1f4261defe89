// C4 — associative access through directories (§6). Expected shape:
// sequential scan cost grows linearly with collection size while a
// directory probe stays near-constant, so the crossover arrives early;
// temporal lookups pay only for the postings under the probed key. The
// commit is a directory's one writer, so maintenance costs each commit
// work in proportion to what it changed, not to the collection.

#include <benchmark/benchmark.h>

#include "bench_telemetry.h"

#include "index/directory.h"
#include "txn/session.h"
#include "txn/transaction_manager.h"

using namespace gemstone;  // NOLINT

namespace {

struct Fixture {
  ObjectMemory memory;
  index::DirectoryManager directories{&memory};
  txn::TransactionManager manager{&memory, nullptr, &directories};
  txn::Session session{&manager, 1};
  Oid collection;
  SymbolId dept_sym;
  std::vector<Oid> member_oids;

  explicit Fixture(int members, int distinct_depts) {
    dept_sym = memory.symbols().Intern("dept");
    (void)session.Begin();
    collection = session.Create(memory.kernel().set).ValueOrDie();
    for (int i = 0; i < members; ++i) {
      Oid member = session.Create(memory.kernel().object).ValueOrDie();
      member_oids.push_back(member);
      (void)session.WriteNamed(
          member, dept_sym,
          Value::String("dept" + std::to_string(i % distinct_depts)));
      (void)session.WriteNamed(collection,
                               memory.symbols().GenerateAlias(),
                               Value::Ref(member));
    }
    (void)session.Commit();
    (void)session.Begin();
  }
};

void BM_SequentialScan(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Fixture fixture(members, 50);
  const Value target = Value::String("dept7");
  for (auto _ : state) {
    auto listed =
        fixture.session.ListNamed(fixture.collection).ValueOrDie();
    int hits = 0;
    for (const auto& [name, member] : listed) {
      auto dept =
          fixture.session.ReadNamed(member.ref(), fixture.dept_sym);
      if (dept.ok() && dept.value() == target) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel("members=" + std::to_string(members));
}

void BM_DirectoryProbe(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Fixture fixture(members, 50);
  if (!fixture.directories
           .CreateDirectory(&fixture.session, fixture.collection,
                            {fixture.dept_sym})
           .ok()) {
    state.SkipWithError("directory creation failed");
    return;
  }
  index::Directory* directory =
      fixture.directories.Find(fixture.collection, {fixture.dept_sym});
  const Value target = Value::String("dept7");
  for (auto _ : state) {
    auto hits = directory->Lookup(target, kTimeNow);
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetLabel("members=" + std::to_string(members));
}

void BM_DirectoryRangeProbe(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  ObjectMemory memory;
  index::Directory directory(Oid(1), {memory.symbols().Intern("salary")});
  for (int i = 0; i < members; ++i) {
    directory.Add(static_cast<SymbolId>(i), Value::Integer(i % 10000),
                  Oid(static_cast<unsigned>(100 + i)), 1);
  }
  for (auto _ : state) {
    auto hits = directory.LookupRange(Value::Integer(4000),
                                      Value::Integer(4100), kTimeNow);
    benchmark::DoNotOptimize(hits.size());
  }
}

// Temporal probe over a member whose discriminator changed many times:
// the "two branches" situation of §6.
void BM_TemporalProbeAfterChurn(benchmark::State& state) {
  const int versions = static_cast<int>(state.range(0));
  ObjectMemory memory;
  index::Directory directory(Oid(1), {memory.symbols().Intern("dept")});
  for (int v = 0; v < versions; ++v) {
    directory.Add(1, Value::String("dept" + std::to_string(v % 3)), Oid(100),
                  static_cast<TxnTime>(v + 1));
  }
  const TxnTime mid = static_cast<TxnTime>(versions / 2 + 1);
  const Value key = Value::String("dept" + std::to_string(versions / 2 % 3));
  for (auto _ : state) {
    auto hits = directory.Lookup(key, mid);
    benchmark::DoNotOptimize(hits.size());
  }
  state.counters["postings"] =
      static_cast<double>(directory.posting_count());
}

// Commit-driven maintenance over a 10k-member directory. Work-shape
// gauges for the CI bench gate come from a fixed prefix: 64 commits that
// each change one member's key, then 64 that each add one member. Each
// must cost one directory update whatever the collection's size, and
// the postings stay about one per member. The timed loop is one-member
// key-change commits.
void BM_CommitDrivenMaintenance(benchmark::State& state) {
  constexpr int kMembers = 10000;
  constexpr int kCommits = 64;
  Fixture fixture(kMembers, 50);
  if (!fixture.directories
           .CreateDirectory(&fixture.session, fixture.collection,
                            {fixture.dept_sym})
           .ok()) {
    state.SkipWithError("directory creation failed");
    return;
  }
  index::Directory* directory =
      fixture.directories.Find(fixture.collection, {fixture.dept_sym});
  txn::Session& session = fixture.session;
  auto change_key = [&](int i) {
    const Oid member = fixture.member_oids[static_cast<std::size_t>(
        i * 7919 % kMembers)];
    (void)session.WriteNamed(member, fixture.dept_sym,
                             Value::String("dept" + std::to_string(i % 50)));
    (void)session.Commit();
    (void)session.Begin();
  };
  const std::uint64_t before = directory->stats().updates;
  for (int i = 0; i < kCommits; ++i) change_key(i + 1);
  for (int i = 0; i < kCommits; ++i) {
    Oid member = session.Create(fixture.memory.kernel().object).ValueOrDie();
    (void)session.WriteNamed(member, fixture.dept_sym, Value::String("new"));
    (void)session.WriteNamed(fixture.collection,
                             fixture.memory.symbols().GenerateAlias(),
                             Value::Ref(member));
    (void)session.Commit();
    (void)session.Begin();
  }
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetGauge("directory.bench.updates_per_commit_x1000")
      ->Set(static_cast<std::int64_t>((directory->stats().updates - before) *
                                      1000 / (2 * kCommits)));
  registry.GetGauge("directory.bench.postings_per_member_x1000")
      ->Set(static_cast<std::int64_t>(directory->posting_count() * 1000 /
                                      (kMembers + kCommits)));
  int i = 0;
  for (auto _ : state) change_key(++i);
}

}  // namespace

BENCHMARK(BM_SequentialScan)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DirectoryProbe)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_DirectoryRangeProbe)->Arg(100000);
BENCHMARK(BM_TemporalProbeAfterChurn)->Arg(10)->Arg(1000);
BENCHMARK(BM_CommitDrivenMaintenance)->Unit(benchmark::kMicrosecond);

GS_BENCH_MAIN("directory");
