// Directory stress tests (ctest -L tsan): temporal posting mutation under
// concurrent lookups, the DirectoryManager registry under a create/find
// race (regression for the previously unlocked directory_count()), and
// commit-driven maintenance under pinned probes.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "executor/executor.h"
#include "index/directory.h"
#include "object/object_memory.h"
#include "txn/session.h"
#include "txn/transaction_manager.h"

namespace gemstone::index {
namespace {

// Writers churn disjoint member sets between two keys while readers run
// point and range lookups at a safe past time. The end state is exact:
// every member's final posting carries its thread's terminal key.
TEST(DirectoryStress, MutationUnderConcurrentLookup) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kMembersPerWriter = 40;

  ObjectMemory memory;
  const SymbolId step = memory.symbols().Intern("color");
  Directory directory(Oid(1), {step});

  const Value red = Value::String("red");
  const Value blue = Value::String("blue");

  // Seed every member at key "red" at t=1; readers pin t=1 and must see
  // exactly this state no matter what the writers do at later times.
  std::vector<std::vector<Oid>> members(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kMembersPerWriter; ++i) {
      Oid member(static_cast<std::uint64_t>(w) * 1000 + i + 1);
      members[w].push_back(member);
      directory.Add(static_cast<SymbolId>(member.raw), red, member, /*at=*/1);
    }
  }

  std::atomic<std::uint64_t> clock{2};
  std::barrier start(kWriters + kReaders);
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      for (Oid member : members[w]) {
        // red -> (remove) -> blue; each step at a fresh logical time.
        const auto slot = static_cast<SymbolId>(member.raw);
        directory.Remove(slot, clock.fetch_add(1));
        directory.Add(slot, blue, member, clock.fetch_add(1));
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      while (!done.load(std::memory_order_acquire)) {
        // The past is immutable: at t=1 every member is red.
        if (directory.Lookup(red, 1).size() !=
            static_cast<std::size_t>(kWriters * kMembersPerWriter)) {
          errors.fetch_add(1);
        }
        if (!directory.Lookup(blue, 1).empty()) errors.fetch_add(1);
        // Range over the whole key space at the current instant: every
        // member is somewhere (red, blue, or mid-transition absent), so
        // the count is bounded by the member population.
        std::vector<Oid> range = directory.LookupRange(
            Value::String("a"), Value::String("z"), clock.load());
        if (range.size() > static_cast<std::size_t>(kWriters * kMembersPerWriter)) {
          errors.fetch_add(1);
        }
        (void)directory.posting_count();
        (void)directory.stats();
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  EXPECT_EQ(errors.load(), 0);
  const TxnTime now = clock.load();
  EXPECT_EQ(directory.Lookup(blue, now).size(),
            static_cast<std::size_t>(kWriters * kMembersPerWriter));
  EXPECT_TRUE(directory.Lookup(red, now).empty());
  // Every member contributed exactly two postings (red then blue).
  EXPECT_EQ(directory.posting_count(),
            static_cast<std::size_t>(2 * kWriters * kMembersPerWriter));
}

// DirectoryManager: threads create directories over disjoint collections
// while others poll Find/directory_count. The count was
// previously read without the registry lock — TSan catches any backslide.
TEST(DirectoryStress, ManagerCreateVsFindAndCount) {
  constexpr int kCreators = 3;
  constexpr int kFinders = 2;
  constexpr int kPerCreator = 12;

  ObjectMemory memory;
  DirectoryManager directories(&memory);
  txn::TransactionManager manager(&memory, nullptr, &directories);
  const SymbolId step = memory.symbols().Intern("name");

  // One empty Set per future directory, committed up front.
  std::vector<std::vector<Oid>> collections(kCreators);
  {
    txn::Session setup(&manager, 0);
    ASSERT_TRUE(setup.Begin().ok());
    for (int c = 0; c < kCreators; ++c) {
      for (int i = 0; i < kPerCreator; ++i) {
        auto created = setup.Create(memory.kernel().set);
        ASSERT_TRUE(created.ok());
        collections[c].push_back(created.value());
      }
    }
    ASSERT_TRUE(setup.Commit().ok());
  }

  std::barrier start(kCreators + kFinders);
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;

  for (int c = 0; c < kCreators; ++c) {
    threads.emplace_back([&, c] {
      txn::Session session(&manager, static_cast<SessionId>(c + 1));
      start.arrive_and_wait();
      for (Oid collection : collections[c]) {
        if (!session.Begin().ok() ||
            !directories.CreateDirectory(&session, collection, {step}).ok() ||
            !session.Commit().ok()) {
          errors.fetch_add(1);
          return;
        }
        if (directories.Find(collection, {step}) == nullptr) {
          errors.fetch_add(1);
        }
      }
    });
  }

  for (int f = 0; f < kFinders; ++f) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      std::size_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::size_t count = directories.directory_count();
        if (count < last) errors.fetch_add(1);  // monotonic while creating
        last = count;
        for (int c = 0; c < kCreators; ++c) {
          for (Oid collection : collections[c]) {
            Directory* found = directories.Find(collection, {step});
            if (found != nullptr && found->collection() != collection) {
              errors.fetch_add(1);
            }
          }
        }
      }
    });
  }

  for (int c = 0; c < kCreators; ++c) threads[c].join();
  done.store(true, std::memory_order_release);
  for (int f = 0; f < kFinders; ++f) threads[kCreators + f].join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(directories.directory_count(),
            static_cast<std::size_t>(kCreators * kPerCreator));
}

// Two writer sessions commit membership and key changes while two reader
// sessions, each pinned at a committed time, run selectWhere: (a probe)
// and select: (a scan) at their pin. Both read one snapshot, so they
// agree whatever the writers publish meanwhile.
TEST(DirectoryStress, PinnedProbeMatchesScanUnderCommits) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kRounds = 40;

  executor::Executor executor;
  std::atomic<int> errors{0};
  auto run = [&](SessionId session, const std::string& source) {
    auto result = executor.Execute(session, source);
    if (!result.ok()) {
      ADD_FAILURE() << result.status().ToString() << " in: " << source;
      errors.fetch_add(1);
      return Value::Nil();
    }
    return std::move(result).value();
  };
  const SessionId setup = executor.Login().ValueOrDie();
  run(setup, "Object subclass: 'Part' instVarNames: #('id' 'kind')");
  run(setup,
      "Parts := Set new. Pool := Array new. "
      "1 to: 16 do: [:i | | p id | p := Part new. id := 1. "
      "1 to: i - 1 do: [:j | id := id * 2]. p instVarNamed: 'id' put: id. "
      "p instVarNamed: 'kind' put: 'k' , (i \\\\ 2) printString. "
      "i <= 8 ifTrue: [Parts add: p]. Pool add: p]. "
      "System commitTransaction");
  run(setup, "System createDirectoryOn: Parts path: #('kind')");
  const std::string same =
      "((Parts selectWhere: [:p | p!kind = 'k0']) inject: 0 into: "
      "[:a :p | a + (p!id)]) = ((Parts select: [:p | p!kind = 'k0']) "
      "inject: 0 into: [:a :p | a + (p!id)])";

  std::vector<SessionId> ids;
  for (int i = 0; i < kWriters + kReaders; ++i) {
    ids.push_back(executor.Login().ValueOrDie());
  }
  std::barrier start(kWriters + kReaders);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        const std::string part =
            "(Pool at: " + std::to_string((round * 7 + w * 5) % 16 + 1) + ")";
        const std::string ops[] = {
            "Parts add: " + part,
            "Parts remove: " + part + " ifAbsent: [nil]",
            part + " instVarNamed: 'kind' put: 'k" +
                std::to_string(round % 2) + "'"};
        // A conflict answers false and starts over; both are fine here.
        run(ids[w], ops[(round + w) % 3] + ". System commitTransaction");
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const SessionId id = ids[kWriters + r];
      txn::Session* session = executor.session(id);
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        {
          txn::SnapshotPin pin(session, executor.transactions().SafeTime());
          if (!pin.pinned()) errors.fetch_add(1);
          if (run(id, same) != Value::Boolean(true)) errors.fetch_add(1);
        }
        if (!session->Abort().ok() || !session->Begin().ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  const SessionId check = executor.Login().ValueOrDie();
  EXPECT_EQ(run(check, same), Value::Boolean(true));
}

}  // namespace
}  // namespace gemstone::index
