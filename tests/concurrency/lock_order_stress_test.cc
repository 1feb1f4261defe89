// Lock-order validator under contention (ctest -L tsan): a 90/10
// read-mix workload over a mutex constellation shaped like the real
// gateway lattice (DESIGN.md §13). Every thread takes locks in contract
// order, so the observed-acquisition graph must stay acyclic and the
// violation counter must stay zero — under ThreadSanitizer this also
// proves the validator's own bookkeeping (thread-local stacks, relaxed
// atomic edge matrix) is race-free.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/lock_rank.h"
#include "core/sync.h"

static_assert(GS_LOCK_ORDER_VALIDATION == 1,
              "lock_order_stress_test must build with the validator enabled");

namespace gemstone {
namespace {

TEST(LockOrderStressTest, ReadMixKeepsAcquisitionGraphAcyclic) {
  lock_order::ResetGraphForTest();

  // The production lattice in miniature, ranked exactly as src/ declares.
  Mutex conn_table{LockRank::kNetConnTable, "stress.conn_table"};
  Mutex conn{LockRank::kNetConnection, "stress.conn"};
  Mutex commit{LockRank::kTxnCommit, "stress.commit"};
  SharedMutex store{LockRank::kTxnStore, "stress.store"};
  Mutex memory{LockRank::kObjectMemory, "stress.memory"};
  Mutex metrics{LockRank::kTelemetryMetrics, "stress.metrics"};

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  std::uint64_t shared_counter = 0;  // guarded by store (exclusive)

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Cheap deterministic PRNG; Date-free and per-thread.
      std::uint32_t state = 0x9e3779b9u * static_cast<std::uint32_t>(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        state = state * 1664525u + 1013904223u;
        if ((state >> 24) < 230) {
          // ~90%: the snapshot read path — store shared, then inward.
          ReaderMutexLock r(store);
          MutexLock m(memory);
          MutexLock stats(metrics);
          reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          // ~10%: the write path — every rank in lattice order, with a
          // commit's commit_mu_ -> store_mu_ (exclusive) chain inside.
          MutexLock table(conn_table);
          MutexLock c(conn);
          MutexLock pipeline(commit);
          WriterMutexLock w(store);
          MutexLock m(memory);
          ++shared_counter;
          MutexLock stats(metrics);
          writes.fetch_add(1, std::memory_order_relaxed);
        }
        // Each thread ends every op with nothing held.
        ASSERT_EQ(lock_order::HeldCount(), 0u);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reads.load() + writes.load(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GT(reads.load(), writes.load());  // it really was read-heavy
  EXPECT_EQ(shared_counter, writes.load());

  // The contract held: no violation fired (a firing would have aborted),
  // and the union of every thread's observed order is still a DAG.
  EXPECT_EQ(lock_order::ViolationCount(), 0u);
  std::string cycle;
  EXPECT_TRUE(lock_order::GraphIsAcyclic(&cycle)) << "cycle: " << cycle;
  // Edges observed: at minimum the read chain (store->memory->metrics)
  // and the write chain links.
  EXPECT_GE(lock_order::EdgeCount(), 5u);
}

}  // namespace
}  // namespace gemstone
