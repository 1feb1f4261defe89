// The commit pipeline under concurrency (run under ThreadSanitizer: the
// tsan label). A writer validates and stages under store_mu_ shared,
// persists holding no store lock, and takes store_mu_ exclusively only to
// publish; these tests pin down what that buys and what it must not cost:
// readers complete while a commit is parked mid-persist, never see a
// commit before it publishes or one that failed, and a second writer of
// the same object still conflicts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "object/object_memory.h"
#include "storage/archival_store.h"
#include "storage/simulated_disk.h"
#include "storage/storage_engine.h"
#include "storage/tier/compactor.h"
#include "storage/tier/tier_store.h"
#include "txn/transaction_manager.h"

namespace gemstone::txn {
namespace {

using namespace std::chrono_literals;

/// Parks the next track write after Arm() until Release(): a commit
/// stopped mid-persist, with the device lock free.
class WriteParker {
 public:
  explicit WriteParker(storage::SimulatedDisk* disk) : disk_(disk) {
    disk_->SetWriteGate([this](storage::TrackId) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!armed_) return;
      armed_ = false;
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    });
  }
  ~WriteParker() {
    Release();
    disk_->SetWriteGate(nullptr);
  }
  WriteParker(const WriteParker&) = delete;
  WriteParker& operator=(const WriteParker&) = delete;

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    parked_ = false;
    released_ = false;
  }
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, 10s, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  storage::SimulatedDisk* disk_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

/// Reader threads that stop and join when the scope ends, however a
/// failed assertion leaves it.
class Readers {
 public:
  Readers() = default;
  ~Readers() { Stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;
  bool running() const { return !done_.load(std::memory_order_acquire); }
  template <typename Body>
  void Spawn(Body body) {
    threads_.emplace_back(std::move(body));
  }
  void Stop() {
    done_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<bool> done_{false};
  std::vector<std::thread> threads_;
};

/// A disk-backed manager with `n` objects, each bound `x` = 0.
class CommitPipelineTest : public ::testing::Test {
 protected:
  CommitPipelineTest()
      : disk_(1024, 2048), engine_(&disk_), manager_(&memory_, &engine_) {
    EXPECT_TRUE(engine_.Format().ok());
    x_ = memory_.symbols().Intern("x");
  }

  std::vector<Oid> Seed(int n) {
    auto txn = manager_.Begin(0);
    std::vector<Oid> oids;
    for (int i = 0; i < n; ++i) {
      oids.push_back(manager_.CreateObject(txn.get(), memory_.kernel().object)
                         .ValueOrDie());
      EXPECT_TRUE(
          manager_.WriteNamed(txn.get(), oids.back(), x_, Value::Integer(0))
              .ok());
    }
    EXPECT_TRUE(manager_.Commit(txn.get()).ok());
    return oids;
  }

  Status Write(Oid oid, std::int64_t v) {
    auto txn = manager_.Begin(1);
    GS_RETURN_IF_ERROR(manager_.WriteNamed(txn.get(), oid, x_,
                                           Value::Integer(v)));
    return manager_.Commit(txn.get());
  }

  Value ReadAt(Oid oid, TxnTime at) {
    auto txn = manager_.Begin(2);
    Value v = manager_.ReadNamed(txn.get(), oid, x_, at).ValueOrDie();
    EXPECT_TRUE(manager_.Commit(txn.get()).ok());
    return v;
  }

  ObjectMemory memory_;
  storage::SimulatedDisk disk_;
  storage::StorageEngine engine_;
  TransactionManager manager_;
  SymbolId x_ = 0;
};

// Committed history as the writer saw it publish: per object, commit time
// -> value. Readers check every value they read against it.
class HistoryModel {
 public:
  void Record(std::size_t object, TxnTime t, std::int64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    if (history_.size() <= object) history_.resize(object + 1);
    history_[object][t] = v;
    high_water_ = t;
  }
  /// The value `object` held at `t`, once the model covers `t` (the
  /// writer records a commit just after it publishes).
  std::int64_t At(std::size_t object, TxnTime t) {
    std::unique_lock<std::mutex> lock(mu_);
    while (high_water_ < t) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
    const std::map<TxnTime, std::int64_t>& h = history_[object];
    return std::prev(h.upper_bound(t))->second;
  }
  TxnTime high_water() {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  std::mutex mu_;
  std::vector<std::map<TxnTime, std::int64_t>> history_;
  TxnTime high_water_ = 0;
};

// One writer loops disk-backed commits and demotions; snapshot readers
// (pinned at SafeTime) and dial readers (random past times, which heat the
// engine's catalog through NoteHistoricalObjectAccess) check every value
// against the committed history. Seeded, so a failure replays.
TEST_F(CommitPipelineTest, ReadersSeeExactlyCommittedHistory) {
  storage::ArchivalStore archive;
  storage::tier::TierOptions topts;
  topts.cold_levels = 2;
  topts.tracks_per_level = 64;
  topts.track_capacity = 2048;
  topts.runs_per_level = 2;
  storage::tier::TierStore tiers(&memory_.symbols(), &archive, topts);
  ASSERT_TRUE(tiers.Format().ok());
  manager_.AttachTierStore(&tiers);
  storage::tier::CompactorOptions copts;
  copts.min_versions = 4;
  copts.max_historical_heat = 1e18;  // the dial readers heat everything
  storage::tier::TierCompactor compactor(&tiers, &manager_, copts);

  constexpr int kObjects = 6;
  constexpr int kCommits = 240;
  constexpr int kSnapshotReaders = 2;
  constexpr int kDialReaders = 2;
  const std::vector<Oid> oids = Seed(kObjects);
  HistoryModel model;
  for (int i = 0; i < kObjects; ++i) model.Record(i, manager_.Now(), 0);
  const TxnTime origin = manager_.Now();

  std::atomic<std::uint64_t> reads{0};
  Readers readers;
  for (int r = 0; r < kSnapshotReaders + kDialReaders; ++r) {
    const bool dial = r >= kSnapshotReaders;
    readers.Spawn([&, r, dial] {
      std::uint64_t rng = 0x5eed0016ull + 7919 * r;
      while (readers.running()) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t i = (rng >> 33) % kObjects;
        const TxnTime safe = manager_.SafeTime();
        const TxnTime at =
            dial ? origin + (rng >> 40) % (safe - origin + 1) : safe;
        auto txn = manager_.Begin(static_cast<SessionId>(10 + r));
        auto read = manager_.ReadNamed(txn.get(), oids[i], x_, at);
        ASSERT_TRUE(read.ok()) << read.status().ToString();
        EXPECT_EQ(read.value(), Value::Integer(model.At(i, at)))
            << "object " << i << " at t=" << at;
        ASSERT_TRUE(manager_.Commit(txn.get()).ok());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t rng = 0x5eed0016ull;
  std::size_t demoted = 0;
  for (int c = 1; c <= kCommits; ++c) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t i = (rng >> 33) % kObjects;
    ASSERT_TRUE(Write(oids[i], c).ok());
    model.Record(i, manager_.Now(), c);  // the only writer: Now() is ours
    if (c % 20 == 0) {
      auto pass = compactor.RunOncePass();
      ASSERT_TRUE(pass.ok()) << pass.status().ToString();
      demoted += pass.value();
    }
  }
  readers.Stop();

  EXPECT_GT(demoted, 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(manager_.stats().conflicts, 0u);
  // End state: every committed binding answers exactly, across the floor.
  for (int i = 0; i < kObjects; ++i) {
    for (TxnTime t = origin; t <= model.high_water(); ++t) {
      EXPECT_EQ(ReadAt(oids[i], t), Value::Integer(model.At(i, t)))
          << "object " << i << " t=" << t;
    }
  }
}

// A read completes while a commit is parked mid-persist, and sees the
// state before it; once the commit publishes, reads see it.
TEST_F(CommitPipelineTest, ReadCompletesWhileCommitParkedMidPersist) {
  const Oid oid = Seed(1).front();
  const TxnTime before = manager_.Now();
  WriteParker parker(&disk_);
  parker.Arm();
  auto writer = std::async(std::launch::async, [&] { return Write(oid, 1); });
  ASSERT_TRUE(parker.WaitParked());

  auto read = std::async(std::launch::async, [&] {
    auto txn = manager_.Begin(2);
    auto now = manager_.ReadNamed(txn.get(), oid, x_);
    auto pinned = manager_.ReadNamed(txn.get(), oid, x_, manager_.SafeTime());
    Status commit = manager_.Commit(txn.get());
    return now.ok() && pinned.ok() && commit.ok() &&
           now.value() == Value::Integer(0) &&
           pinned.value() == Value::Integer(0);
  });
  const bool completed = read.wait_for(10s) == std::future_status::ready;
  EXPECT_TRUE(completed) << "a read waited out a commit's persist";
  EXPECT_EQ(manager_.SafeTime(), before);
  parker.Release();
  ASSERT_TRUE(writer.get().ok());
  EXPECT_TRUE(read.get());
  EXPECT_EQ(manager_.Now(), before + 1);
  EXPECT_EQ(ReadAt(oid, kTimeNow), Value::Integer(1));
}

// Writers still serialize: a second writer of the object a first one is
// persisting waits its turn, validates against the published commit, and
// conflicts.
TEST_F(CommitPipelineTest, SecondWriterOfObjectMidPersistConflicts) {
  const Oid oid = Seed(1).front();
  auto first = manager_.Begin(1);
  auto second = manager_.Begin(2);
  ASSERT_TRUE(
      manager_.WriteNamed(first.get(), oid, x_, Value::Integer(1)).ok());
  ASSERT_TRUE(
      manager_.WriteNamed(second.get(), oid, x_, Value::Integer(2)).ok());

  WriteParker parker(&disk_);
  parker.Arm();
  auto first_commit = std::async(std::launch::async,
                                 [&] { return manager_.Commit(first.get()); });
  ASSERT_TRUE(parker.WaitParked());
  auto second_commit = std::async(
      std::launch::async, [&] { return manager_.Commit(second.get()); });
  // The second writer cannot finish while the first holds the pipeline.
  EXPECT_EQ(second_commit.wait_for(50ms), std::future_status::timeout);
  parker.Release();
  ASSERT_TRUE(first_commit.get().ok());
  const Status lost = second_commit.get();
  EXPECT_TRUE(lost.IsTransactionConflict()) << lost.ToString();
  EXPECT_EQ(second->state(), TxnState::kAborted);
  EXPECT_EQ(ReadAt(oid, kTimeNow), Value::Integer(1));
  EXPECT_EQ(manager_.stats().conflicts, 1u);
}

// A write fault mid-persist aborts the commit cleanly, and readers running
// beside it — including while it is parked between its first write and
// the failing one — never see its value or a clock that counts it.
TEST_F(CommitPipelineTest, WriteFaultMidPersistIsInvisibleToReaders) {
  const Oid oid = Seed(1).front();
  ASSERT_TRUE(Write(oid, 1).ok());
  const TxnTime before = manager_.Now();
  constexpr std::int64_t kPoison = -1;

  std::atomic<std::uint64_t> reads{0};
  Readers readers;
  for (int r = 0; r < 3; ++r) {
    readers.Spawn([&, r] {
      while (readers.running()) {
        auto txn = manager_.Begin(static_cast<SessionId>(10 + r));
        const TxnTime safe = manager_.SafeTime();
        auto pinned = manager_.ReadNamed(txn.get(), oid, x_, safe);
        auto now = manager_.ReadNamed(txn.get(), oid, x_);
        ASSERT_TRUE(pinned.ok() && now.ok());
        EXPECT_NE(pinned.value(), Value::Integer(kPoison));
        EXPECT_NE(now.value(), Value::Integer(kPoison));
        EXPECT_LE(safe, before + 1);  // only the retry below may publish
        (void)manager_.Commit(txn.get());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  WriteParker parker(&disk_);
  disk_.InjectWriteFailureAfter(1);  // the group's second write fails
  parker.Arm();
  auto doomed = std::async(std::launch::async,
                           [&] { return Write(oid, kPoison); });
  ASSERT_TRUE(parker.WaitParked());
  const std::uint64_t reads_at_park = reads.load();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (reads.load() < reads_at_park + 50 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(reads.load(), reads_at_park + 50)
      << "readers stalled behind a parked persist";
  parker.Release();
  const Status failed = doomed.get();
  EXPECT_TRUE(failed.IsIoError()) << failed.ToString();
  EXPECT_EQ(manager_.Now(), before);
  EXPECT_EQ(manager_.stats().commit_storage_failures, 1u);

  // The retry publishes without a phantom conflict against the failure.
  disk_.ClearFault();
  ASSERT_TRUE(Write(oid, 2).ok());
  readers.Stop();
  EXPECT_EQ(manager_.Now(), before + 1);
  EXPECT_EQ(ReadAt(oid, kTimeNow), Value::Integer(2));
  EXPECT_EQ(ReadAt(oid, before), Value::Integer(1));
}

}  // namespace
}  // namespace gemstone::txn
