#ifndef GEMSTONE_STORAGE_TIER_COMPACTOR_H_
#define GEMSTONE_STORAGE_TIER_COMPACTOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "core/result.h"
#include "storage/tier/history_source.h"
#include "storage/tier/tier_store.h"
#include "telemetry/metrics.h"

namespace gemstone::storage::tier {

/// Policy knobs for the background demotion thread.
struct CompactorOptions {
  /// Wall-clock pause between passes.
  std::uint64_t interval_ms = 500;
  /// An object is a demotion candidate only when at least this many of
  /// its bindings would actually leave the primary store.
  std::uint64_t min_versions = 16;
  /// Objects whose decayed historical-channel heat exceeds this stay
  /// resident — the time dial still visits them (PR 9's heatmap split is
  /// exactly this signal).
  double max_historical_heat = 1.0;
  /// Demotions per pass; bounds how many commit-pipeline publishes a
  /// wakeup makes.
  std::size_t max_objects_per_pass = 8;
};

/// Point-in-time pass statistics for /tiers and tests.
struct CompactorStats {
  std::uint64_t passes = 0;
  std::uint64_t objects_demoted = 0;
  std::uint64_t records_demoted = 0;
  std::uint64_t skipped_hot = 0;
  std::uint64_t errors = 0;
  bool running = false;
};

/// The online compaction driver: a sampler-style background thread (the
/// observatory's Start/Stop lifecycle) that walks heat-ranked demotion
/// candidates, moves their cold history into the TierStore, truncates the
/// resident copies through the HistorySource, and then lets the store
/// rebalance its levels.
///
/// Lock discipline: the thread itself holds only its private lifecycle
/// mutex, which is a raw std::mutex — the thread *waits* on it, and it has
/// no lock-graph neighbors by construction (gs_lint enforces that tier
/// code never touches the executor lattice). All real locking happens
/// inside the callees: the HistorySource takes the txn store lock, the
/// TierStore takes LockRank::kStorageTier.
class TierCompactor {
 public:
  TierCompactor(TierStore* store, HistorySource* source,
                CompactorOptions options = {});
  ~TierCompactor();

  TierCompactor(const TierCompactor&) = delete;
  TierCompactor& operator=(const TierCompactor&) = delete;

  /// Launches the background thread; idempotent, restart-safe.
  void Start();

  /// Stops and joins the thread; idempotent. A pass in flight finishes.
  void Stop();

  bool running() const;

  /// One synchronous demotion pass — the thread body's unit of work,
  /// public so tests and benches drive compaction deterministically.
  /// Returns the number of objects demoted.
  Result<std::size_t> RunOncePass();

  CompactorStats stats() const;
  std::string StatusJson() const;

 private:
  void ThreadMain();

  TierStore* store_;
  HistorySource* source_;
  const CompactorOptions options_;

  // Lifecycle, observatory-style: the sleep is interruptible so Stop()
  // never waits out an interval.
  mutable std::mutex thread_mu_;  // gs_lint: allow(raw-mutex)
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;

  telemetry::Counter passes_;
  telemetry::Counter objects_demoted_;
  telemetry::Counter records_demoted_;
  telemetry::Counter skipped_hot_;
  telemetry::Counter errors_;
  telemetry::Gauge running_gauge_;
  telemetry::Registration telemetry_;  // after the instruments it samples
};

}  // namespace gemstone::storage::tier

#endif  // GEMSTONE_STORAGE_TIER_COMPACTOR_H_
