#ifndef GEMSTONE_TELEMETRY_IO_ATTRIBUTION_H_
#define GEMSTONE_TELEMETRY_IO_ATTRIBUTION_H_

#include <cstdint>

namespace gemstone::telemetry {

/// Per-thread running totals of device work, maintained by the storage
/// layer (SimulatedDisk bumps them alongside its process-wide counters).
/// Consumers — EXPLAIN ANALYZE, the profiler — snapshot the tally before
/// and after an operation and attribute the delta to it. Because the
/// counters are thread-local the attribution is exact for single-threaded
/// work (one query, one commit) with no locking at all.
struct IoTally {
  std::uint64_t tracks_read = 0;
  std::uint64_t tracks_written = 0;
  std::uint64_t seeks = 0;
};

/// This thread's monotonic I/O tally. Never resets; take deltas.
IoTally& ThreadIoTally();

/// True while the calling thread is serving a time-dial read — a view of
/// the past, not of current state. The storage layer reads this flag to
/// classify each track access into the heatmap's current/historical
/// split, which is what lets compaction (DESIGN.md §15) distinguish
/// "hot because the workload lives here" from "hot because someone is
/// auditing last week". A pinned transaction's own reads resolve at its
/// pin, a committed time, but they are current reads, so they do not set
/// the flag.
bool ThreadAccessIsHistorical();

/// RAII: marks the calling thread's storage accesses historical for the
/// scope's lifetime when `historical` is true; false leaves the current
/// classification as it is. The transaction manager holds one over each
/// time-dial read, tier resolves included. Nests; the previous
/// classification is restored.
class HistoricalAccessScope {
 public:
  explicit HistoricalAccessScope(bool historical = true);
  ~HistoricalAccessScope();
  HistoricalAccessScope(const HistoricalAccessScope&) = delete;
  HistoricalAccessScope& operator=(const HistoricalAccessScope&) = delete;

 private:
  bool saved_;
};

/// `after - before`, field-wise.
inline IoTally IoDelta(const IoTally& before, const IoTally& after) {
  IoTally d;
  d.tracks_read = after.tracks_read - before.tracks_read;
  d.tracks_written = after.tracks_written - before.tracks_written;
  d.seeks = after.seeks - before.seeks;
  return d;
}

}  // namespace gemstone::telemetry

#endif  // GEMSTONE_TELEMETRY_IO_ATTRIBUTION_H_
