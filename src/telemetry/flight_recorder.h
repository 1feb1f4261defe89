#ifndef GEMSTONE_TELEMETRY_FLIGHT_RECORDER_H_
#define GEMSTONE_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/annotations.h"
#include "core/sync.h"

namespace gemstone::telemetry {

/// What happened. Kinds are stable identifiers — the dump format is part
/// of the post-mortem contract (DESIGN.md §9).
enum class FlightEventKind : std::uint8_t {
  kTxnBegin,          // a = start time
  kTxnCommit,         // a = commit time, b = latency us
  kTxnAbort,          // explicit or failure-path abort; detail = reason
  kTxnConflict,       // validation failure; detail = conflicting access
  kStorageFault,      // device error surfaced; detail = status message
  kRecoveryFallback,  // Open abandoned a root slot; detail = why
  kSlowOp,            // a span exceeded the slow-op threshold; a = ns
  kNetConnOpen,       // gateway accepted a connection; a = connection id
  kNetConnClose,      // a = bytes in, b = bytes out; detail = reason
  kSlowRequest,       // a wire request exceeded the slow-request
                      // threshold; a = total us, b = seq; detail = the
                      // per-stage breakdown (queue/execute/serialize/
                      // flush) plus I/O tally
  kArchive,           // object moved to archival media; a = raw oid,
                      // b = image bytes
  kRestore,           // object restored from archival media; a = raw oid,
                      // b = image bytes
  kTierMigration,     // versions demoted to a cold run; a = raw oid,
                      // b = records moved; detail = boundary time
  kTierCompaction,    // cold runs merged downward; a = source level,
                      // b = records merged; detail = destination
};

std::string_view FlightEventKindName(FlightEventKind kind);

/// One structured event. `seq` is a global 1-based sequence number; gaps
/// at the start of a dump mean the ring wrapped and older events were
/// overwritten (the dump reports how many).
struct FlightEvent {
  std::uint64_t seq = 0;
  std::uint64_t ts_ns = 0;  // TraceNowNs at record time
  FlightEventKind kind = FlightEventKind::kTxnBegin;
  std::uint64_t session = 0;   // 0 when not session-scoped
  std::uint64_t trace_id = 0;  // owning wire request (0 = none bound);
                               // filled from the thread-local trace
                               // context at record time
  std::uint64_t a = 0;         // kind-specific, see FlightEventKind
  std::uint64_t b = 0;
  std::string detail;
};

/// The always-on flight recorder: a fixed-size ring of recent structured
/// events that can be dumped as JSON on demand and dumps itself when
/// something goes wrong (abort, conflict, storage fault) if an auto-dump
/// path is armed. Think aviation FDR: cheap enough to leave running,
/// self-describing when the crash matrix bites.
///
/// Concurrency: writers claim a slot with one wait-free fetch_add, then
/// fill it under that slot's own mutex — two writers contend only when
/// the ring wraps onto itself, and never with writers of other slots.
/// Readers lock each slot briefly while copying. TSan-clean by
/// construction (tests/concurrency/flight_recorder_stress_test.cc).
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::uint64_t kDefaultSlowOpNs = 100'000'000;  // 100 ms

  static FlightRecorder& Global();

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void Record(FlightEventKind kind, std::uint64_t session, std::uint64_t a,
              std::uint64_t b, std::string_view detail);

  /// Retained events in sequence order.
  std::vector<FlightEvent> Snapshot() const;

  /// {"capacity":..,"recorded":..,"dropped":..,"events":[{..},..]}.
  /// `limit` keeps only the newest events (0 = all retained); the
  /// /flightrec admin route passes its `?limit=` through here.
  std::string DumpJson(std::size_t limit = 0) const;

  /// DumpJson restricted to one event kind — the `:slowlog` dump is
  /// DumpJsonOfKind(kSlowRequest). `limit` as in DumpJson.
  std::string DumpJsonOfKind(FlightEventKind kind, std::size_t limit = 0)
      const;

  /// Writes DumpJson() to `path` (truncating). Returns false on I/O error
  /// — callers on failure paths cannot do much about it, but tests can.
  bool DumpToFile(const std::string& path) const;

  /// Arms automatic dumps: every subsequent abort/conflict/storage-fault
  /// event rewrites `path` with the current ring contents, so the file
  /// always holds the recorder's view at the *last* failure. Empty
  /// disarms. The write happens on the recording thread.
  void SetAutoDumpPath(std::string path);
  std::string auto_dump_path() const;

  /// Spans at least this long are recorded as kSlowOp events (see
  /// ScopedSpan). 0 disables slow-op capture.
  void set_slow_op_threshold_ns(std::uint64_t ns) {
    slow_op_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t slow_op_threshold_ns() const {
    return slow_op_threshold_ns_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded, including those already overwritten.
  std::uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed) - 1;
  }

  /// Testing hook: forgets every event (sequence numbering continues).
  void ClearForTest();

 private:
  struct Slot {
    mutable Mutex mu{LockRank::kFlightRecorderSlot,
                     "telemetry.flightrec_slot_mu"};
    FlightEvent event GS_GUARDED_BY(mu);  // seq 0 = never written
  };

  const std::size_t capacity_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> slow_op_threshold_ns_{kDefaultSlowOpNs};
  std::unique_ptr<Slot[]> slots_;

  mutable Mutex config_mu_{LockRank::kFlightRecorderConfig,
                           "telemetry.flightrec_config_mu"};
  std::string auto_dump_path_ GS_GUARDED_BY(config_mu_);
};

}  // namespace gemstone::telemetry

#endif  // GEMSTONE_TELEMETRY_FLIGHT_RECORDER_H_
