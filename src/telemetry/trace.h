#ifndef GEMSTONE_TELEMETRY_TRACE_H_
#define GEMSTONE_TELEMETRY_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/annotations.h"
#include "core/sync.h"
#include "telemetry/metrics.h"

namespace gemstone::telemetry {

/// What a TraceRecord is: a completed span, or one of the structured
/// events the flight recorder keeps. Event kind names are stable
/// identifiers — the /flightrec dump format is part of the post-mortem
/// contract (DESIGN.md §9).
enum class TraceKind : std::uint8_t {
  kSpan,              // a completed ScopedSpan
  kTxnBegin,          // a = start time
  kTxnCommit,         // a = commit time, b = latency us
  kTxnAbort,          // explicit or failure-path abort; detail = reason
  kTxnConflict,       // validation failure; detail = conflicting access
  kStorageFault,      // device error surfaced; detail = status message
  kRecoveryFallback,  // Open abandoned a root slot; detail = why
  kSlowOp,            // a span ran past kSlowOpNs; a = ns, b = depth,
                      // detail = span name
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

std::string_view TraceKindName(TraceKind kind);

/// One record of a TraceRing: a completed span or an event.
///
/// Records are parent-linked: every live ScopedSpan gets a process-unique
/// `span_id`, and `parent_span_id` is the id of the span that was
/// innermost on the same thread when this span opened or this event was
/// recorded (0 = a root). A drained ring therefore reassembles the exact
/// call tree of one request — across the threads its trace id visited,
/// with its events as leaves — without guessing from depths or
/// timestamps (telemetry/trace_export.h).
struct TraceRecord {
  const char* name = "";  // string literal: span name or TraceKindName
  std::uint64_t seq = 0;  // 1-based within its ring; 0 = empty slot
  std::uint64_t start_ns = 0;  // since process trace epoch (steady clock)
  std::uint64_t duration_ns = 0;     // 0 for events
  std::uint64_t trace_id = 0;        // owning wire request (0 = none bound)
  std::uint64_t span_id = 0;         // spans: process-unique, never 0
  std::uint64_t parent_span_id = 0;  // 0 = root of its thread's tree
  std::uint64_t session = 0;  // events: 0 when not session-scoped
  std::uint64_t a = 0;        // events: kind-specific, see TraceKind
  std::uint64_t b = 0;
  std::uint32_t depth = 0;      // nesting level on the recording thread
  std::uint32_t thread_id = 0;  // small per-thread ordinal (tid in the
                                // Chrome trace-event export)
  TraceKind kind = TraceKind::kSpan;
  std::string detail;  // events only
};

/// Bounded ring of the newest records: when full, the oldest record is
/// overwritten — recording never blocks on readers or grows.
///
/// Concurrency: writers claim a slot with one wait-free fetch_add, then
/// fill it under that slot's own mutex — two writers contend only when
/// the ring wraps onto itself, so the span path takes no process-wide
/// lock. Readers lock each slot briefly while copying.
class TraceRing {
 public:
  /// The process keeps two rings, so span churn never evicts a failure
  /// event. Span overwrites count into `telemetry.dropped_spans`.
  static constexpr std::size_t kSpanCapacity = 4096;
  static constexpr std::size_t kEventCapacity = 1024;
  static TraceRing& Spans();
  static TraceRing& Events();

  /// `overwrites` (optional) counts every record lost to a wrap.
  explicit TraceRing(std::size_t capacity, Counter* overwrites = nullptr);

  /// Stamps `record.seq` and stores it over the oldest slot. A writer
  /// that stalls between the two for a full wrap finds a newer record in
  /// its slot and drops its own, so the ring always keeps the newest.
  void Record(TraceRecord record);

  /// Retained records in sequence order.
  std::vector<TraceRecord> Snapshot() const;

  /// Forgets every record and zeroes the counts; sequence numbering
  /// continues, so snapshots taken across a Clear stay ordered.
  void Clear();

  std::size_t capacity() const { return capacity_; }
  /// Records since the last Clear, including those already overwritten.
  std::uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed) - 1 -
           cleared_seq_.load(std::memory_order_relaxed);
  }
  /// Records overwritten because the ring wrapped, since the last Clear:
  /// consecutive claims fill distinct slots, so every record past the
  /// first `capacity` overwrote one.
  std::uint64_t dropped() const {
    const std::uint64_t recorded = total_recorded();
    return recorded > capacity_ ? recorded - capacity_ : 0;
  }

 private:
  friend class TraceRingTestPeer;  // claims and stores apart
  void Store(TraceRecord record);  // Record after the claim
  struct Slot {
    mutable Mutex mu{LockRank::kTelemetryTrace, "telemetry.trace_slot_mu"};
    TraceRecord record GS_GUARDED_BY(mu);
  };

  const std::size_t capacity_;
  Counter* const overwrites_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> cleared_seq_{0};  // last seq before Clear
  std::unique_ptr<Slot[]> slots_;
};

/// Records one event into TraceRing::Events(), stamped with the time, the
/// bound trace id and the innermost live span, so the event shows inside
/// its request's trace tree. An abort, conflict or storage fault rewrites
/// the auto-dump file when one is armed.
void RecordEvent(TraceKind kind, std::uint64_t session, std::uint64_t a,
                 std::uint64_t b, std::string_view detail);

/// {"capacity":..,"recorded":..,"dropped":..,"events":[{..},..]} over
/// `ring`. `only` keeps one kind (the slow log is kSlowRequest); `limit`
/// keeps the newest matching events (0 = all retained). The /flightrec
/// and /slowlog admin routes pass their `?limit=` through here.
std::string EventsJson(const TraceRing& ring, std::size_t limit = 0,
                       std::optional<TraceKind> only = std::nullopt);

/// Arms automatic dumps: every later abort/conflict/storage-fault event
/// rewrites `path` with EventsJson(TraceRing::Events()), so the file
/// always holds the view at the *last* failure. Empty disarms. The write
/// happens on the recording thread.
void SetAutoDumpPath(std::string path);
std::string AutoDumpPath();

/// RAII span: records wall time from construction to destruction into
/// TraceRing::Spans() (with the thread's current nesting depth) and, when
/// `latency_us` is non-null, observes the duration in microseconds there.
/// A span of at least kSlowOpNs also records a kSlowOp event, which
/// outlives the span ring's churn. Use via TELEM_SPAN, which wires the
/// histogram automatically.
class ScopedSpan {
 public:
  static constexpr std::uint64_t kSlowOpNs = 100'000'000;  // 100 ms

  explicit ScopedSpan(const char* name, Histogram* latency_us = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  Histogram* latency_us_;
  std::uint32_t depth_;
  std::uint64_t span_id_;
  std::uint64_t parent_span_id_;
  std::uint64_t start_ns_;  // TraceNowNs at construction
};

/// Nanoseconds since the process trace epoch (first use of the clock).
std::uint64_t TraceNowNs();

/// The span id of the innermost live ScopedSpan on this thread (0 = none).
/// Lets non-span records (disk I/O attribution, events) point at the span
/// tree node they happened under.
std::uint64_t CurrentSpanId();

/// Small dense ordinal for the calling thread (assigned on first use).
/// Stable for the thread's lifetime; used as the `tid` of exported trace
/// events so Perfetto lays each thread out on its own row.
std::uint32_t CurrentThreadOrdinal();

// --- Request trace context ---------------------------------------------------
//
// The wire layer binds the 64-bit trace id of the request it is serving
// into a thread-local for the duration of dispatch. Everything recorded
// on that thread while the scope is live — spans, events, slow-op
// captures — picks the id up implicitly, so existing call sites need no
// plumbing to become request-attributed.

/// The trace id bound on this thread, or 0 when no request is in scope.
std::uint64_t CurrentTraceId();

/// RAII binding of a trace id to the current thread. Nests: the previous
/// id is restored on destruction, so re-entrant dispatch keeps the
/// innermost (most specific) request attribution.
class TraceContextScope {
 public:
  explicit TraceContextScope(std::uint64_t trace_id);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace gemstone::telemetry

#define GS_TELEM_CONCAT_INNER(a, b) a##b
#define GS_TELEM_CONCAT(a, b) GS_TELEM_CONCAT_INNER(a, b)

/// Opens a scoped trace span named by a string literal. Timings land in
/// the span ring and in the registry histogram `span.<name>`
/// (microseconds), so every instrumented phase gets p50/p95/p99 for free.
///
///   TELEM_SPAN("commit.flip_root");
#define TELEM_SPAN(name)                                                     \
  static ::gemstone::telemetry::Histogram* GS_TELEM_CONCAT(                  \
      gs_telem_hist_, __LINE__) =                                            \
      ::gemstone::telemetry::MetricsRegistry::Global().GetHistogram(         \
          std::string("span.") + (name));                                    \
  ::gemstone::telemetry::ScopedSpan GS_TELEM_CONCAT(gs_telem_span_,          \
                                                    __LINE__)(               \
      (name), GS_TELEM_CONCAT(gs_telem_hist_, __LINE__))

#endif  // GEMSTONE_TELEMETRY_TRACE_H_
