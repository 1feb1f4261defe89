#include "telemetry/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "telemetry/export.h"

namespace gemstone::telemetry {

namespace {
thread_local std::uint32_t tls_span_depth = 0;
thread_local std::uint64_t tls_trace_id = 0;
// Innermost live span on this thread — the parent of the next span (or of
// any non-span record, e.g. disk I/O or an event) opened here. 0 = at top
// level.
thread_local std::uint64_t tls_span_id = 0;

// Span ids are process-unique and monotone; 0 is reserved for "no span".
std::atomic<std::uint64_t> next_span_id{1};
// Dense thread ordinals so trace exports get small stable tids instead of
// opaque pthread handles.
std::atomic<std::uint32_t> next_thread_ordinal{1};
thread_local std::uint32_t tls_thread_ordinal = 0;

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

struct AutoDump {
  Mutex mu{LockRank::kTelemetryAutoDump, "telemetry.auto_dump_mu"};
  std::string path GS_GUARDED_BY(mu);
};

AutoDump& AutoDumpState() {
  static AutoDump* state = new AutoDump();  // never dies
  return *state;
}
}  // namespace

std::string_view TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSpan: return "span";
    case TraceKind::kTxnBegin: return "txn_begin";
    case TraceKind::kTxnCommit: return "txn_commit";
    case TraceKind::kTxnAbort: return "txn_abort";
    case TraceKind::kTxnConflict: return "txn_conflict";
    case TraceKind::kStorageFault: return "storage_fault";
    case TraceKind::kRecoveryFallback: return "recovery_fallback";
    case TraceKind::kSlowOp: return "slow_op";
    case TraceKind::kNetConnOpen: return "net_conn_open";
    case TraceKind::kNetConnClose: return "net_conn_close";
    case TraceKind::kSlowRequest: return "slow_request";
    case TraceKind::kArchive: return "archive";
    case TraceKind::kRestore: return "restore";
    case TraceKind::kTierMigration: return "tier_migration";
    case TraceKind::kTierCompaction: return "tier_compaction";
  }
  return "unknown";
}

std::uint64_t CurrentSpanId() { return tls_span_id; }

std::uint32_t CurrentThreadOrdinal() {
  if (tls_thread_ordinal == 0) {
    tls_thread_ordinal =
        next_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_ordinal;
}

std::uint64_t TraceNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

std::uint64_t CurrentTraceId() { return tls_trace_id; }

TraceContextScope::TraceContextScope(std::uint64_t trace_id)
    : saved_(tls_trace_id) {
  tls_trace_id = trace_id;
}

TraceContextScope::~TraceContextScope() { tls_trace_id = saved_; }

TraceRing& TraceRing::Spans() {
  static TraceRing* ring = new TraceRing(  // never dies
      kSpanCapacity,
      MetricsRegistry::Global().GetCounter("telemetry.dropped_spans"));
  return *ring;
}

TraceRing& TraceRing::Events() {
  static TraceRing* ring = new TraceRing(kEventCapacity);  // never dies
  return *ring;
}

TraceRing::TraceRing(std::size_t capacity, Counter* overwrites)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      overwrites_(overwrites),
      slots_(new Slot[capacity_]) {}

void TraceRing::Record(TraceRecord record) {
  record.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Store(std::move(record));
}

void TraceRing::Store(TraceRecord record) {
  Slot& slot = slots_[record.seq % capacity_];
  bool lost = false;  // one of the slot's record and this one
  {
    MutexLock lock(slot.mu);
    lost = slot.record.seq != 0;
    if (slot.record.seq < record.seq) slot.record = std::move(record);
  }
  if (lost && overwrites_ != nullptr) overwrites_->Increment();
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    MutexLock lock(slot.mu);
    if (slot.record.seq != 0) out.push_back(slot.record);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

void TraceRing::Clear() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    MutexLock lock(slot.mu);
    slot.record = TraceRecord{};
  }
  cleared_seq_.store(next_seq_.load(std::memory_order_relaxed) - 1,
                     std::memory_order_relaxed);
}

void RecordEvent(TraceKind kind, std::uint64_t session, std::uint64_t a,
                 std::uint64_t b, std::string_view detail) {
  TraceRecord event;
  event.name = TraceKindName(kind).data();
  event.kind = kind;
  event.start_ns = TraceNowNs();
  // Request attribution for free: whatever wire request and span this
  // thread is currently serving (0 when recording outside any).
  event.trace_id = tls_trace_id;
  event.parent_span_id = tls_span_id;
  event.depth = tls_span_depth;
  event.thread_id = CurrentThreadOrdinal();
  event.session = session;
  event.a = a;
  event.b = b;
  event.detail.assign(detail);
  TraceRing::Events().Record(std::move(event));
  // Registry view of the event flow (exporters pick this up for free).
  static Counter* recorded =
      MetricsRegistry::Global().GetCounter("flightrec.events");
  recorded->Increment();
  if (kind != TraceKind::kTxnAbort && kind != TraceKind::kTxnConflict &&
      kind != TraceKind::kStorageFault) {
    return;
  }
  const std::string path = AutoDumpPath();
  if (path.empty()) return;
  static Counter* dumps =
      MetricsRegistry::Global().GetCounter("flightrec.auto_dumps");
  dumps->Increment();
  // Best effort: a failure path cannot do much about a failed write.
  std::ofstream(path, std::ios::trunc) << EventsJson(TraceRing::Events())
                                       << "\n";
}

std::string EventsJson(const TraceRing& ring, std::size_t limit,
                       std::optional<TraceKind> only) {
  std::vector<TraceRecord> events = ring.Snapshot();
  if (only) std::erase_if(events, [&](auto& e) { return e.kind != *only; });
  // Keep the newest `limit` (Snapshot is sequence-ordered).
  if (limit != 0 && events.size() > limit) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::ostringstream out;
  out << "{\"capacity\":" << ring.capacity()
      << ",\"recorded\":" << ring.total_recorded()
      << ",\"dropped\":" << ring.dropped() << ",\"events\":[";
  for (const TraceRecord& event : events) {
    if (&event != &events.front()) out << ",";
    out << "{\"seq\":" << event.seq << ",\"ts_ns\":" << event.start_ns
        << ",\"kind\":\"" << TraceKindName(event.kind)
        << "\",\"session\":" << event.session
        << ",\"trace_id\":" << event.trace_id << ",\"a\":" << event.a
        << ",\"b\":" << event.b << ",\"detail\":\""
        << JsonEscape(event.detail) << "\"}";
  }
  out << "]}";
  return out.str();
}

void SetAutoDumpPath(std::string path) {
  AutoDump& state = AutoDumpState();
  MutexLock lock(state.mu);
  state.path = std::move(path);
}

std::string AutoDumpPath() {
  AutoDump& state = AutoDumpState();
  MutexLock lock(state.mu);
  return state.path;
}

ScopedSpan::ScopedSpan(const char* name, Histogram* latency_us)
    : name_(name),
      latency_us_(latency_us),
      depth_(tls_span_depth++),
      span_id_(next_span_id.fetch_add(1, std::memory_order_relaxed)),
      parent_span_id_(tls_span_id),
      // TraceNowNs (not a raw clock read) so the very first span pins the
      // trace epoch and still gets a well-ordered start.
      start_ns_(TraceNowNs()) {
  tls_span_id = span_id_;
}

ScopedSpan::~ScopedSpan() {
  const std::uint64_t end_ns = TraceNowNs();
  --tls_span_depth;
  tls_span_id = parent_span_id_;
  const std::uint64_t duration_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  TraceRecord span;
  span.name = name_;
  span.depth = depth_;
  span.trace_id = tls_trace_id;
  span.span_id = span_id_;
  span.parent_span_id = parent_span_id_;
  span.thread_id = CurrentThreadOrdinal();
  span.start_ns = start_ns_;
  span.duration_ns = duration_ns;
  TraceRing::Spans().Record(std::move(span));
  if (latency_us_ != nullptr) latency_us_->Observe(duration_ns / 1000);
  if (duration_ns >= kSlowOpNs) {
    RecordEvent(TraceKind::kSlowOp, 0, duration_ns, depth_, name_);
  }
}

}  // namespace gemstone::telemetry
