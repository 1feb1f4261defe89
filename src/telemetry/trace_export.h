#ifndef GEMSTONE_TELEMETRY_TRACE_EXPORT_H_
#define GEMSTONE_TELEMETRY_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace gemstone::telemetry {

/// Assembly + export of the parent-linked records in TraceRing snapshots.
/// The output format is Chrome trace-event JSON ("X" complete events for
/// spans, "i" instant events for events), which chrome://tracing and
/// ui.perfetto.dev load directly, so one dumped request opens as a flame
/// chart with net -> executor -> txn -> disk spans nested exactly as they
/// ran and its events marked where they happened.

/// The span ring's snapshot followed by the event ring's: every record a
/// request's trace tree can draw from.
std::vector<TraceRecord> TraceSnapshot();

/// One node of an assembled trace tree. `children` are indices into the
/// vector AssembleTraceTree returned, ordered by start time; events are
/// leaves.
struct TraceTreeNode {
  TraceRecord span;
  std::vector<std::size_t> children;
};

/// Records of `trace_id` (every record when `trace_id` is 0) as a
/// parent-linked forest, ordered by start time. A node whose recorded
/// parent fell out of the ring (or finished before the ring was drained)
/// becomes a root rather than being dropped — partial trees still render.
std::vector<TraceTreeNode> AssembleTraceTree(
    const std::vector<TraceRecord>& spans, std::uint64_t trace_id);

/// Chrome trace-event JSON for `trace_id` (all records when 0):
/// {"traceEvents":[{"name","cat","ph":"X","ts","dur","pid","tid","args":
/// {"span_id","parent_span_id","trace_id"}},...],"displayTimeUnit":"ns"}.
/// An event renders as an instant event ("ph":"i", no "dur", span_id 0)
/// whose args add its session, a, b and detail. `ts`/`dur` are
/// microseconds since the process trace epoch, `tid` is the recording
/// thread's dense ordinal. `max_events` caps output size (0 = no cap);
/// newest events win when the cap bites.
std::string TraceEventsJson(const std::vector<TraceRecord>& spans,
                            std::uint64_t trace_id,
                            std::size_t max_events = 0);

/// Bounded index of the distinct trace ids in `spans`, newest first:
/// {"traces":[{"id","spans","root","start_ns","duration_ns"},...]}.
/// `root` is the name of the id's outermost span (depth 0) when the ring
/// still holds it. Untraced spans (id 0) are excluded.
std::string TraceIndexJson(const std::vector<TraceRecord>& spans,
                           std::size_t limit);

}  // namespace gemstone::telemetry

#endif  // GEMSTONE_TELEMETRY_TRACE_EXPORT_H_
