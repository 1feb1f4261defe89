#include "telemetry/trace_export.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "telemetry/export.h"

namespace gemstone::telemetry {

std::vector<TraceRecord> TraceSnapshot() {
  std::vector<TraceRecord> records = TraceRing::Spans().Snapshot();
  const std::vector<TraceRecord> events = TraceRing::Events().Snapshot();
  records.insert(records.end(), events.begin(), events.end());
  return records;
}

namespace {

/// Records of one trace (or all records when trace_id == 0),
/// start-ordered.
std::vector<TraceRecord> FilterSorted(const std::vector<TraceRecord>& spans,
                                      std::uint64_t trace_id) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& span : spans) {
    if (trace_id == 0 || span.trace_id == trace_id) out.push_back(span);
  }
  // span_id tie-break: ids are allocated in open order, so simultaneous
  // starts (coarse clocks) still sort parents before their children.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.start_ns != b.start_ns
                                ? a.start_ns < b.start_ns
                                : a.span_id < b.span_id;
                   });
  return out;
}

void AppendEvent(std::ostringstream& os, const TraceRecord& record,
                 bool first) {
  if (!first) os << ',';
  const bool span = record.kind == TraceKind::kSpan;
  os << "{\"name\":\"" << JsonEscape(record.name)
     << "\",\"cat\":\"gemstone\",\"ph\":\"" << (span ? "X" : "i")
     << "\",\"ts\":" << record.start_ns / 1000 << '.'
     << (record.start_ns % 1000) / 100;
  if (span) {
    os << ",\"dur\":" << record.duration_ns / 1000 << '.'
       << (record.duration_ns % 1000) / 100;
  }
  os << ",\"pid\":1,\"tid\":" << record.thread_id
     << ",\"args\":{\"span_id\":" << record.span_id
     << ",\"parent_span_id\":" << record.parent_span_id
     << ",\"trace_id\":" << record.trace_id << ",\"depth\":" << record.depth;
  if (!span) {
    os << ",\"session\":" << record.session << ",\"a\":" << record.a
       << ",\"b\":" << record.b << ",\"detail\":\""
       << JsonEscape(record.detail) << '"';
  }
  os << "}}";
}

}  // namespace

std::vector<TraceTreeNode> AssembleTraceTree(
    const std::vector<TraceRecord>& spans, std::uint64_t trace_id) {
  const std::vector<TraceRecord> selected = FilterSorted(spans, trace_id);
  std::vector<TraceTreeNode> nodes;
  nodes.reserve(selected.size());
  std::map<std::uint64_t, std::size_t> by_id;
  for (const TraceRecord& record : selected) {
    if (record.kind == TraceKind::kSpan) by_id[record.span_id] = nodes.size();
    nodes.push_back(TraceTreeNode{record, {}});
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint64_t parent = nodes[i].span.parent_span_id;
    if (parent == 0) continue;
    const auto it = by_id.find(parent);
    // A parent that already rotated out of the ring leaves this node a
    // root; the partial subtree still exports.
    if (it != by_id.end() && it->second != i) {
      nodes[it->second].children.push_back(i);
    }
  }
  return nodes;
}

std::string TraceEventsJson(const std::vector<TraceRecord>& spans,
                            std::uint64_t trace_id, std::size_t max_events) {
  std::vector<TraceRecord> selected = FilterSorted(spans, trace_id);
  if (max_events != 0 && selected.size() > max_events) {
    // Keep the newest complete window — the tail is what an operator
    // dumping a live server is after.
    selected.erase(selected.begin(),
                   selected.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < selected.size(); ++i) {
    AppendEvent(os, selected[i], i == 0);
  }
  os << "],\"displayTimeUnit\":\"ns\"}";
  return os.str();
}

std::string TraceIndexJson(const std::vector<TraceRecord>& spans,
                           std::size_t limit) {
  struct Summary {
    std::size_t spans = 0;
    const char* root = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t last_seen = 0;  // newest start in the trace, for ordering
  };
  std::map<std::uint64_t, Summary> by_trace;
  for (const TraceRecord& span : spans) {
    if (span.trace_id == 0) continue;
    Summary& s = by_trace[span.trace_id];
    if (s.spans == 0 || span.start_ns < s.start_ns) s.start_ns = span.start_ns;
    const std::uint64_t end = span.start_ns + span.duration_ns;
    if (end > s.end_ns) s.end_ns = end;
    if (span.start_ns >= s.last_seen) s.last_seen = span.start_ns;
    if (span.depth == 0) s.root = span.name;
    ++s.spans;
  }
  std::vector<std::pair<std::uint64_t, Summary>> ordered(by_trace.begin(),
                                                         by_trace.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.second.last_seen > b.second.last_seen;
            });
  if (limit != 0 && ordered.size() > limit) ordered.resize(limit);
  std::ostringstream os;
  os << "{\"traces\":[";
  bool first = true;
  for (const auto& [id, s] : ordered) {
    if (!first) os << ',';
    first = false;
    os << "{\"id\":" << id << ",\"spans\":" << s.spans << ",\"root\":\""
       << JsonEscape(s.root != nullptr ? s.root : "")
       << "\",\"start_ns\":" << s.start_ns
       << ",\"duration_ns\":" << (s.end_ns - s.start_ns) << "}";
  }
  os << "],\"total\":" << by_trace.size() << "}";
  return os.str();
}

}  // namespace gemstone::telemetry
