// Trace assembly + Perfetto export (DESIGN.md §14): parent-linked span
// records become trees, trees become Chrome trace-event JSON. The inputs
// are synthetic TraceRecords so the golden output is exact.

#include "telemetry/trace_export.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "telemetry/trace.h"

namespace gemstone::telemetry {
namespace {

TraceRecord MakeSpan(const char* name, std::uint64_t span_id,
                    std::uint64_t parent, std::uint64_t trace_id,
                    std::uint64_t start_ns, std::uint64_t duration_ns,
                    std::uint32_t depth, std::uint32_t thread_id = 1) {
  TraceRecord span;
  span.name = name;
  span.span_id = span_id;
  span.parent_span_id = parent;
  span.trace_id = trace_id;
  span.start_ns = start_ns;
  span.duration_ns = duration_ns;
  span.depth = depth;
  span.thread_id = thread_id;
  return span;
}

// The canonical request shape: net -> executor -> txn -> disk.
std::vector<TraceRecord> RequestSpans() {
  return {
      MakeSpan("net.request", 10, 0, 42, 1000, 9000, 0),
      MakeSpan("executor.execute", 11, 10, 42, 2000, 6000, 1),
      MakeSpan("txn.commit", 12, 11, 42, 3000, 3000, 2),
      MakeSpan("disk.write", 13, 12, 42, 3500, 1000, 3),
      MakeSpan("net.request", 20, 0, 43, 20000, 2000, 0, 2),
  };
}

// Minimal JSON well-formedness scan: balanced {} / [] outside strings,
// terminating at depth zero exactly at the end.
bool JsonBalanced(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') stack.push_back(c);
    else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      const char open = stack.back();
      stack.pop_back();
      if ((c == '}') != (open == '{')) return false;
    }
  }
  return stack.empty() && !in_string;
}

TEST(TraceExportTest, AssembleBuildsTheNestedTreeOfOneTrace) {
  const auto nodes = AssembleTraceTree(RequestSpans(), 42);
  ASSERT_EQ(nodes.size(), 4u);  // trace 43 excluded
  // Start-ordered, so index 0 is the root request span.
  EXPECT_STREQ(nodes[0].span.name, "net.request");
  ASSERT_EQ(nodes[0].children.size(), 1u);
  const auto& executor = nodes[nodes[0].children[0]];
  EXPECT_STREQ(executor.span.name, "executor.execute");
  ASSERT_EQ(executor.children.size(), 1u);
  const auto& txn = nodes[executor.children[0]];
  EXPECT_STREQ(txn.span.name, "txn.commit");
  ASSERT_EQ(txn.children.size(), 1u);
  EXPECT_STREQ(nodes[txn.children[0]].span.name, "disk.write");
}

TEST(TraceExportTest, AssembleWithTraceZeroKeepsEveryTrace) {
  const auto nodes = AssembleTraceTree(RequestSpans(), 0);
  EXPECT_EQ(nodes.size(), 5u);
}

TEST(TraceExportTest, OrphanedParentsBecomeRootsNotDrops) {
  // The parent span rotated out of the ring: only the child survives.
  const std::vector<TraceRecord> spans = {
      MakeSpan("txn.commit", 12, 11, 42, 3000, 3000, 2),
  };
  const auto nodes = AssembleTraceTree(spans, 42);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_TRUE(nodes[0].children.empty());
}

TEST(TraceExportTest, GoldenTraceEventJsonForOneSpan) {
  const std::vector<TraceRecord> spans = {
      MakeSpan("net.request", 10, 0, 42, 1500, 9300, 0),
  };
  // ts/dur are microseconds with one decimal of sub-us precision:
  // 1500 ns -> 1.5 us, 9300 ns -> 9.3 us.
  EXPECT_EQ(TraceEventsJson(spans, 42),
            "{\"traceEvents\":[{\"name\":\"net.request\","
            "\"cat\":\"gemstone\",\"ph\":\"X\",\"ts\":1.5,\"dur\":9.3,"
            "\"pid\":1,\"tid\":1,\"args\":{\"span_id\":10,"
            "\"parent_span_id\":0,\"trace_id\":42,\"depth\":0}}],"
            "\"displayTimeUnit\":\"ns\"}");
}

TEST(TraceExportTest, TraceEventsJsonIsWellFormedAndParentLinked) {
  const std::string json = TraceEventsJson(RequestSpans(), 42);
  EXPECT_TRUE(JsonBalanced(json));
  // Every span of the trace exports; the nesting Perfetto reconstructs
  // from ts/dur is the one the parent links assert.
  EXPECT_NE(json.find("\"name\":\"net.request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"executor.execute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"txn.commit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"disk.write\""), std::string::npos);
  EXPECT_EQ(json.find("\"trace_id\":43"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"span_id\":11,\"parent_span_id\":10"),
            std::string::npos);
  // Children start after their parent opens and end before it closes —
  // the invariant that makes the flame chart nest.
  const auto nodes = AssembleTraceTree(RequestSpans(), 42);
  for (const auto& node : nodes) {
    for (std::size_t child : node.children) {
      const TraceRecord& parent = node.span;
      const TraceRecord& kid = nodes[child].span;
      EXPECT_GE(kid.start_ns, parent.start_ns);
      EXPECT_LE(kid.start_ns + kid.duration_ns,
                parent.start_ns + parent.duration_ns);
    }
  }
}

TEST(TraceExportTest, MaxEventsCapKeepsTheNewestSpans) {
  const std::string json = TraceEventsJson(RequestSpans(), 42, 2);
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_EQ(json.find("\"name\":\"net.request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"txn.commit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"disk.write\""), std::string::npos);
}

TEST(TraceExportTest, TraceIndexGroupsByIdNewestFirst) {
  const std::string json = TraceIndexJson(RequestSpans(), 16);
  EXPECT_TRUE(JsonBalanced(json));
  // Trace 43 started later, so it leads the index.
  const auto pos43 = json.find("{\"id\":43");
  const auto pos42 = json.find("{\"id\":42");
  ASSERT_NE(pos43, std::string::npos);
  ASSERT_NE(pos42, std::string::npos);
  EXPECT_LT(pos43, pos42);
  EXPECT_NE(json.find("\"id\":42,\"spans\":4,\"root\":\"net.request\","
                      "\"start_ns\":1000,\"duration_ns\":9000"),
            std::string::npos);
  EXPECT_NE(json.find("\"total\":2"), std::string::npos);
}

TEST(TraceExportTest, TraceIndexHonorsItsLimitButReportsTheTotal) {
  const std::string json = TraceIndexJson(RequestSpans(), 1);
  EXPECT_NE(json.find("\"id\":43"), std::string::npos);
  EXPECT_EQ(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"total\":2"), std::string::npos);
}

TEST(TraceExportTest, LiveSpansRecordParentLinksEndToEnd) {
  // Drive the real ScopedSpan machinery: nested spans on this thread must
  // come out of the ring parent-linked under the bound trace id.
  TraceRing& buffer = TraceRing::Spans();
  buffer.Clear();
  {
    TraceContextScope trace(777001);
    ScopedSpan outer("net.request");
    {
      ScopedSpan inner("executor.execute");
    }
  }
  const auto nodes = AssembleTraceTree(buffer.Snapshot(), 777001);
  ASSERT_EQ(nodes.size(), 2u);
  // Spans record on close, so the ring holds inner first; the tree is
  // start-ordered with the outer span as the single root.
  EXPECT_STREQ(nodes[0].span.name, "net.request");
  ASSERT_EQ(nodes[0].children.size(), 1u);
  EXPECT_STREQ(nodes[nodes[0].children[0]].span.name, "executor.execute");
  EXPECT_EQ(nodes[0].span.parent_span_id, 0u);
  EXPECT_NE(nodes[0].span.span_id, 0u);
  EXPECT_EQ(nodes[nodes[0].children[0]].span.parent_span_id,
            nodes[0].span.span_id);
}

TEST(TraceExportTest, EventsRecordedInASpanExportAsInstantEventsUnderIt) {
  // An event recorded inside a live span under a bound trace id joins
  // that request's tree: a leaf of the span, rendered as an instant event.
  TraceRing::Spans().Clear();
  TraceRing::Events().Clear();
  std::uint64_t span_id = 0;
  {
    TraceContextScope trace(777002);
    ScopedSpan request("net.request");
    span_id = CurrentSpanId();
    RecordEvent(TraceKind::kTxnCommit, 5, 9, 11, "in request");
  }
  const std::vector<TraceRecord> records = TraceSnapshot();
  const auto nodes = AssembleTraceTree(records, 777002);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_STREQ(nodes[0].span.name, "net.request");
  ASSERT_EQ(nodes[0].children.size(), 1u);
  const TraceRecord& event = nodes[nodes[0].children[0]].span;
  EXPECT_EQ(event.kind, TraceKind::kTxnCommit);
  EXPECT_EQ(event.parent_span_id, span_id);

  const std::string json = TraceEventsJson(records, 777002);
  EXPECT_TRUE(JsonBalanced(json)) << json;
  const auto at = json.find(
      "{\"name\":\"txn_commit\",\"cat\":\"gemstone\",\"ph\":\"i\"");
  ASSERT_NE(at, std::string::npos) << json;
  const std::string instant = json.substr(at, json.find("}}", at) - at);
  EXPECT_EQ(instant.find("\"dur\""), std::string::npos) << instant;
  EXPECT_NE(instant.find("\"parent_span_id\":" + std::to_string(span_id) +
                         ",\"trace_id\":777002"),
            std::string::npos)
      << instant;
  EXPECT_NE(instant.find("\"detail\":\"in request\""), std::string::npos)
      << instant;
  TraceRing::Events().Clear();
}

}  // namespace
}  // namespace gemstone::telemetry
