// The flight recorder: structured events in the process's event ring
// (TraceRing::Events()), their JSON dump, the failure auto-dump and the
// slow-op capture from spans.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "../support/minijson.h"
#include "telemetry/trace.h"

namespace gemstone::telemetry {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// An event as RecordEvent would build it, for rings other than the
/// process's own.
TraceRecord Event(TraceKind kind, std::uint64_t session,
                  std::string detail = "") {
  TraceRecord event;
  event.kind = kind;
  event.name = TraceKindName(kind).data();
  event.session = session;
  event.detail = std::move(detail);
  return event;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceRing::Events().Clear(); }
  void TearDown() override {
    SetAutoDumpPath("");
    TraceRing::Events().Clear();
  }
};

TEST_F(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_EQ(TraceKindName(TraceKind::kTxnBegin), "txn_begin");
  EXPECT_EQ(TraceKindName(TraceKind::kTxnCommit), "txn_commit");
  EXPECT_EQ(TraceKindName(TraceKind::kTxnAbort), "txn_abort");
  EXPECT_EQ(TraceKindName(TraceKind::kTxnConflict), "txn_conflict");
  EXPECT_EQ(TraceKindName(TraceKind::kStorageFault), "storage_fault");
  EXPECT_EQ(TraceKindName(TraceKind::kRecoveryFallback),
            "recovery_fallback");
  EXPECT_EQ(TraceKindName(TraceKind::kSlowOp), "slow_op");
}

TEST_F(FlightRecorderTest, RecordsInSequenceOrder) {
  RecordEvent(TraceKind::kTxnBegin, 1, 10, 0, "");
  RecordEvent(TraceKind::kTxnCommit, 1, 11, 42, "");
  RecordEvent(TraceKind::kTxnBegin, 2, 12, 0, "second session");

  const auto events = TraceRing::Events().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].seq, events[0].seq + 1);
  EXPECT_EQ(events[2].seq, events[1].seq + 1);
  EXPECT_EQ(events[0].kind, TraceKind::kTxnBegin);
  EXPECT_STREQ(events[0].name, "txn_begin");
  EXPECT_EQ(events[0].session, 1u);
  EXPECT_EQ(events[1].b, 42u);
  EXPECT_EQ(events[2].detail, "second session");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_EQ(TraceRing::Events().total_recorded(), 3u);
}

TEST_F(FlightRecorderTest, RingWrapKeepsNewestEvents) {
  TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ring.Record(Event(TraceKind::kTxnBegin, i));
  }
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 3u);  // 1 and 2 were overwritten
  EXPECT_EQ(events.back().seq, 6u);
  EXPECT_EQ(ring.total_recorded(), 6u);
}

TEST_F(FlightRecorderTest, DumpJsonIsValidAndSelfDescribing) {
  TraceRing ring(4);
  ring.Record(Event(TraceKind::kTxnAbort, 7,
                    "detail with \"quotes\" and \\slashes\\"));
  for (int i = 0; i < 5; ++i) ring.Record(Event(TraceKind::kTxnBegin, 1));
  const std::string json = EventsJson(ring);
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":6"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("txn_begin"), std::string::npos);
}

TEST_F(FlightRecorderTest, DumpToFileWritesTheJson) {
  const std::string path = TempPath("flightrec_dump.json");
  std::remove(path.c_str());
  SetAutoDumpPath(path);
  RecordEvent(TraceKind::kStorageFault, 0, 123456, 1, "bad track");
  const std::string body = ReadFile(path);
  // The file is the event ring's dump with a final newline.
  EXPECT_EQ(body, EventsJson(TraceRing::Events()) + "\n");
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body));
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, FailureEventsAutoDumpWhenArmed) {
  const std::string path = TempPath("flightrec_auto.json");
  std::remove(path.c_str());

  // Not armed: failure events do not write anything.
  RecordEvent(TraceKind::kTxnAbort, 1, 0, 0, "before arming");
  EXPECT_TRUE(ReadFile(path).empty());

  SetAutoDumpPath(path);
  EXPECT_EQ(AutoDumpPath(), path);

  // A benign event still does not dump...
  RecordEvent(TraceKind::kTxnCommit, 1, 5, 9, "");
  EXPECT_TRUE(ReadFile(path).empty());

  // ...but each failure kind rewrites the file with the latest view.
  RecordEvent(TraceKind::kTxnConflict, 2, 0, 0, "w-w on oid 9");
  std::string body = ReadFile(path);
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("txn_conflict"), std::string::npos);

  RecordEvent(TraceKind::kStorageFault, 0, 17, 0, "bad track");
  body = ReadFile(path);
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("storage_fault"), std::string::npos);

  SetAutoDumpPath("");  // disarm
  std::remove(path.c_str());
  RecordEvent(TraceKind::kTxnAbort, 3, 0, 0, "after disarm");
  EXPECT_TRUE(ReadFile(path).empty());
}

TEST_F(FlightRecorderTest, SlowSpansLandInTheGlobalRecorder) {
  {
    ScopedSpan span("flightrec.slow_span_test");
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(ScopedSpan::kSlowOpNs + 1'000'000));
  }
  {
    ScopedSpan span("flightrec.fast_span_test");
  }

  bool found = false;
  for (const auto& event : TraceRing::Events().Snapshot()) {
    EXPECT_NE(event.detail, "flightrec.fast_span_test");
    if (event.kind == TraceKind::kSlowOp &&
        event.detail == "flightrec.slow_span_test") {
      found = true;
      EXPECT_GE(event.a, ScopedSpan::kSlowOpNs);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FlightRecorderTest, EventsCaptureTheBoundTraceContext) {
  RecordEvent(TraceKind::kTxnBegin, 1, 0, 0, "");
  {
    TraceContextScope scope(0xfeedu);
    RecordEvent(TraceKind::kTxnCommit, 1, 2, 3, "");
  }
  const auto events = TraceRing::Events().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[1].trace_id, 0xfeedu);
  EXPECT_NE(EventsJson(TraceRing::Events()).find("\"trace_id\":65261"),
            std::string::npos);
}

TEST_F(FlightRecorderTest, DumpJsonOfKindFiltersToOneKind) {
  RecordEvent(TraceKind::kTxnCommit, 1, 0, 0, "");
  RecordEvent(TraceKind::kSlowRequest, 1, 500, 7, "queue=1us execute=2us");
  RecordEvent(TraceKind::kTxnAbort, 1, 0, 0, "");
  const std::string dump =
      EventsJson(TraceRing::Events(), 0, TraceKind::kSlowRequest);
  EXPECT_NE(dump.find("\"slow_request\""), std::string::npos);
  EXPECT_NE(dump.find("execute=2us"), std::string::npos);
  EXPECT_EQ(dump.find("txn_commit"), std::string::npos);
  EXPECT_EQ(dump.find("txn_abort"), std::string::npos);
}

}  // namespace
}  // namespace gemstone::telemetry
