#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

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

TEST(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnBegin), "txn_begin");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnCommit), "txn_commit");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnAbort), "txn_abort");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnConflict),
            "txn_conflict");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kStorageFault),
            "storage_fault");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kRecoveryFallback),
            "recovery_fallback");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kSlowOp), "slow_op");
}

TEST(FlightRecorderTest, RecordsInSequenceOrder) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kTxnBegin, 1, 10, 0, "");
  recorder.Record(FlightEventKind::kTxnCommit, 1, 11, 42, "");
  recorder.Record(FlightEventKind::kTxnBegin, 2, 12, 0, "second session");

  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kTxnBegin);
  EXPECT_EQ(events[0].session, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].b, 42u);
  EXPECT_EQ(events[2].detail, "second session");
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(recorder.total_recorded(), 3u);
}

TEST(FlightRecorderTest, RingWrapKeepsNewestEvents) {
  FlightRecorder recorder(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    recorder.Record(FlightEventKind::kTxnBegin, i, 0, 0, "");
  }
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 3u);  // 1 and 2 were overwritten
  EXPECT_EQ(events.back().seq, 6u);
  EXPECT_EQ(recorder.total_recorded(), 6u);
}

TEST(FlightRecorderTest, DumpJsonIsValidAndSelfDescribing) {
  FlightRecorder recorder(4);
  recorder.Record(FlightEventKind::kTxnAbort, 7, 0, 0,
                  "detail with \"quotes\" and \\slashes\\");
  for (int i = 0; i < 5; ++i) {
    recorder.Record(FlightEventKind::kTxnBegin, 1, 0, 0, "");
  }
  const std::string json = recorder.DumpJson();
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":6"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("txn_begin"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFileWritesTheJson) {
  const std::string path = TempPath("flightrec_dump.json");
  std::remove(path.c_str());
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kSlowOp, 0, 123456, 1, "commit.publish");
  ASSERT_TRUE(recorder.DumpToFile(path));
  const std::string body = ReadFile(path);
  EXPECT_EQ(body, recorder.DumpJson() + "\n");  // file gets a final newline
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, FailureEventsAutoDumpWhenArmed) {
  const std::string path = TempPath("flightrec_auto.json");
  std::remove(path.c_str());
  FlightRecorder recorder(8);

  // Not armed: failure events do not write anything.
  recorder.Record(FlightEventKind::kTxnAbort, 1, 0, 0, "before arming");
  EXPECT_TRUE(ReadFile(path).empty());

  recorder.SetAutoDumpPath(path);
  EXPECT_EQ(recorder.auto_dump_path(), path);

  // A benign event still does not dump...
  recorder.Record(FlightEventKind::kTxnCommit, 1, 5, 9, "");
  EXPECT_TRUE(ReadFile(path).empty());

  // ...but each failure kind rewrites the file with the latest view.
  recorder.Record(FlightEventKind::kTxnConflict, 2, 0, 0, "w-w on oid 9");
  std::string body = ReadFile(path);
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("txn_conflict"), std::string::npos);

  recorder.Record(FlightEventKind::kStorageFault, 0, 17, 0, "bad track");
  body = ReadFile(path);
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("storage_fault"), std::string::npos);

  recorder.SetAutoDumpPath("");  // disarm
  std::remove(path.c_str());
  recorder.Record(FlightEventKind::kTxnAbort, 3, 0, 0, "after disarm");
  EXPECT_TRUE(ReadFile(path).empty());
}

TEST(FlightRecorderTest, SlowSpansLandInTheGlobalRecorder) {
  FlightRecorder& global = FlightRecorder::Global();
  const std::uint64_t saved = global.slow_op_threshold_ns();
  global.ClearForTest();
  global.set_slow_op_threshold_ns(1);  // everything is slow now
  {
    ScopedSpan span("flightrec.slow_span_test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  global.set_slow_op_threshold_ns(saved);

  bool found = false;
  for (const auto& event : global.Snapshot()) {
    if (event.kind == FlightEventKind::kSlowOp &&
        event.detail == "flightrec.slow_span_test") {
      found = true;
      EXPECT_GE(event.a, 1000000u);  // at least the 1 ms sleep
    }
  }
  EXPECT_TRUE(found);
  global.ClearForTest();
}

TEST(FlightRecorderTest, ThresholdZeroDisablesSlowOpCapture) {
  FlightRecorder& global = FlightRecorder::Global();
  const std::uint64_t saved = global.slow_op_threshold_ns();
  global.ClearForTest();
  global.set_slow_op_threshold_ns(0);
  {
    ScopedSpan span("flightrec.never_slow");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  global.set_slow_op_threshold_ns(saved);
  for (const auto& event : global.Snapshot()) {
    EXPECT_NE(event.detail, "flightrec.never_slow");
  }
  global.ClearForTest();
}

TEST(FlightRecorderTest, EventsCaptureTheBoundTraceContext) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kTxnBegin, 1, 0, 0, "");
  {
    TraceContextScope scope(0xfeedu);
    recorder.Record(FlightEventKind::kTxnCommit, 1, 2, 3, "");
  }
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[1].trace_id, 0xfeedu);
  EXPECT_NE(recorder.DumpJson().find("\"trace_id\":65261"),
            std::string::npos);
}

TEST(FlightRecorderTest, DumpJsonOfKindFiltersToOneKind) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kTxnCommit, 1, 0, 0, "");
  recorder.Record(FlightEventKind::kSlowRequest, 1, 500, 7,
                  "queue=1us execute=2us");
  recorder.Record(FlightEventKind::kTxnAbort, 1, 0, 0, "");
  const std::string dump =
      recorder.DumpJsonOfKind(FlightEventKind::kSlowRequest);
  EXPECT_NE(dump.find("\"slow_request\""), std::string::npos);
  EXPECT_NE(dump.find("execute=2us"), std::string::npos);
  EXPECT_EQ(dump.find("txn_commit"), std::string::npos);
  EXPECT_EQ(dump.find("txn_abort"), std::string::npos);
}

}  // namespace
}  // namespace gemstone::telemetry
