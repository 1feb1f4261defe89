// End-to-end request tracing over the wire: client-stamped trace ids
// echo back on every reply, server-assigned ids are flagged with the top
// bit, flight-recorder events record the owning request's trace id and
// sit inside its span tree, the slow-request log captures the per-stage
// breakdown, and the statusz page shows live connections with their stage
// histograms.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "admin/authorization.h"
#include "executor/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace gemstone::net {
namespace {

class TraceLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::TraceRing::Events().Clear();
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(&executor_, &auth_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    return client;
  }

  /// Events of `kind` currently retained, oldest first. Flight events for
  /// a request land after its response flushes, so callers may need to
  /// poll briefly.
  std::vector<telemetry::TraceRecord> EventsOfKind(telemetry::TraceKind kind) {
    std::vector<telemetry::TraceRecord> out;
    for (const auto& event : telemetry::TraceRing::Events().Snapshot()) {
      if (event.kind == kind) out.push_back(event);
    }
    return out;
  }

  executor::Executor executor_;
  admin::AuthorizationManager auth_;
  std::unique_ptr<Server> server_;
};

TEST_F(TraceLoopbackTest, ClientStampedTraceIdEchoesOnEveryReply) {
  StartServer();
  Client client = Connected();
  constexpr std::uint64_t kTrace = 0x00c0ffee12345678ull;
  client.set_trace_id(kTrace);

  ASSERT_TRUE(client.Login().ok());
  EXPECT_EQ(client.last_trace_id(), kTrace);
  const std::uint32_t login_seq = client.last_seq();

  EXPECT_EQ(client.Execute("6 * 7").ValueOrDie(), "42");
  EXPECT_EQ(client.last_trace_id(), kTrace);
  EXPECT_EQ(client.last_seq(), login_seq + 1);

  // Error replies echo the trace header too.
  EXPECT_FALSE(client.Execute("1 + ").ok());
  EXPECT_EQ(client.last_trace_id(), kTrace);
  EXPECT_EQ(client.last_seq(), login_seq + 2);
}

TEST_F(TraceLoopbackTest, AutoTraceIdsAreNonZeroClientFlavored) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  const std::uint64_t first = client.last_trace_id();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(first >> 63, 0u);  // top bit is reserved for server-assigned
  EXPECT_EQ(client.Execute("1 + 1").ValueOrDie(), "2");
  // Each request gets a fresh id derived from the connection nonce.
  EXPECT_NE(client.last_trace_id(), first);
  EXPECT_EQ(client.last_trace_id() >> 63, 0u);
}

TEST_F(TraceLoopbackTest, ZeroTraceIdGetsServerAssignedTopBitId) {
  StartServer();
  Client client = Connected();
  // A bare frame with trace id 0 asks the server to assign one; the reply
  // carries the assignment, flagged with the top bit.
  ASSERT_TRUE(
      client.SendRaw(EncodeFrame(MsgType::kExecuteOpal, 0, 9, "1")).ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, MsgType::kError);  // not logged in — still traced
  EXPECT_EQ(frame->seq, 9u);
  EXPECT_NE(frame->trace_id, 0u);
  EXPECT_EQ(frame->trace_id >> 63, 1u);
}

TEST_F(TraceLoopbackTest, FlightRecorderEventsCarryTheWireTraceId) {
  StartServer();
  Client client = Connected();
  constexpr std::uint64_t kTrace = 0x0000feed0000beefull;
  client.set_trace_id(kTrace);
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(client.Execute("T := Object new").ok());
  ASSERT_TRUE(client.Commit().ok());

  // The commit ran inside the request's trace context, so the recorder's
  // kTxnCommit event is tagged with the wire trace id.
  const auto commits = EventsOfKind(telemetry::TraceKind::kTxnCommit);
  ASSERT_FALSE(commits.empty());
  bool tagged = false;
  for (const auto& event : commits) tagged |= event.trace_id == kTrace;
  EXPECT_TRUE(tagged) << "no kTxnCommit event tagged with the wire trace id";
}

TEST_F(TraceLoopbackTest, SlowRequestLogCapturesStageBreakdown) {
  ServerOptions options;
  options.slow_request_us = 1;  // loopback requests all run over 1 µs
  StartServer(options);
  Client client = Connected();
  constexpr std::uint64_t kTrace = 0x0abc0abc0abc0abcull;
  client.set_trace_id(kTrace);
  ASSERT_TRUE(client.Login().ok());
  EXPECT_EQ(client.Execute("2 + 3").ValueOrDie(), "5");

  // Slow-request events land after the response flushes; poll briefly.
  std::vector<telemetry::TraceRecord> slow;
  for (int i = 0; i < 500; ++i) {
    slow = EventsOfKind(telemetry::TraceKind::kSlowRequest);
    bool found = false;
    for (const auto& event : slow) {
      found |= event.trace_id == kTrace &&
               event.detail.find("ExecuteOpal") != std::string::npos;
    }
    if (found) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(slow.empty());
  const telemetry::TraceRecord* execute = nullptr;
  for (const auto& event : slow) {
    if (event.trace_id == kTrace &&
        event.detail.find("ExecuteOpal") != std::string::npos) {
      execute = &event;
    }
  }
  ASSERT_NE(execute, nullptr);
  // The detail is the full stage breakdown.
  for (const char* stage :
       {"queue=", "execute=", "serialize=", "flush=", "tracks_read=",
        "tracks_written="}) {
    EXPECT_NE(execute->detail.find(stage), std::string::npos)
        << "missing stage " << stage << " in: " << execute->detail;
  }

  // The `:slowlog` dump is the same events as JSON.
  const std::string dump = telemetry::EventsJson(
      telemetry::TraceRing::Events(), 0, telemetry::TraceKind::kSlowRequest);
  EXPECT_NE(dump.find("\"slow_request\""), std::string::npos);
  EXPECT_NE(dump.find("execute="), std::string::npos);
}

TEST_F(TraceLoopbackTest, StageHistogramsFlowIntoWireStats) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Execute("1 + 1").ok());
  }
  auto text = client.Stats(kStatsText);
  ASSERT_TRUE(text.ok());
  for (const char* metric :
       {"net.stage.queue_us", "net.stage.execute_us",
        "net.stage.serialize_us", "net.stage.flush_us",
        "net.request_latency_us"}) {
    EXPECT_NE(text.value().find(metric), std::string::npos)
        << "missing " << metric;
  }
}

TEST_F(TraceLoopbackTest, StatuszShowsTheActiveConnection) {
  StartServer();
  Client client = Connected();
  auto session = client.Login();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client.Execute("40 + 2").ok());

  auto statusz = client.Statusz();
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  const std::string& page = statusz.value();
  EXPECT_EQ(page.front(), '{');
  EXPECT_EQ(page.back(), '}');
  // The page names the requester's own connection: logged in, with the
  // session id, currently serializing/flushing this very kStats request.
  EXPECT_NE(page.find("\"connections\":["), std::string::npos) << page;
  EXPECT_NE(page.find("\"logged_in\":true"), std::string::npos) << page;
  EXPECT_NE(page.find("\"session\":" + std::to_string(session.value())),
            std::string::npos)
      << page;
  // Stage accounting and counters are on the page.
  for (const char* key :
       {"\"stages\":", "\"queue_us\":", "\"execute_us\":",
        "\"serialize_us\":", "\"flush_us\":", "\"counters\":",
        "\"uptime_s\":", "\"conflict_hotspots\":"}) {
    EXPECT_NE(page.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(TraceLoopbackTest, StatuszReportsConflictHotspots) {
  StartServer();
  Client alice = Connected();
  Client bob = Connected();
  ASSERT_TRUE(alice.Login().ok());
  ASSERT_TRUE(bob.Login().ok());
  ASSERT_TRUE(alice.Execute("H := Object new. H instVarNamed: 'v' put: 0")
                  .ok());
  ASSERT_TRUE(alice.Commit().ok());
  ASSERT_TRUE(alice.Begin().ok());

  // Manufacture a write-write conflict on H.
  ASSERT_TRUE(alice.Execute("H instVarNamed: 'v' put: 1").ok());
  ASSERT_TRUE(bob.Execute("H instVarNamed: 'v' put: 2").ok());
  ASSERT_TRUE(alice.Commit().ok());
  ASSERT_FALSE(bob.Commit().ok());

  auto statusz = alice.Statusz();
  ASSERT_TRUE(statusz.ok());
  // At least one hotspot entry with a conflict count.
  EXPECT_NE(statusz.value().find("\"conflicts\":"), std::string::npos)
      << statusz.value();
}

TEST_F(TraceLoopbackTest, ConflictEventSitsUnderTheLosersRequestSpan) {
  StartServer();
  Client alice = Connected();
  Client bob = Connected();
  ASSERT_TRUE(alice.Login().ok());
  ASSERT_TRUE(bob.Login().ok());
  ASSERT_TRUE(alice.Execute("H := Object new. H instVarNamed: 'v' put: 0")
                  .ok());
  ASSERT_TRUE(alice.Commit().ok());
  ASSERT_TRUE(alice.Begin().ok());

  // A same-object commit race: alice wins, bob's commit conflicts.
  ASSERT_TRUE(alice.Execute("H instVarNamed: 'v' put: 1").ok());
  ASSERT_TRUE(bob.Execute("H instVarNamed: 'v' put: 2").ok());
  ASSERT_TRUE(alice.Commit().ok());
  constexpr std::uint64_t kLoserTrace = 0x0000dead0000c0deull;
  bob.set_trace_id(kLoserTrace);
  ASSERT_FALSE(bob.Commit().ok());

  const auto conflicts = EventsOfKind(telemetry::TraceKind::kTxnConflict);
  ASSERT_FALSE(conflicts.empty());
  const std::uint64_t trace_id = conflicts.back().trace_id;
  EXPECT_EQ(trace_id, kLoserTrace);

  // What /trace?id= serves: the request's root span closes after its reply
  // flushes, so poll briefly for a net.request root whose subtree holds
  // the conflict event.
  bool under_request = false;
  for (int i = 0; i < 500 && !under_request; ++i) {
    const auto nodes =
        telemetry::AssembleTraceTree(telemetry::TraceSnapshot(), trace_id);
    for (std::size_t root = 0; root < nodes.size(); ++root) {
      if (std::string(nodes[root].span.name) != "net.request") continue;
      std::vector<std::size_t> pending = nodes[root].children;
      while (!pending.empty()) {
        const auto& node = nodes[pending.back()];
        pending.pop_back();
        under_request |= node.span.kind == telemetry::TraceKind::kTxnConflict;
        pending.insert(pending.end(), node.children.begin(),
                       node.children.end());
      }
    }
    if (!under_request) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(under_request)
      << "no txn_conflict event under the loser's net.request span";
  const std::string json =
      telemetry::TraceEventsJson(telemetry::TraceSnapshot(), trace_id);
  EXPECT_NE(json.find("\"name\":\"net.request\",\"cat\":\"gemstone\","
                      "\"ph\":\"X\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"txn_conflict\",\"cat\":\"gemstone\","
                      "\"ph\":\"i\""),
            std::string::npos)
      << json;
}

TEST_F(TraceLoopbackTest, ConcurrentTrafficKeepsTraceEchoesStraight) {
  ServerOptions options;
  options.workers = 4;
  StartServer(options);
  constexpr int kClients = 4;
  constexpr int kRequests = 25;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, t, &failed] {
      Client client;
      if (!client.Connect(server_->port()).ok() || !client.Login().ok()) {
        failed = true;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        const std::uint64_t trace =
            (static_cast<std::uint64_t>(t + 1) << 32) |
            static_cast<std::uint64_t>(i + 1);
        client.set_trace_id(trace);
        auto result = client.Execute("3 * 4");
        if (!result.ok() || result.value() != "12" ||
            client.last_trace_id() != trace) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // RoundTrip itself verifies the sequence echo; a crossed wire would have
  // surfaced as a Corruption status or a mismatched trace id.
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace gemstone::net
