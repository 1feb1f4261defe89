// Gateway dispatch tests (DESIGN.md §12): requests of different
// connections run side by side under no gateway lock. Queries complete
// while a writer is busy executing; two writers execute at once and meet
// only at commit validation; a query on a fresh transaction is pinned and
// runs once even when it writes, its reads still validated at commit; and
// a connection that dies mid-request still gets its session (and
// uncommitted transaction) torn down.
//
// Runs in the `tsan` tree: the whole point is concurrent execution of
// reads and writes against mutating sessions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "../stdm/acme_fixture.h"
#include "admin/authorization.h"
#include "executor/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "stdm/gsdm_bridge.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gemstone::net {
namespace {

/// "key":value out of a flat JSON page; 0 when absent.
std::uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

class ReadPathTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(&executor_, &auth_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    return client;
  }

  /// Polls /statusz until `pred(json)` or the deadline; answers the last
  /// page either way.
  std::string WaitForStatus(Client* monitor,
                            bool (*pred)(const std::string&)) {
    std::string page;
    for (int i = 0; i < 2000; ++i) {
      page = monitor->Statusz().ValueOrDie();
      if (pred(page)) return page;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return page;
  }

  executor::Executor executor_;
  admin::AuthorizationManager auth_;
  std::unique_ptr<Server> server_;
};

constexpr const char* kOpalExecuting =
    "\"stage\":\"execute\",\"type\":\"ExecuteOpal\"";

/// An ExecuteOpal request is in its execute stage somewhere on the page.
bool OpalExecuting(const std::string& json) {
  return json.find(kOpalExecuting) != std::string::npos;
}

/// Two connections' ExecuteOpal requests are in their execute stage at
/// the moment the page was rendered.
bool TwoOpalsExecuting(const std::string& json) {
  const auto first = json.find(kOpalExecuting);
  return first != std::string::npos &&
         json.find(kOpalExecuting, first + 1) != std::string::npos;
}

TEST_F(ReadPathTest, ReadsDoNotBlockBehindAStalledWriter) {
  StartServer();

  // Seed a committed object for the readers.
  Client setup = Connected();
  ASSERT_TRUE(setup.Login().ok());
  ASSERT_TRUE(
      setup.Execute("Box := Object new. Box instVarNamed: 'v' put: 41")
          .ok());
  ASSERT_TRUE(setup.Commit().ok());
  setup.Close();

  // The writer records a write first (so its queries run unpinned), then
  // runs a long mutating loop.
  Client writer = Connected();
  ASSERT_TRUE(writer.Login().ok());
  ASSERT_TRUE(writer.Execute("W := Object new").ok());
  std::atomic<bool> writer_done{false};
  std::thread writer_thread([&] {
    auto slow = writer.Execute(
        "1 to: 500000 do: [:i | W instVarNamed: 'v' put: i]. 'done'");
    writer_done.store(true, std::memory_order_release);
    EXPECT_TRUE(slow.ok()) << slow.status().ToString();
  });

  // Gate on the writer actually being inside its execute stage.
  Client monitor = Connected();
  std::string page = WaitForStatus(&monitor, OpalExecuting);
  ASSERT_TRUE(OpalExecuting(page)) << page;

  // Reads complete while the writer is still executing. If they queued
  // behind it this would deadline out instead.
  Client reader = Connected();
  ASSERT_TRUE(reader.Login().ok());
  for (int i = 0; i < 10; ++i) {
    auto value = reader.Execute("Box instVarNamed: 'v'");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(value.value(), "41");
  }

  page = monitor.Statusz().ValueOrDie();
  if (!writer_done.load(std::memory_order_acquire)) {
    // The reads overlapped the writer's execution and were served on a
    // snapshot pin.
    EXPECT_TRUE(OpalExecuting(page)) << page;
  }
  EXPECT_GE(JsonCounter(page, "read_path_requests"), 10u) << page;

  writer_thread.join();
  ASSERT_TRUE(writer.Commit().ok());

  // The committed write is visible to a fresh read afterwards.
  EXPECT_EQ(reader.Execute("W instVarNamed: 'v'").ValueOrDie(), "500000");
}

/// The process-wide count of interpreted bytecodes.
std::uint64_t Bytecodes() {
  return telemetry::MetricsRegistry::Global()
      .Snapshot()
      .counters["opal.bytecodes"];
}

TEST_F(ReadPathTest, WritingRequestExecutesOnce) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(client.Execute("Obj := Object new").ok());
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_TRUE(client.Begin().ok());

  // The same loop on a fresh transaction, first read-only, then ending in
  // a write: the write runs in place under the pin, so the request is
  // interpreted once, not once pinned and again unpinned.
  const std::string loop = "| s | s := 0. 1 to: 5000 do: [:i | s := s + i]. ";
  std::uint64_t before = Bytecodes();
  ASSERT_EQ(client.Execute(loop + "s").ValueOrDie(), "12502500");
  const std::uint64_t reading = Bytecodes() - before;
  before = Bytecodes();
  ASSERT_TRUE(client.Execute(loop + "Obj instVarNamed: 'n' put: s").ok());
  const std::uint64_t writing = Bytecodes() - before;
  EXPECT_LT(writing * 2, reading * 3) << writing << " vs " << reading;

  ASSERT_TRUE(client.Commit().ok());
  ASSERT_TRUE(client.Begin().ok());
  EXPECT_EQ(client.Execute("Obj instVarNamed: 'n'").ValueOrDie(),
            "12502500");
}

TEST_F(ReadPathTest, CommitInsidePinnedRequestRunsOnce) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(client.Execute("Obj := Object new").ok());
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_TRUE(client.Begin().ok());

  const auto begin_events = [] {
    std::uint64_t n = 0;
    for (const auto& event : telemetry::TraceRing::Events().Snapshot()) {
      if (event.kind == telemetry::TraceKind::kTxnBegin) ++n;
    }
    return n;
  };
  const txn::TxnStats before = executor_.transactions().stats();
  const std::uint64_t begins_before = begin_events();
  ASSERT_TRUE(client
                  .Execute("System commitTransaction. "
                           "Obj instVarNamed: 'n' put: 8")
                  .ok());
  const txn::TxnStats after = executor_.transactions().stats();
  EXPECT_EQ(after.committed, before.committed + 1);
  EXPECT_EQ(after.begun, before.begun + 1);
  EXPECT_EQ(begin_events(), begins_before + 1);

  // The transaction the commit begins is unpinned: the request's later
  // reads see its own commit.
  EXPECT_EQ(client
                .Execute("Obj instVarNamed: 'n' put: 7. "
                         "System commitTransaction. Obj instVarNamed: 'n'")
                .ValueOrDie(),
            "7");
}

TEST_F(ReadPathTest, PinnedRequestReadsStillValidate) {
  StartServer();
  Client setup = Connected();
  ASSERT_TRUE(setup.Login().ok());
  ASSERT_TRUE(setup
                  .Execute("X := Object new. X instVarNamed: 'v' put: 1. "
                           "Y := Object new. Y instVarNamed: 'v' put: 1")
                  .ok());
  ASSERT_TRUE(setup.Commit().ok());
  ASSERT_TRUE(setup.Begin().ok());

  // A pinned request reads X and writes Y...
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(
      client.Execute("Y instVarNamed: 'v' put: (X instVarNamed: 'v') + 1")
          .ok());
  // ...then another session commits X: the read is stale.
  ASSERT_TRUE(setup.Execute("X instVarNamed: 'v' put: 5").ok());
  ASSERT_TRUE(setup.Commit().ok());

  const Result<std::uint64_t> commit = client.Commit();
  ASSERT_FALSE(commit.ok());
  EXPECT_TRUE(commit.status().IsTransactionConflict())
      << commit.status().ToString();
}

TEST_F(ReadPathTest, FreshTransactionStartsAtItsFirstRequest) {
  StartServer();
  Client setup = Connected();
  ASSERT_TRUE(setup.Login().ok());
  ASSERT_TRUE(setup.Execute("X := Object new. X instVarNamed: 'v' put: 1")
                  .ok());
  ASSERT_TRUE(setup.Commit().ok());
  ASSERT_TRUE(setup.Begin().ok());

  // The client's transaction begins, and only then does another session
  // commit X. The client saw nothing before that commit: its pinned
  // request starts it after the commit, so its write does not conflict.
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(setup.Execute("X instVarNamed: 'v' put: 2").ok());
  ASSERT_TRUE(setup.Commit().ok());
  ASSERT_TRUE(client.Execute("X instVarNamed: 'v' put: 3").ok());
  const Result<std::uint64_t> commit = client.Commit();
  EXPECT_TRUE(commit.ok()) << commit.status().ToString();
}

TEST_F(ReadPathTest, LaterRequestsKeepTheFirstRequestsStart) {
  StartServer();
  Client setup = Connected();
  ASSERT_TRUE(setup.Login().ok());
  ASSERT_TRUE(setup.Execute("X := Object new. X instVarNamed: 'v' put: 1")
                  .ok());
  ASSERT_TRUE(setup.Commit().ok());
  ASSERT_TRUE(setup.Begin().ok());

  // A read-only request reads X; its read set is dropped when it ends.
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_EQ(client.Execute("X instVarNamed: 'v'").ValueOrDie(), "1");
  // Another session commits X, and then the client writes X from what it
  // read: the later pin leaves the transaction's start at the first, so
  // the update the client never saw is not silently overwritten.
  ASSERT_TRUE(setup.Execute("X instVarNamed: 'v' put: 2").ok());
  ASSERT_TRUE(setup.Commit().ok());
  ASSERT_TRUE(client.Execute("X instVarNamed: 'v' put: 11").ok());
  const Result<std::uint64_t> commit = client.Commit();
  ASSERT_FALSE(commit.ok());
  EXPECT_TRUE(commit.status().IsTransactionConflict())
      << commit.status().ToString();
}

TEST_F(ReadPathTest, TwoWritersExecuteAtOnce) {
  StartServer();

  Client setup = Connected();
  ASSERT_TRUE(setup.Login().ok());
  ASSERT_TRUE(setup.Execute("Shared := Object new. "
                            "Shared instVarNamed: 'v' put: 0. "
                            "Object subclass: 'Gadget' instVarNames: #('n'). "
                            "Gadget compileMethod: 'n ^n'. "
                            "Gadget compileMethod: 'n: x n := x'")
                  .ok());
  ASSERT_TRUE(setup.Commit().ok());

  // Each writer records a write first, so its queries run unpinned.
  Client a = Connected();
  Client b = Connected();
  ASSERT_TRUE(a.Login().ok());
  ASSERT_TRUE(b.Login().ok());
  ASSERT_TRUE(a.Execute("WA := Object new").ok());
  ASSERT_TRUE(b.Execute("WB := Object new").ok());

  const auto loop = [](Client* client, const char* target) {
    auto result = client->Execute(std::string("1 to: 200000 do: [:i | ") +
                                  target +
                                  " instVarNamed: 'v' put: i]. 'done'");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  };
  std::thread ta(loop, &a, "WA");
  std::thread tb(loop, &b, "WB");
  // Both writers are inside their execute stage at the same moment: no
  // gateway lock makes the second wait for the first.
  Client monitor = Connected();
  const std::string page = WaitForStatus(&monitor, TwoOpalsExecuting);
  ta.join();
  tb.join();
  ASSERT_TRUE(TwoOpalsExecuting(page)) << page;

  // Disjoint objects: both commits succeed.
  ASSERT_TRUE(a.Commit().ok());
  ASSERT_TRUE(b.Commit().ok());
  ASSERT_TRUE(monitor.Login().ok());
  EXPECT_EQ(monitor.Execute("WA instVarNamed: 'v'").ValueOrDie(), "200000");
  EXPECT_EQ(monitor.Execute("WB instVarNamed: 'v'").ValueOrDie(), "200000");

  // The same object: both write it concurrently, then commit at once.
  // Exactly one commit wins; the other gets a conflict error frame and
  // its connection keeps working.
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(b.Begin().ok());
  std::thread sa(loop, &a, "Shared");
  std::thread sb(loop, &b, "Shared");
  sa.join();
  sb.join();
  Result<std::uint64_t> commit_a = Status::Internal("not run");
  Result<std::uint64_t> commit_b = Status::Internal("not run");
  std::thread ca([&] { commit_a = a.Commit(); });
  std::thread cb([&] { commit_b = b.Commit(); });
  ca.join();
  cb.join();
  EXPECT_NE(commit_a.ok(), commit_b.ok())
      << commit_a.status().ToString() << " / " << commit_b.status().ToString();
  Client& loser = commit_a.ok() ? b : a;
  const Status lost = commit_a.ok() ? commit_b.status() : commit_a.status();
  EXPECT_TRUE(lost.IsTransactionConflict()) << lost.ToString();
  ASSERT_TRUE(loser.Begin().ok());
  EXPECT_EQ(loser.Execute("Shared instVarNamed: 'v'").ValueOrDie(), "200000");

  // Schema mutation on one connection while another creates instances of
  // the class and sends to them, including the methods being recompiled.
  Client schema = Connected();
  Client user = Connected();
  ASSERT_TRUE(schema.Login().ok());
  ASSERT_TRUE(user.Login().ok());
  constexpr int kRounds = 20;
  std::thread mutator([&] {
    for (int i = 0; i < kRounds; ++i) {
      const std::string n = std::to_string(i);
      for (const std::string& block :
           {"Gadget subclass: 'Gadget" + n + "' instVarNames: #()",
            std::string("Gadget compileMethod: 'n: x n := x'"),
            "Gadget addInstVarName: 'extra" + n + "'"}) {
        auto result = schema.Execute(block);
        EXPECT_TRUE(result.ok()) << block << ": " << result.status().ToString();
      }
    }
  });
  std::thread sender([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto result = user.Execute(
          "| g sum | sum := 0. 1 to: 2000 do: [:i | g := Gadget new. "
          "g n: i. sum := sum + g n]. sum");
      EXPECT_EQ(result.ok() ? result.value() : result.status().ToString(),
                "2001000");
    }
  });
  mutator.join();
  sender.join();
  EXPECT_EQ(user.Execute("Gadget19 superclass name").ValueOrDie(),
            "'Gadget'");
  EXPECT_EQ(user.Execute("| g | g := Gadget19 new. g instVarNamed: 'extra19' "
                         "put: 3. g n: 4. g n + (g instVarNamed: 'extra19')")
                .ValueOrDie(),
            "7");
}

class StdmReadPathTest : public ReadPathTest {
 protected:
  /// The paper's Acme database behind the global X, committed before the
  /// gateway starts.
  void SetUp() override {
    SessionId session = executor_.Login().ValueOrDie();
    Value acme = stdm::ImportStdm(executor_.session(session),
                                  &executor_.memory(),
                                  stdm::BuildAcmeDatabase())
                     .ValueOrDie();
    executor_.globals().Set(executor_.memory().symbols().Intern("X"), acme);
    ASSERT_TRUE(executor_.session(session)->Commit().ok());
    ASSERT_TRUE(executor_.Logout(session).ok());
    StartServer();
  }
};

TEST_F(StdmReadPathTest, StdmAndExplainRunOnTheReadPath) {
  Client reader = Connected();
  ASSERT_TRUE(reader.Login().ok());
  Client monitor = Connected();
  const std::uint64_t before =
      JsonCounter(monitor.Statusz().ValueOrDie(), "read_path_requests");

  auto rows = reader.Stdm(
      "{{E: e} where (e in X!Employees) [(e!Salary > 24,500)]}");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_NE(rows.value().find("Burns"), std::string::npos) << rows.value();
  auto plan = reader.Explain(
      "{{E: e} where (e in X!Employees) [(e!Salary > 24,500)]}", true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const std::uint64_t after =
      JsonCounter(monitor.Statusz().ValueOrDie(), "read_path_requests");
  EXPECT_GE(after, before + 2) << "STDM/EXPLAIN bypassed the read path";
}

TEST_F(ReadPathTest, DisconnectMidRequestAbortsTheTransaction) {
  StartServer();

  Client doomed = Connected();
  ASSERT_TRUE(doomed.Login().ok());
  // An uncommitted write, so teardown must abort a real transaction.
  ASSERT_TRUE(
      doomed.Execute("Ghost := Object new. Ghost instVarNamed: 'v' put: 1")
          .ok());
  const std::size_t before = executor_.active_sessions();
  ASSERT_GE(before, 1u);

  // Fire a request and slam the connection before the reply: the worker
  // finds the connection dead, and the reaper logs the session out.
  const std::string frame =
      EncodeFrame(MsgType::kExecuteOpal, "1 to: 100000 do: [:i | i]");
  ASSERT_TRUE(doomed.SendRaw(frame).ok());
  doomed.Close();

  for (int i = 0; i < 2000 && executor_.active_sessions() >= before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(executor_.active_sessions(), before);

  // The aborted transaction's object never published: the global binding
  // survives (globals are not transactional), but the object behind it
  // does not exist in the committed state.
  Client checker = Connected();
  ASSERT_TRUE(checker.Login().ok());
  auto ghost = checker.Execute("Ghost instVarNamed: 'v'");
  EXPECT_FALSE(ghost.ok()) << ghost.value();
}

}  // namespace
}  // namespace gemstone::net
