// Flight-recorder wiring for the crash matrix: when a commit dies on an
// injected device fault, the armed recorder must leave behind a JSON dump
// that names the fault — the post-mortem artifact DESIGN.md §9 promises.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/minijson.h"
#include "object/object_memory.h"
#include "storage/simulated_disk.h"
#include "storage/storage_engine.h"
#include "telemetry/trace.h"

namespace gemstone::storage {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// One small commit against the engine; ok() mirrors the device's mood.
Status CommitOne(StorageEngine* engine, SymbolTable* symbols, std::int64_t v) {
  GsObject object{Oid(500), Oid(7)};
  object.WriteNamed(symbols->Intern("v"), static_cast<TxnTime>(v),
                    Value::Integer(v));
  std::vector<const GsObject*> ptrs = {&object};
  return engine->CommitObjects(ptrs, *symbols);
}

TEST(FlightRecorderCrashTest, AbortedCommitLeavesAParsableDump) {
  const std::string path =
      ::testing::TempDir() + "/flightrec_crash_dump.json";
  std::remove(path.c_str());

  telemetry::TraceRing& recorder = telemetry::TraceRing::Events();
  recorder.Clear();
  telemetry::SetAutoDumpPath(path);

  SimulatedDisk disk(128, 1024);
  StorageEngine engine(&disk);
  ASSERT_TRUE(engine.Format().ok());
  SymbolTable symbols;
  ASSERT_TRUE(CommitOne(&engine, &symbols, 1).ok());
  EXPECT_TRUE(ReadFile(path).empty()) << "healthy commits must not dump";

  // The device dies mid-commit; the engine reports the abort and the
  // recorder self-dumps at the fault.
  disk.InjectWriteFailureAfter(1);
  Status crashed = CommitOne(&engine, &symbols, 2);
  ASSERT_FALSE(crashed.ok());
  disk.ClearFault();

  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty()) << "no auto-dump was produced";
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("\"storage_fault\""), std::string::npos) << body;
  EXPECT_NE(body.find("injected write fault"), std::string::npos) << body;

  telemetry::SetAutoDumpPath("");
  recorder.Clear();
  std::remove(path.c_str());
}

TEST(FlightRecorderCrashTest, TornWriteAndRecoveryFallbackAreRecorded) {
  const std::string path =
      ::testing::TempDir() + "/flightrec_torn_dump.json";
  std::remove(path.c_str());

  telemetry::TraceRing& recorder = telemetry::TraceRing::Events();
  recorder.Clear();
  telemetry::SetAutoDumpPath(path);

  SimulatedDisk disk(128, 1024);
  SymbolTable symbols;
  {
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Format().ok());
    ASSERT_TRUE(CommitOne(&engine, &symbols, 1).ok());
    disk.InjectTornWriteAfter(0, 10);
    ASSERT_FALSE(CommitOne(&engine, &symbols, 2).ok());
    disk.ClearFault();
  }

  // "Crash": reopen over the surviving platters. Whatever path recovery
  // takes, the dump from the torn write is already on disk.
  StorageEngine recovered(&disk);
  ASSERT_TRUE(recovered.Open().ok());
  ASSERT_TRUE(recovered.Contains(Oid(500)));

  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("\"storage_fault\""), std::string::npos) << body;
  EXPECT_NE(body.find("injected torn write"), std::string::npos) << body;

  telemetry::SetAutoDumpPath("");
  recorder.Clear();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gemstone::storage
