// Concurrent flight-recorder exercise for the TSan tree: many writer
// threads race event records against snapshot/dump readers on a
// deliberately tiny event ring, so slot reuse (the only writer-writer
// contention point) and reader-writer overlap both happen constantly.
// Nothing clears the ring here, so the end-state counts are exact; the
// interleaving is the test.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/trace.h"

namespace gemstone::telemetry {
namespace {

TEST(FlightRecorderStressTest, RacingWritersAndReadersStayCoherent) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kEventsPerWriter = 2000;

  TraceRing recorder(32);  // tiny: every writer wraps many times

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&recorder, w] {
      const std::string detail = "writer-" + std::to_string(w);
      for (int i = 0; i < kEventsPerWriter; ++i) {
        TraceRecord event;
        event.kind = i % 2 == 0 ? TraceKind::kTxnBegin : TraceKind::kTxnCommit;
        event.name = TraceKindName(event.kind).data();
        event.session = static_cast<std::uint64_t>(w);
        event.a = static_cast<std::uint64_t>(i);
        event.detail = detail;
        recorder.Record(std::move(event));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < 200; ++i) {
        const auto events = recorder.Snapshot();
        // Sequences in any snapshot are strictly increasing.
        std::uint64_t last = 0;
        for (const auto& event : events) {
          EXPECT_GT(event.seq, last);
          last = event.seq;
        }
        EXPECT_LE(events.size(), recorder.capacity());
        (void)EventsJson(recorder);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(recorder.total_recorded(),
            static_cast<std::uint64_t>(kWriters) * kEventsPerWriter);
  EXPECT_EQ(recorder.dropped(),
            recorder.total_recorded() - recorder.capacity());

  // Quiesced: the ring holds `capacity` events with distinct sequence
  // numbers from the recorded range, each internally consistent.
  const auto events = recorder.Snapshot();
  EXPECT_EQ(events.size(), recorder.capacity());
  std::set<std::uint64_t> seqs;
  for (const auto& event : events) {
    EXPECT_TRUE(seqs.insert(event.seq).second);
    EXPECT_LE(event.seq, recorder.total_recorded());
    EXPECT_LT(event.session, static_cast<std::uint64_t>(kWriters));
    EXPECT_EQ(event.detail, "writer-" + std::to_string(event.session));
    EXPECT_EQ(std::string(event.name), TraceKindName(event.kind));
  }
}

}  // namespace
}  // namespace gemstone::telemetry
