// Telemetry stress tests (ctest -L tsan): recording is designed to be
// lock-free on the hot path (the trace rings take only a per-slot lock)
// and must stay race-free against concurrent Snapshot/export and
// collector registration churn.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gemstone::telemetry {
namespace {

// Writers hammer counters/gauges/histograms while exporters snapshot and
// render. Totals are exact after the writers join. Metric names are
// unique to this test so runs against the process-global registry do not
// interfere with other suites in the binary.
TEST(TelemetryStress, RecordingVsSnapshotAndExport) {
  constexpr int kWriters = 4;
  constexpr int kExporters = 2;
  constexpr int kIterations = 400;

  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("stress.telemetry.ops");
  Gauge* gauge = registry.GetGauge("stress.telemetry.inflight");
  Histogram* histogram = registry.GetHistogram("stress.telemetry.latency");
  const std::uint64_t base = counter->value();

  std::barrier start(kWriters + kExporters);
  std::atomic<bool> done{false};
  std::atomic<int> exporter_errors{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        counter->Increment();
        gauge->Add(1);
        histogram->Observe(static_cast<std::uint64_t>(w * kIterations + i));
        gauge->Add(-1);
      }
    });
  }

  for (int e = 0; e < kExporters; ++e) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      while (!done.load(std::memory_order_acquire)) {
        Snapshot snap = registry.Snapshot();
        // Exercise every renderer; a torn snapshot or dangling name
        // surfaces here (under TSan) or as garbage output.
        if (ToText(snap).empty() || ToJson(snap).empty() ||
            ToPrometheus(snap).empty()) {
          exporter_errors.fetch_add(1);
        }
        auto it = snap.counters.find("stress.telemetry.ops");
        if (it != snap.counters.end() &&
            it->second > base + kWriters * kIterations) {
          exporter_errors.fetch_add(1);
        }
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (int e = 0; e < kExporters; ++e) threads[kWriters + e].join();

  EXPECT_EQ(exporter_errors.load(), 0);
  Snapshot final = registry.Snapshot();
  EXPECT_EQ(final.counters.at("stress.telemetry.ops"),
            base + kWriters * kIterations);
  EXPECT_EQ(final.gauges.at("stress.telemetry.inflight"), 0);
  EXPECT_GE(final.histograms.at("stress.telemetry.latency").count,
            static_cast<std::uint64_t>(kWriters * kIterations));
}

// Collector registration churn vs concurrent Snapshot. Each short-lived
// component owns a counter plus a Registration; destruction folds the
// final samples into the registry's retained totals, so the grand total
// after the churn is exact even though every collector is gone.
TEST(TelemetryStress, CollectorChurnPreservesRetiredTotals) {
  constexpr int kThreads = 4;
  constexpr int kComponentsPerThread = 40;
  constexpr std::uint64_t kPerComponent = 25;

  MetricsRegistry& registry = MetricsRegistry::Global();
  std::uint64_t base = 0;
  {
    Snapshot snap = registry.Snapshot();
    auto it = snap.counters.find("stress.telemetry.retired");
    if (it != snap.counters.end()) base = it->second;
  }

  std::barrier start(kThreads + 1);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int c = 0; c < kComponentsPerThread; ++c) {
        Counter local;
        Registration registration = registry.Register([&local](SampleSink* sink) {
          sink->Counter("stress.telemetry.retired", local.value());
        });
        for (std::uint64_t i = 0; i < kPerComponent; ++i) local.Increment();
        // Registration destructor folds `local` into retained totals and
        // must fully unregister before `local` is destroyed.
      }
    });
  }

  threads.emplace_back([&] {
    start.arrive_and_wait();
    while (!done.load(std::memory_order_acquire)) {
      (void)registry.Snapshot();
    }
  });

  for (int t = 0; t < kThreads; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  Snapshot final = registry.Snapshot();
  EXPECT_EQ(final.counters.at("stress.telemetry.retired"),
            base + kThreads * kComponentsPerThread * kPerComponent);
}

// A local TraceRing under concurrent Record/Snapshot/Clear, with spans
// and events mixed in one ring. The writer/reader race on its own is
// FlightRecorderStressTest.RacingWritersAndReadersStayCoherent; this one
// adds Clear. Recording never blocks; once quiesced, the counts are exact.
TEST(TelemetryStress, TraceRingRecordVsSnapshotAndClear) {
  constexpr int kRecorders = 4;
  constexpr int kRecordsPerRecorder = 500;
  constexpr std::size_t kCapacity = 64;

  TraceRing ring(kCapacity);
  std::barrier start(kRecorders + 2);
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;

  for (int r = 0; r < kRecorders; ++r) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kRecordsPerRecorder; ++i) {
        TraceRecord record;
        if (i % 2 == 0) {
          record.name = "stress.span";
        } else {
          record.kind = TraceKind::kTxnCommit;
          record.name = TraceKindName(record.kind).data();
          record.detail = "stress.event";
        }
        ring.Record(std::move(record));
      }
    });
  }

  threads.emplace_back([&] {  // snapshotter
    start.arrive_and_wait();
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<TraceRecord> records = ring.Snapshot();
      if (records.size() > kCapacity) errors.fetch_add(1);
      for (const TraceRecord& record : records) {
        const bool span = record.kind == TraceKind::kSpan;
        if (std::string(record.name) !=
                (span ? "stress.span" : "txn_commit") ||
            record.detail != (span ? "" : "stress.event")) {
          errors.fetch_add(1);
        }
      }
    }
  });

  threads.emplace_back([&] {  // clearer
    start.arrive_and_wait();
    for (int i = 0; i < 50; ++i) ring.Clear();
  });

  for (int r = 0; r < kRecorders; ++r) threads[r].join();
  done.store(true, std::memory_order_release);
  threads[kRecorders].join();
  threads[kRecorders + 1].join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(ring.Snapshot().size(), kCapacity);

  // Quiesced, the counts are exact again.
  ring.Clear();
  TraceRecord span;
  span.name = "stress.span";
  for (std::size_t i = 0; i < kCapacity + 3; ++i) ring.Record(span);
  EXPECT_EQ(ring.total_recorded(), kCapacity + 3);
  EXPECT_EQ(ring.dropped(), 3u);
  EXPECT_EQ(ring.Snapshot().size(), kCapacity);
}

// The global span macro path: nested TELEM_SPANs on several threads while
// the global buffer is snapshotted. Depth bookkeeping is thread-local, so
// every drained record's depth must be small and sane.
TEST(TelemetryStress, GlobalScopedSpansConcurrent) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;

  std::barrier start(kThreads + 1);
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        TELEM_SPAN("stress.outer");
        TELEM_SPAN("stress.inner");
      }
    });
  }

  threads.emplace_back([&] {
    start.arrive_and_wait();
    while (!done.load(std::memory_order_acquire)) {
      for (const TraceRecord& span : TraceRing::Spans().Snapshot()) {
        if (span.depth > 64) errors.fetch_add(1);
      }
    }
  });

  for (int t = 0; t < kThreads; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace gemstone::telemetry
