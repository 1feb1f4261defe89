#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/metrics.h"

namespace gemstone::telemetry {

// Splits TraceRing::Record into its claim and its store, so a test can
// run a writer that stalls between the two.
class TraceRingTestPeer {
 public:
  static std::uint64_t Claim(TraceRing& ring) {
    return ring.next_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  static void Store(TraceRing& ring, TraceRecord record) {
    ring.Store(std::move(record));
  }
};

namespace {

TEST(TraceBufferTest, RecordsInOrder) {
  TraceRing buffer(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    TraceRecord span;
    span.name = "s";
    span.start_ns = i;
    buffer.Record(span);
  }
  const auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_ns, 0u);
  EXPECT_EQ(spans[2].start_ns, 2u);
}

TEST(TraceBufferTest, RingWrapsOverwritingOldest) {
  TraceRing buffer(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    TraceRecord span;
    span.name = "s";
    span.start_ns = i;
    buffer.Record(span);
  }
  EXPECT_EQ(buffer.Snapshot().size(), 4u);
  EXPECT_EQ(buffer.total_recorded(), 10u);
  const auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-to-newest: records 6, 7, 8, 9 survive.
  EXPECT_EQ(spans[0].start_ns, 6u);
  EXPECT_EQ(spans[3].start_ns, 9u);
}

// Two writers claim seqs 1 and 2 of a one-slot ring, and the first one
// stalls past the second's store. The ring keeps seq 2, the newest, and
// counts the stale record as the one dropped.
TEST(TraceBufferTest, StalledWriterDoesNotOverwriteANewerRecord) {
  Counter overwrites;
  TraceRing ring(1, &overwrites);
  TraceRecord stale;
  stale.name = "stale";
  stale.seq = TraceRingTestPeer::Claim(ring);
  TraceRecord newest;
  newest.name = "newest";
  newest.seq = TraceRingTestPeer::Claim(ring);
  TraceRingTestPeer::Store(ring, newest);
  TraceRingTestPeer::Store(ring, stale);

  const auto records = ring.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, newest.seq);
  EXPECT_EQ(std::string(records[0].name), "newest");
  EXPECT_EQ(ring.total_recorded(), 2u);
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_EQ(overwrites.value(), 1u);
}

TEST(TraceBufferTest, ClearEmptiesRetainedRecords) {
  TraceRing buffer(4);
  TraceRecord span;
  span.name = "s";
  buffer.Record(span);
  buffer.Clear();
  EXPECT_EQ(buffer.Snapshot().size(), 0u);
  EXPECT_TRUE(buffer.Snapshot().empty());
}

TEST(ScopedSpanTest, NestedSpansRecordDepthAndCloseInnerFirst) {
  TraceRing::Spans().Clear();
  {
    TELEM_SPAN("test.outer");
    {
      TELEM_SPAN("test.inner");
    }
  }
  const auto spans = TraceRing::Spans().Snapshot();
  ASSERT_GE(spans.size(), 2u);
  const auto& inner = spans[spans.size() - 2];
  const auto& outer = spans[spans.size() - 1];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_EQ(outer.depth, 0u);
  // The outer span fully contains the inner span.
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.duration_ns, inner.duration_ns);
}

TEST(TraceContextTest, ScopeBindsNestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    TraceContextScope outer(0x1111);
    EXPECT_EQ(CurrentTraceId(), 0x1111u);
    {
      TraceContextScope inner(0x2222);
      EXPECT_EQ(CurrentTraceId(), 0x2222u);
    }
    EXPECT_EQ(CurrentTraceId(), 0x1111u);  // nesting restores, not clears
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceContextTest, SpansRecordedInScopeCarryTheTraceId) {
  TraceRing::Spans().Clear();
  {
    TraceContextScope scope(0xabcd);
    TELEM_SPAN("test.traced");
  }
  {
    TELEM_SPAN("test.untraced");
  }
  const auto spans = TraceRing::Spans().Snapshot();
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans[spans.size() - 2].trace_id, 0xabcdu);
  EXPECT_EQ(spans[spans.size() - 1].trace_id, 0u);
}

TEST(ScopedSpanTest, SpanFeedsRegistryHistogram) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("span.test.timed");
  const std::uint64_t before = histogram->count();
  {
    TELEM_SPAN("test.timed");
  }
  EXPECT_EQ(histogram->count(), before + 1);
}

TEST(ScopedSpanTest, SiblingSpansShareDepth) {
  TraceRing::Spans().Clear();
  {
    TELEM_SPAN("test.parent");
    {
      TELEM_SPAN("test.first");
    }
    {
      TELEM_SPAN("test.second");
    }
  }
  const auto spans = TraceRing::Spans().Snapshot();
  ASSERT_GE(spans.size(), 3u);
  const auto& first = spans[spans.size() - 3];
  const auto& second = spans[spans.size() - 2];
  EXPECT_STREQ(first.name, "test.first");
  EXPECT_STREQ(second.name, "test.second");
  EXPECT_EQ(first.depth, 1u);
  EXPECT_EQ(second.depth, 1u);
}

}  // namespace
}  // namespace gemstone::telemetry
