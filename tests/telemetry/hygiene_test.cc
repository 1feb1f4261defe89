// Exporter and registry hygiene: Prometheus label escaping, metric-name
// validation/sanitization at registration, and the dropped-span counter
// that makes trace-ring wrap visible.

#include <gtest/gtest.h>

#include <string>

#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gemstone::telemetry {
namespace {

TEST(PromLabelEscapeTest, EscapesTheThreeDefinedCharacters) {
  EXPECT_EQ(PromLabelEscape("plain"), "plain");
  EXPECT_EQ(PromLabelEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PromLabelEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(PromLabelEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(PromLabelEscape("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PromLabelEscapeTest, BucketLabelsGoThroughTheEscaper) {
  // Histogram `le` values are numeric today, so the observable promise is
  // simply that the exposition stays well-formed: every bucket line has a
  // quoted, escape-free-or-escaped le label.
  Snapshot snapshot;
  HistogramSnapshot h;
  h.bounds = {1, 10};
  h.counts = {2, 1, 0};
  h.count = 3;
  h.sum = 12;
  snapshot.histograms["unit.test_latency"] = h;
  const std::string prom = ToPrometheus(snapshot);
  EXPECT_NE(prom.find("_bucket{le=\"1\"} 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("_bucket{le=\"10\"} 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 3"), std::string::npos) << prom;
}

TEST(MetricNameHygieneTest, ValidatorAcceptsTheHouseStyle) {
  EXPECT_TRUE(IsValidMetricName("disk.tracks_read"));
  EXPECT_TRUE(IsValidMetricName("span.commit.publish"));
  EXPECT_TRUE(IsValidMetricName("_private"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(IsValidMetricName(".starts_with_dot"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("has\"quote"));
  EXPECT_FALSE(IsValidMetricName("has{brace}"));
  EXPECT_FALSE(IsValidMetricName("newline\n"));
}

TEST(MetricNameHygieneTest, SanitizerProducesValidNames) {
  EXPECT_EQ(SanitizeMetricName("has space"), "has_space");
  EXPECT_EQ(SanitizeMetricName("9lead"), "_9lead");
  EXPECT_EQ(SanitizeMetricName("a{b}\"c\""), "a_b__c_");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_TRUE(IsValidMetricName(SanitizeMetricName("x\ny{z} ")));
}

/// RAII guard: run a block with fail-fast registration disabled, so the
/// sanitize-and-count path is testable in debug builds too.
class ScopedSanitizeMode {
 public:
  ScopedSanitizeMode() : saved_(SetAbortOnInvalidMetricName(false)) {}
  ~ScopedSanitizeMode() { SetAbortOnInvalidMetricName(saved_); }

 private:
  bool saved_;
};

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(MetricNameHygieneDeathTest, DebugBuildsAbortOnInvalidRegistration) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      MetricsRegistry::Global().GetCounter("hygiene death{bad}"),
      "invalid metric name");
}
#endif

TEST(MetricNameHygieneTest, RegistryRejectsInvalidSpellingsAtRegistration) {
  ScopedSanitizeMode sanitize_mode;
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::uint64_t before =
      registry.Snapshot().counters["telemetry.invalid_metric_names"];

  Counter* bad = registry.GetCounter("hygiene test{bad}");
  ASSERT_NE(bad, nullptr);
  bad->Increment(5);

  const Snapshot after = registry.Snapshot();
  // The invalid spelling never reaches the exporters...
  EXPECT_EQ(after.counters.count("hygiene test{bad}"), 0u);
  // ...the counter lives under the sanitized name instead...
  auto it = after.counters.find("hygiene_test_bad_");
  ASSERT_NE(it, after.counters.end());
  EXPECT_GE(it->second, 5u);
  // ...and the rejection itself is observable.
  EXPECT_GE(after.counters.at("telemetry.invalid_metric_names"), before + 1);

  // Same invalid spelling resolves to the same instrument.
  EXPECT_EQ(registry.GetCounter("hygiene test{bad}"), bad);
  EXPECT_EQ(registry.GetCounter("hygiene_test_bad_"), bad);
}

TEST(TraceDropTest, RingWrapCountsDroppedSpans) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::uint64_t counter_before =
      registry.Snapshot().counters["telemetry.dropped_spans"];

  TraceRing buffer(4);
  TraceRecord span;
  span.name = "trace.drop_test";
  for (int i = 0; i < 10; ++i) buffer.Record(span);

  EXPECT_EQ(buffer.total_recorded(), 10u);
  EXPECT_EQ(buffer.Snapshot().size(), 4u);
  EXPECT_EQ(buffer.dropped(), 6u);
  buffer.Clear();
  EXPECT_EQ(buffer.dropped(), 0u);

  // The span ring's wraps are visible to exporters through the registry
  // counter.
  TraceRing& spans = TraceRing::Spans();
  spans.Clear();
  for (std::size_t i = 0; i < spans.capacity() + 6; ++i) spans.Record(span);
  EXPECT_EQ(spans.dropped(), 6u);
  EXPECT_GE(registry.Snapshot().counters["telemetry.dropped_spans"],
            counter_before + 6);
  spans.Clear();
}

}  // namespace
}  // namespace gemstone::telemetry
