#include "storage/tier/compactor.h"

#include <chrono>
#include <utility>
#include <vector>

#include "telemetry/trace.h"

namespace gemstone::storage::tier {

TierCompactor::TierCompactor(TierStore* store, HistorySource* source,
                             CompactorOptions options)
    : store_(store),
      source_(source),
      options_(options),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("storage.tier.compactor.passes", passes_.value());
            sink->Counter("storage.tier.compactor.objects_demoted",
                          objects_demoted_.value());
            sink->Counter("storage.tier.compactor.records_demoted",
                          records_demoted_.value());
            sink->Counter("storage.tier.compactor.skipped_hot",
                          skipped_hot_.value());
            sink->Counter("storage.tier.compactor.errors", errors_.value());
            sink->Gauge("storage.tier.compactor.running",
                        running_gauge_.value());
          })) {}

TierCompactor::~TierCompactor() { Stop(); }

void TierCompactor::Start() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  if (running_) return;
  if (thread_.joinable()) thread_.join();  // a stopped thread's remains
  stop_requested_ = false;
  running_ = true;
  running_gauge_.Set(1);
  thread_ = std::thread([this] { ThreadMain(); });
}

void TierCompactor::Stop() {
  {
    std::unique_lock<std::mutex> lock(thread_mu_);
    if (!running_ && !thread_.joinable()) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::unique_lock<std::mutex> lock(thread_mu_);
  running_ = false;
  running_gauge_.Set(0);
}

bool TierCompactor::running() const {
  std::unique_lock<std::mutex> lock(thread_mu_);
  return running_;
}

void TierCompactor::ThreadMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(thread_mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    auto demoted = RunOncePass();
    if (!demoted.ok()) {
      errors_.Increment();
    }
  }
}

Result<std::size_t> TierCompactor::RunOncePass() {
  passes_.Increment();
  const TxnTime boundary = source_->SafeDemotionBoundary();
  if (boundary == kTimeOrigin) return std::size_t{0};
  const std::vector<HistorySource::Candidate> candidates =
      source_->DemotionCandidates(boundary, options_.max_objects_per_pass,
                                  options_.min_versions);
  std::size_t demoted = 0;
  Status first_error = Status::OK();
  for (const HistorySource::Candidate& candidate : candidates) {
    if (candidate.historical_heat > options_.max_historical_heat) {
      // The time dial still visits this object's past: demoting it would
      // turn warm in-memory walks into cold-run probes.
      skipped_hot_.Increment();
      continue;
    }
    auto records = source_->CollectHistory(candidate.oid, boundary);
    if (!records.ok()) {
      if (first_error.ok()) first_error = records.status();
      continue;
    }
    if (records.value().empty()) continue;
    const std::size_t count = records.value().size();
    // Durability order is the crash contract: (1) the cold run lands and
    // its level catalog flips; (2) only then is the resident history
    // truncated. A crash between the two duplicates bindings — never
    // creates a gap.
    Status st = store_->AppendRun(records.value());
    if (!st.ok()) {
      if (first_error.ok()) first_error = st;
      continue;
    }
    st = source_->ApplyDemotion(candidate.oid, boundary);
    if (!st.ok()) {
      if (first_error.ok()) first_error = st;
      continue;
    }
    ++demoted;
    objects_demoted_.Increment();
    records_demoted_.Increment(count);
    telemetry::RecordEvent(telemetry::TraceKind::kTierMigration, 0,
                           candidate.oid.raw, count,
                           "demoted below t=" + std::to_string(boundary));
  }
  // Rebalance after the pass so a burst of demotions triggers at most one
  // merge cascade.
  const Status st = store_->MaybeCompact();
  if (!st.ok() && first_error.ok()) first_error = st;
  if (!first_error.ok()) return first_error;
  return demoted;
}

CompactorStats TierCompactor::stats() const {
  CompactorStats s;
  s.passes = passes_.value();
  s.objects_demoted = objects_demoted_.value();
  s.records_demoted = records_demoted_.value();
  s.skipped_hot = skipped_hot_.value();
  s.errors = errors_.value();
  s.running = running();
  return s;
}

std::string TierCompactor::StatusJson() const {
  const CompactorStats s = stats();
  return "{\"running\":" + std::string(s.running ? "true" : "false") +
         ",\"passes\":" + std::to_string(s.passes) +
         ",\"objects_demoted\":" + std::to_string(s.objects_demoted) +
         ",\"records_demoted\":" + std::to_string(s.records_demoted) +
         ",\"skipped_hot\":" + std::to_string(s.skipped_hot) +
         ",\"errors\":" + std::to_string(s.errors) +
         ",\"interval_ms\":" + std::to_string(options_.interval_ms) +
         ",\"min_versions\":" + std::to_string(options_.min_versions) +
         ",\"max_objects_per_pass\":" +
         std::to_string(options_.max_objects_per_pass) + "}";
}

}  // namespace gemstone::storage::tier
