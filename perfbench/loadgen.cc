// perfbench_loadgen: the end-to-end benchmark of the §6 gateway.
//
// One process stands up a net::Server over a disk-backed Executor (a
// StorageEngine on a SimulatedDisk, sized like gemstone_serve's defaults)
// and drives it over loopback with four blocking net::Client sessions.
// Every session is a closed loop, as a §6 host terminal is: it sends its
// next request only after the previous reply arrived. On terminal_mix and
// history_audit session 0 is the single writer and sessions 1..3 only
// read; on opal_compute all four only read.
//
//   perfbench_loadgen --workload terminal_mix --seed 7 --seconds 10
//                     --trace 0 [--trace-out spans.json]
//
// The program is measured from outside only: the load generator times its
// calls into public functions and reads the metrics registry before and
// after each measured phase. Every read is checked against the
// generator's own oracle, and after the timed phase the terminal_mix and
// history_audit databases are recovered from their platters and checked
// for every acknowledged write.
//
// Output: human-readable lines, then one JSON report line (the last line
// of stdout) that perfbench/run.py turns into the benchmark result.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "admin/authorization.h"
#include "core/lock_rank.h"
#include "executor/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "object/object_memory.h"
#include "opal/compiler.h"
#include "storage/archival_store.h"
#include "storage/simulated_disk.h"
#include "storage/storage_engine.h"
#include "storage/tier/compactor.h"
#include "storage/tier/tier_store.h"
#include "telemetry/metrics.h"

namespace {

using gemstone::Result;
using gemstone::Status;
using gemstone::net::Client;

constexpr int kSessions = 4;        // closed-loop clients, one thread each
// setup_s is the median of at least kSetupRepeats set-ups; cheap set-ups
// repeat until kSetupSeconds have passed, at most kSetupMaxRepeats times.
constexpr int kSetupRepeats = 5;
constexpr int kSetupMaxRepeats = 15;
constexpr double kSetupSeconds = 6;
constexpr int kWarmupOps = 40;      // per session, part of set-up
// Untimed run-in on the measured database before timing starts. On
// terminal_mix read throughput falls about 4x some 2 s into a run and then
// holds; the run-in keeps that transient out of every measured window.
constexpr double kSettleSeconds = 3;
constexpr std::size_t kSpanCap = 5000;  // spans kept per session and phase
constexpr gemstone::storage::TrackId kTracks = 16384;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the same seed yields the same inputs on every platform
/// (the std distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Uniform in [lo, lo + n).
  std::int64_t Int(std::int64_t lo, std::int64_t n) {
    return lo + static_cast<std::int64_t>(Below(static_cast<std::uint64_t>(n)));
  }

 private:
  std::uint64_t state_;
};

bool ParseInt(const std::string& text, std::int64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// --- Sample statistics -------------------------------------------------------

/// Nearest-rank percentile of sorted `v` (p in [0, 100]).
double Quantile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

struct Timing {
  double p50 = 0;
  double tail = 0;      // p99, or the highest percentile with 10 beyond it
  double tail_pct = 0;  // which percentile `tail` is
  std::size_t samples = 0;
};

Timing Summarize(std::vector<double> v) {
  Timing t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.p50 = Quantile(v, 50);
  const double n = static_cast<double>(v.size());
  t.tail_pct = n * 0.01 >= 10 ? 99.0 : std::max(50.0, 100.0 * (1 - 10.0 / n));
  t.tail = Quantile(v, t.tail_pct);
  return t;
}

/// Medians over `windows` equal slices of a phase of each slice's p50,
/// tail and op rate: a burst of outside load moves a few slices, not the
/// medians.
Timing SummarizeWindows(const std::vector<double>& us,
                        const std::vector<std::uint64_t>& end_ns,
                        std::uint64_t start_ns, double seconds, int windows,
                        double* rate) {
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(windows));
  const double width_ns = seconds * 1e9 / windows;
  for (std::size_t i = 0; i < us.size(); ++i) {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(end_ns[i] - start_ns) / width_ns);
    slices[std::min(w, slices.size() - 1)].push_back(us[i]);
  }
  std::vector<double> p50s, tails, rates;
  Timing t;
  for (const auto& slice : slices) {
    const Timing s = Summarize(slice);
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    rates.push_back(static_cast<double>(slice.size()) * 1e9 / width_ns);
    t.tail_pct = std::max(t.tail_pct, s.tail_pct);
  }
  std::sort(p50s.begin(), p50s.end());
  std::sort(tails.begin(), tails.end());
  std::sort(rates.begin(), rates.end());
  t.p50 = Quantile(p50s, 50);
  t.tail = Quantile(tails, 50);
  t.samples = us.size();
  *rate = Quantile(rates, 50);
  return t;
}

// --- Registry deltas ---------------------------------------------------------

/// What the registry accumulated over one or more measured phases.
class RegistryDelta {
 public:
  void Add(const gemstone::telemetry::Snapshot& before,
           const gemstone::telemetry::Snapshot& after) {
    for (const auto& [name, value] : after.counters) {
      const auto it = before.counters.find(name);
      counters_[name] += value - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto& [name, h] : after.histograms) {
      const auto it = before.histograms.find(name);
      auto& acc = histograms_[name];
      if (acc.counts.empty()) {
        acc.bounds = h.bounds;
        acc.counts.assign(h.counts.size(), 0);
      }
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        const std::uint64_t prior =
            it == before.histograms.end() ? 0 : it->second.counts[i];
        acc.counts[i] += h.counts[i] - prior;
      }
      acc.count += h.count -
                   (it == before.histograms.end() ? 0 : it->second.count);
      acc.sum += h.sum - (it == before.histograms.end() ? 0 : it->second.sum);
    }
  }

  double Count(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : static_cast<double>(it->second);
  }
  double P50(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? 0 : it->second.p50();
  }
  double Sum(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? 0 : static_cast<double>(it->second.sum);
  }
  double Observations(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? 0 : static_cast<double>(it->second.count);
  }
  double Mean(const std::string& name) const {
    const double n = Observations(name);
    return n == 0 ? 0 : Sum(name) / n;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, gemstone::telemetry::HistogramSnapshot> histograms_;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- The database under test -------------------------------------------------

/// A disk-backed gateway wired as gemstone_serve wires it: 8 KiB tracks,
/// 4 workers and, with `tiered`, the `--tier-levels 2` store. The device
/// has kTracks tracks (`--tracks 16384`) rather than the default 2048: an
/// update of one small object pins the shared track its old image sits
/// on, so terminal_mix fills 2048 tracks after about 1.7k updates. Members
/// are declared so that destruction runs server -> compactor -> tiers ->
/// executor -> engine -> disk.
struct Database {
  std::unique_ptr<gemstone::storage::SimulatedDisk> disk;
  std::unique_ptr<gemstone::storage::StorageEngine> engine;
  std::unique_ptr<gemstone::executor::Executor> executor;
  gemstone::admin::AuthorizationManager auth;
  std::unique_ptr<gemstone::storage::ArchivalStore> archive;
  std::unique_ptr<gemstone::storage::tier::TierStore> tiers;
  std::unique_ptr<gemstone::storage::tier::TierCompactor> compactor;
  std::unique_ptr<gemstone::net::Server> server;
};

Result<std::unique_ptr<Database>> OpenDatabase(bool tiered) {
  auto db = std::make_unique<Database>();
  db->disk = std::make_unique<gemstone::storage::SimulatedDisk>(kTracks, 8192);
  db->engine =
      std::make_unique<gemstone::storage::StorageEngine>(db->disk.get());
  GS_RETURN_IF_ERROR(db->engine->Format());
  GS_RETURN_IF_ERROR(db->engine->Open());
  db->executor =
      std::make_unique<gemstone::executor::Executor>(db->engine.get());
  gemstone::net::ServerOptions options;  // gemstone_serve's defaults
  db->server = std::make_unique<gemstone::net::Server>(db->executor.get(),
                                                       &db->auth, options);
  if (tiered) {
    gemstone::storage::tier::TierOptions tier_options;
    tier_options.cold_levels = 2;
    db->archive = std::make_unique<gemstone::storage::ArchivalStore>();
    auto& transactions = db->executor->transactions();
    db->tiers = std::make_unique<gemstone::storage::tier::TierStore>(
        &transactions.memory().symbols(), db->archive.get(), tier_options);
    GS_RETURN_IF_ERROR(db->tiers->Format());
    transactions.AttachTierStore(db->tiers.get());
    db->compactor = std::make_unique<gemstone::storage::tier::TierCompactor>(
        db->tiers.get(), &transactions);
  }
  GS_RETURN_IF_ERROR(db->server->Start());
  return db;
}

/// The oid bound to global `name`, asked in-process while no client runs.
Result<gemstone::Oid> GlobalOid(gemstone::executor::Executor* executor,
                                const std::string& name) {
  GS_ASSIGN_OR_RETURN(gemstone::SessionId session, executor->Login());
  auto value = executor->Execute(session, name);
  (void)executor->Logout(session);
  if (!value.ok()) return value.status();
  if (!value->IsRef()) {
    return Status::InvalidArgument(name + " is not an object");
  }
  return value->ref();
}

/// A recovered copy of a database: a fresh engine and Executor over the
/// same platters, as after a crash. The gateway's globals are not durable
/// (they live outside the object model), so `globals` are rebound by oid.
struct Recovered {
  std::unique_ptr<gemstone::storage::StorageEngine> engine;
  std::unique_ptr<gemstone::executor::Executor> executor;
  gemstone::SessionId session = 0;

  Result<std::int64_t> Int(const std::string& source) {
    GS_ASSIGN_OR_RETURN(std::string text,
                        executor->ExecuteToString(session, source));
    std::int64_t v = 0;
    if (!ParseInt(text, &v)) {
      return Status::InvalidArgument("not an integer: " + text);
    }
    return v;
  }
};

Result<Recovered> Recover(Database& db,
                          const std::vector<std::string>& globals) {
  std::vector<std::pair<std::string, gemstone::Oid>> bound;
  for (const std::string& name : globals) {
    GS_ASSIGN_OR_RETURN(gemstone::Oid oid, GlobalOid(db.executor.get(), name));
    bound.emplace_back(name, oid);
  }
  Recovered r;
  r.engine = std::make_unique<gemstone::storage::StorageEngine>(db.disk.get());
  GS_RETURN_IF_ERROR(r.engine->Open());
  GS_ASSIGN_OR_RETURN(r.executor,
                      gemstone::executor::Executor::Recover(r.engine.get()));
  if (db.tiers != nullptr) {
    GS_RETURN_IF_ERROR(db.tiers->Open());
    r.executor->transactions().AttachTierStore(db.tiers.get());
  }
  for (const auto& [name, oid] : bound) {
    r.executor->globals().Set(r.executor->memory().symbols().Intern(name),
                              gemstone::Value::Ref(oid));
  }
  GS_ASSIGN_OR_RETURN(r.session, r.executor->Login());
  return r;
}

// --- Sessions and their logs -------------------------------------------------

enum class OpKind : std::uint8_t { kRead, kWrite };

/// One of the benchmark's own spans: a public call made by a session.
struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// What one session did during one phase.
struct SessionLog {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<std::uint64_t> read_end_ns;  // completion time of each op
  std::vector<std::uint64_t> write_end_ns;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t conflicts = 0;
  std::vector<std::string> messages;  // the first few failures
  // Traced phases only.
  std::vector<Span> spans;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> read_intervals;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> commit_intervals;

  void Note(const std::string& message) {
    if (messages.size() < 3) messages.push_back(message);
  }
};

/// A client connection plus the state its closed loop carries.
class Session {
 public:
  Session(int index, std::uint64_t seed) : index_(index), rng_(seed) {}

  int index() const { return index_; }
  Client& client() { return client_; }
  Rng& rng() { return rng_; }
  SessionLog& log() { return log_; }
  void set_traced(bool traced) { traced_ = traced; }

  /// Times one public call as a span (traced phases only).
  template <typename F>
  auto Call(const char* name, F&& call) {
    ++log_.requests;
    if (!traced_) return call();
    const std::uint64_t start = NowNs();
    auto result = call();
    const std::uint64_t end = NowNs();
    if (log_.spans.size() < kSpanCap) log_.spans.push_back({name, start, end});
    if (std::strcmp(name, "client.commit") == 0) {
      log_.commit_intervals.emplace_back(start, end);
    }
    return result;
  }

  Result<std::string> Execute(const std::string& source) {
    return Call("client.execute",
                [&] { return client_.Execute(source); });
  }

  /// Runs one user action and records its latency. `body` returns false
  /// when the action failed (it has already counted why).
  void Op(OpKind kind, const std::function<bool()>& body) {
    const std::uint64_t start = NowNs();
    const bool ok = body();
    const std::uint64_t end = NowNs();
    if (!ok) return;
    const double us = static_cast<double>(end - start) / 1000.0;
    (kind == OpKind::kRead ? log_.read_us : log_.write_us).push_back(us);
    (kind == OpKind::kRead ? log_.read_end_ns : log_.write_end_ns)
        .push_back(end);
    if (traced_) {
      if (log_.spans.size() < kSpanCap) {
        log_.spans.push_back(
            {kind == OpKind::kRead ? "op.read" : "op.write", start, end});
      }
      if (kind == OpKind::kRead) log_.read_intervals.emplace_back(start, end);
    }
  }

  /// Counts a failed call; false so callers can `return Failed(...)`.
  bool Failed(const Status& status) {
    if (status.IsTransactionConflict()) {
      ++log_.conflicts;
    } else {
      ++log_.errors;
    }
    log_.Note(status.ToString());
    return false;
  }

  /// Counts a wrong answer.
  bool Wrong(const std::string& what) {
    ++log_.check_failures;
    log_.Note("check failed: " + what);
    return false;
  }

  /// Discards the session's transaction and opens the next one; false
  /// after counting a failure.
  bool AbortAndBegin() {
    const Status aborted =
        Call("client.abort", [&] { return client_.Abort(); });
    if (!aborted.ok()) return Failed(aborted);
    const Status begun = Call("client.begin", [&] { return client_.Begin(); });
    if (!begun.ok()) return Failed(begun);
    return true;
  }

  /// The standard write op: Execute(write) + Commit + Begin. Answers the
  /// commit time, or 0 after counting a failure.
  std::uint64_t WriteAndCommit(const std::string& source) {
    auto wrote = Execute(source);
    if (!wrote.ok()) {
      Failed(wrote.status());
      (void)Call("client.abort", [&] { return client_.Abort(); });
      (void)Call("client.begin", [&] { return client_.Begin(); });
      return 0;
    }
    auto committed = Call("client.commit", [&] { return client_.Commit(); });
    const Status begun = Call("client.begin", [&] { return client_.Begin(); });
    if (!committed.ok()) {
      Failed(committed.status());
      return 0;
    }
    if (!begun.ok()) {
      Failed(begun);
      return 0;
    }
    return committed.value();
  }

 private:
  int index_;
  Rng rng_;
  Client client_;
  SessionLog log_;
  bool traced_ = false;
};

// --- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool tiered() const { return false; }
  /// Builds the database over the wire through `admin` (session 0's
  /// client), resetting the oracle.
  virtual Status Build(Database& db, Session& admin) = 0;
  /// One closed-loop step of session `s`.
  virtual void Step(Session& s) = 0;
  /// After the timed phase, with the gateway stopped: recover and check.
  /// Answers the number of failed checks (0 when the workload has none).
  virtual std::uint64_t CheckDurability(Database& /*db*/,
                                        std::vector<std::string>* /*notes*/) {
    return 0;
  }
  /// Sources like the ones the sessions send, for compile timing.
  virtual std::vector<std::string> SampleSources(Rng& rng) = 0;
};

/// terminal_mix: 20k objects in one Items Array; 3 sessions read uniform
/// points, 1 session updates one random item and commits.
///
/// Oracle: item k's value is seq * kStride + k, where seq is the writer's
/// update sequence number (0 = initial). A read must name item k, carry a
/// seq no older than the last commit acknowledged before the read was
/// sent, and no newer than the last seq issued.
class TerminalMix : public Workload {
 public:
  static constexpr std::int64_t kItems = 20000;
  static constexpr std::int64_t kStride = 32768;

  Status Build(Database& /*db*/, Session& admin) override {
    acked_ = std::make_unique<std::atomic<std::uint64_t>[]>(kItems + 1);
    written_.assign(kItems + 1, 0);
    issued_.store(0);
    const std::string n = std::to_string(kItems);
    auto built = admin.client().Execute(
        "Items := Array new: " + n + ". 1 to: " + n +
        " do: [:i | Items at: i put: Object new]. 1 to: " + n +
        " do: [:i | (Items at: i) instVarNamed: 'v' put: i]. Items size");
    if (!built.ok()) return built.status();
    if (*built != n) return Status::Internal("Items size " + *built);
    GS_RETURN_IF_ERROR(admin.client().Commit().status());
    return admin.client().Begin();
  }

  void Step(Session& s) override {
    const std::int64_t k = s.rng().Int(1, kItems);
    if (s.index() == 0) {
      s.Op(OpKind::kWrite, [&] {
        const std::uint64_t seq = issued_.load() + 1;
        issued_.store(seq, std::memory_order_release);
        const std::int64_t value = static_cast<std::int64_t>(seq) * kStride + k;
        if (s.WriteAndCommit(Put(k, value)) == 0) return false;
        acked_[k].store(seq, std::memory_order_release);
        written_[k] = seq;
        return true;
      });
      return;
    }
    s.Op(OpKind::kRead, [&] {
      const std::uint64_t floor = acked_[k].load(std::memory_order_acquire);
      auto read = s.Execute(Get(k));
      if (!read.ok()) return s.Failed(read.status());
      const std::uint64_t ceiling = issued_.load(std::memory_order_acquire);
      std::int64_t v = 0;
      if (!ParseInt(*read, &v) || v % kStride != k) {
        return s.Wrong("item " + std::to_string(k) + " read " + *read);
      }
      const auto seq = static_cast<std::uint64_t>(v / kStride);
      if (seq < floor || seq > ceiling) {
        return s.Wrong("item " + std::to_string(k) + " seq " +
                       std::to_string(seq) + " outside [" +
                       std::to_string(floor) + ", " + std::to_string(ceiling) +
                       "]");
      }
      return true;
    });
  }

  std::uint64_t CheckDurability(Database& db,
                                std::vector<std::string>* notes) override {
    auto recovered = Recover(db, {"Items"});
    if (!recovered.ok()) {
      notes->push_back("recovery: " + recovered.status().ToString());
      return 1;
    }
    std::uint64_t failures = 0;
    std::int64_t checksum = 0;
    constexpr std::int64_t kModulus = 1000000007;
    for (std::int64_t k = 1; k <= kItems; ++k) {
      const std::int64_t value =
          static_cast<std::int64_t>(written_[k]) * kStride + k;
      checksum = (checksum + (value % kModulus) * k) % kModulus;
      if (written_[k] == 0) continue;
      auto got = recovered->Int(Get(k));
      if (!got.ok() || *got != value) {
        if (++failures <= 3) {
          notes->push_back("durability: item " + std::to_string(k) +
                           " expected " + std::to_string(value));
        }
      }
    }
    // Every item, including the ones never updated, in one block.
    auto sum = recovered->Int(
        "| s | s := 0. 1 to: Items size do: [:i | s := (s + ((((Items at: i) "
        "instVarNamed: 'v') \\\\ " +
        std::to_string(kModulus) + ") * i)) \\\\ " +
        std::to_string(kModulus) + "]. s");
    if (!sum.ok() || *sum != checksum) {
      ++failures;
      notes->push_back("durability: Items checksum mismatch");
    }
    return failures;
  }

  std::vector<std::string> SampleSources(Rng& rng) override {
    std::vector<std::string> sources;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t k = rng.Int(1, kItems);
      sources.push_back(i % 4 == 0 ? Put(k, k) : Get(k));
    }
    return sources;
  }

 private:
  static std::string Get(std::int64_t k) {
    return "(Items at: " + std::to_string(k) + ") instVarNamed: 'v'";
  }
  static std::string Put(std::int64_t k, std::int64_t value) {
    return "(Items at: " + std::to_string(k) + ") instVarNamed: 'v' put: " +
           std::to_string(value);
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> acked_;
  std::vector<std::uint64_t> written_;  // writer thread only
  std::atomic<std::uint64_t> issued_{0};
};

/// history_audit: a few dozen objects with a thousand committed versions
/// each, cold history demoted into the tier store; 1 session appends
/// versions, 3 sessions dial to random recorded commit times and read.
///
/// Oracle: the model of every committed (time, value) pair per object.
/// Version i of object k holds k * kStride + i.
class HistoryAudit : public Workload {
 public:
  static constexpr std::int64_t kObjects = 32;
  static constexpr std::int64_t kVersions = 1000;
  static constexpr std::int64_t kStride = 1000000;

  bool tiered() const override { return true; }

  Status Build(Database& db, Session& admin) override {
    std::lock_guard<std::mutex> lock(mu_);
    versions_.assign(kObjects + 1, {});
    times_.clear();
    const std::string n = std::to_string(kObjects);
    auto built = admin.client().Execute(
        "H := Array new: " + n + ". 1 to: " + n +
        " do: [:i | H at: i put: Object new]. 1 to: " + n +
        " do: [:i | (H at: i) instVarNamed: 'v' put: i * " +
        std::to_string(kStride) + "]. H size");
    if (!built.ok()) return built.status();
    GS_ASSIGN_OR_RETURN(std::uint64_t t, admin.client().Commit());
    GS_RETURN_IF_ERROR(admin.client().Begin());
    for (std::int64_t k = 1; k <= kObjects; ++k) {
      versions_[k].emplace_back(t, k * kStride);
    }
    times_.push_back(t);
    for (std::int64_t k = 1; k <= kObjects; ++k) {
      auto grown = admin.client().Execute(
          "1 to: " + std::to_string(kVersions) + " do: [:i | (H at: " +
          std::to_string(k) + ") instVarNamed: 'v' put: " + std::to_string(k) +
          " * " + std::to_string(kStride) +
          " + i. System commitTransaction]. System now");
      if (!grown.ok()) return grown.status();
      std::int64_t now = 0;
      if (!ParseInt(*grown, &now) ||
          now != static_cast<std::int64_t>(t) + kVersions) {
        return Status::Internal("clock did not advance once per commit: " +
                                *grown);
      }
      for (std::int64_t i = 1; i <= kVersions; ++i) {
        versions_[k].emplace_back(t + i, k * kStride + i);
        times_.push_back(t + i);
      }
      next_version_[k] = kVersions + 1;
      t = static_cast<std::uint64_t>(now);
    }
    // Demote cold history as gemstone_serve's compactor would, until a
    // pass finds nothing more to move.
    for (int pass = 0; pass < 10000; ++pass) {
      GS_ASSIGN_OR_RETURN(std::size_t demoted, db.compactor->RunOncePass());
      if (demoted == 0) break;
    }
    return Status::OK();
  }

  void Step(Session& s) override {
    if (s.index() == 0) {
      const std::int64_t k = s.rng().Int(1, kObjects);
      s.Op(OpKind::kWrite, [&] {
        const std::int64_t value = k * kStride + next_version_[k];
        const std::uint64_t t = s.WriteAndCommit(
            "(H at: " + std::to_string(k) + ") instVarNamed: 'v' put: " +
            std::to_string(value));
        if (t == 0) return false;
        ++next_version_[k];
        std::lock_guard<std::mutex> lock(mu_);
        versions_[k].emplace_back(t, value);
        times_.push_back(t);
        return true;
      });
      return;
    }
    std::uint64_t t = 0;
    std::int64_t k = 0;
    std::int64_t expected = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      t = times_[s.rng().Below(times_.size())];
      k = s.rng().Int(1, kObjects);
      expected = ValueAtLocked(k, t);
    }
    s.Op(OpKind::kRead, [&] {
      const Status dialed = s.Call(
          "client.set_time_dial", [&] { return s.client().SetTimeDial(t); });
      if (!dialed.ok()) return s.Failed(dialed);
      auto read = s.Execute(Get(k));
      if (!read.ok()) return s.Failed(read.status());
      std::int64_t v = 0;
      if (!ParseInt(*read, &v) || v != expected) {
        return s.Wrong("H at " + std::to_string(k) + " time " +
                       std::to_string(t) + " read " + *read + " expected " +
                       std::to_string(expected));
      }
      return true;
    });
  }

  std::uint64_t CheckDurability(Database& db,
                                std::vector<std::string>* notes) override {
    auto recovered = Recover(db, {"H"});
    if (!recovered.ok()) {
      notes->push_back("recovery: " + recovered.status().ToString());
      return 1;
    }
    std::uint64_t failures = 0;
    auto check = [&](const std::string& source, std::int64_t expected) {
      auto got = recovered->Int(source);
      if (got.ok() && *got == expected) return;
      if (++failures <= 3) {
        notes->push_back("durability: " + source + " expected " +
                         std::to_string(expected) + " got " +
                         (got.ok() ? std::to_string(*got)
                                   : got.status().ToString()));
      }
    };
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t k = 1; k <= kObjects; ++k) {
      check(Get(k), versions_[k].back().second);
    }
    Rng rng(times_.size());
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t t = times_[rng.Below(times_.size())];
      const std::int64_t k = rng.Int(1, kObjects);
      check("(H at: " + std::to_string(k) + ") elementAt: 'v' atTime: " +
                std::to_string(t),
            ValueAtLocked(k, t));
    }
    return failures;
  }

  std::vector<std::string> SampleSources(Rng& rng) override {
    std::vector<std::string> sources;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t k = rng.Int(1, kObjects);
      sources.push_back(Get(k));
    }
    return sources;
  }

 private:
  static std::string Get(std::int64_t k) {
    return "(H at: " + std::to_string(k) + ") instVarNamed: 'v'";
  }

  /// Object k's value at `t`: the latest recorded version at or before it.
  std::int64_t ValueAtLocked(std::int64_t k, std::uint64_t t) const {
    const auto& v = versions_[k];
    auto it = std::upper_bound(
        v.begin(), v.end(), t,
        [](std::uint64_t time, const auto& entry) {
          return time < entry.first;
        });
    return it == v.begin() ? 0 : std::prev(it)->second;
  }

  std::mutex mu_;
  std::vector<std::vector<std::pair<std::uint64_t, std::int64_t>>> versions_;
  std::vector<std::uint64_t> times_;
  std::int64_t next_version_[kObjects + 1] = {};  // writer thread only
};

/// opal_compute: a small committed database (1k-element Nums Array and a
/// 1k-member Employees Set); all four sessions only read, running
/// execution-heavy blocks and set-calculus queries whose answers the
/// generator precomputes. Storage does no work after set-up, so the commit
/// metrics read 0 here.
class OpalCompute : public Workload {
 public:
  static constexpr std::int64_t kSize = 1000;

  explicit OpalCompute(std::uint64_t seed) {
    Rng rng(seed ^ 0x6f70616cull);
    for (std::int64_t i = 0; i < kSize; ++i) {
      nums_.push_back(rng.Int(0, 1000));
      salaries_.push_back(rng.Int(20000, 60000));
    }
  }

  Status Build(Database& /*db*/, Session& admin) override {
    Client& c = admin.client();
    GS_RETURN_IF_ERROR(
        c.Execute("Employees := Set new. Nums := Array new: " +
                  std::to_string(kSize) + ". 0")
            .status());
    constexpr std::int64_t kChunk = 100;
    for (std::int64_t base = 0; base < kSize; base += kChunk) {
      std::string nums;
      std::string emps = "| e | ";
      for (std::int64_t i = base; i < std::min(kSize, base + kChunk); ++i) {
        nums += "Nums at: " + std::to_string(i + 1) + " put: " +
                std::to_string(nums_[i]) + ". ";
        emps += "e := Object new. e instVarNamed: 'name' put: '" + Name(i) +
                "'. e instVarNamed: 'salary' put: " +
                std::to_string(salaries_[i]) + ". Employees add: e. ";
      }
      GS_RETURN_IF_ERROR(c.Execute(nums + "0").status());
      GS_RETURN_IF_ERROR(c.Execute(emps + "0").status());
    }
    GS_RETURN_IF_ERROR(c.Commit().status());
    return c.Begin();
  }

  void Step(Session& s) override {
    std::string source;
    std::string expected;
    bool stdm = false;
    std::vector<std::string> names;
    // Each session cycles through the five kinds, so every run has the
    // same mix; the seed picks the parameters.
    const std::uint64_t kind = next_kind_[s.index()]++ + s.index();
    Generate(kind, s.rng(), &source, &expected, &stdm, &names);
    s.Op(OpKind::kRead, [&] {
      if (!stdm) {
        auto got = s.Execute(source);
        if (!got.ok()) return s.Failed(got.status());
        if (*got != expected) {
          return s.Wrong(source + " answered " + *got + ", expected " +
                         expected);
        }
      } else {
        auto got =
            s.Call("client.stdm", [&] { return s.client().Stdm(source); });
        if (!got.ok()) return s.Failed(got.status());
        const std::vector<std::string> answered = Names(*got);
        if (answered != names) {
          return s.Wrong(source + " answered " +
                         std::to_string(answered.size()) +
                         " names, expected " + std::to_string(names.size()));
        }
      }
      // The terminal discards the query's transaction and its temporary
      // collections, as a host terminal that only queries would.
      return s.AbortAndBegin();
    });
  }

  std::vector<std::string> SampleSources(Rng& rng) override {
    std::vector<std::string> sources;
    for (std::uint64_t kind = 0; sources.size() < 200; ++kind) {
      std::string source;
      std::string expected;
      bool stdm = false;
      std::vector<std::string> names;
      Generate(kind, rng, &source, &expected, &stdm, &names);
      if (!stdm) sources.push_back(source);
    }
    return sources;
  }

 private:
  static std::string Name(std::int64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "emp%04lld", static_cast<long long>(i));
    return buf;
  }

  /// Every empNNNN token of a rendered result set, sorted.
  static std::vector<std::string> Names(const std::string& text) {
    std::vector<std::string> out;
    for (std::size_t at = text.find("emp"); at != std::string::npos;
         at = text.find("emp", at + 3)) {
      out.push_back(text.substr(at, 7));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// One block or query of `kind` (mod 5) with its precomputed answer.
  /// Parameters vary within narrow ranges, so the cost of a kind does not
  /// depend on the seed.
  void Generate(std::uint64_t kind, Rng& rng, std::string* source,
                std::string* expected, bool* stdm,
                std::vector<std::string>* names) const {
    switch (kind % 5) {
      case 0: {  // to:do: arithmetic loop
        const std::int64_t n = rng.Int(2000, 100);
        const std::int64_t m = rng.Int(3, 20);
        std::int64_t sum = 0;
        for (std::int64_t i = 1; i <= n; ++i) sum += i % m;
        *source = "| s | s := 0. 1 to: " + std::to_string(n) +
                  " do: [:i | s := s + (i \\\\ " + std::to_string(m) + ")]. s";
        *expected = std::to_string(sum);
        return;
      }
      case 1: {  // inject:into: over the collection
        const std::int64_t m = rng.Int(2, 50);
        std::int64_t sum = 0;
        for (std::int64_t x : nums_) sum += x % m;
        *source = "Nums inject: 0 into: [:a :x | a + (x \\\\ " +
                  std::to_string(m) + ")]";
        *expected = std::to_string(sum);
        return;
      }
      case 2: {  // select:
        const std::int64_t c = rng.Int(450, 100);
        *source = "(Nums select: [:x | x > " + std::to_string(c) + "]) size";
        *expected = std::to_string(
            std::count_if(nums_.begin(), nums_.end(),
                          [c](std::int64_t x) { return x > c; }));
        return;
      }
      case 3: {  // selectWhere: — the declarative path
        const std::int64_t c = rng.Int(45000, 10000);
        *source = "(Employees selectWhere: [:e | e!salary > " +
                  std::to_string(c) + "]) size";
        *expected = std::to_string(
            std::count_if(salaries_.begin(), salaries_.end(),
                          [c](std::int64_t x) { return x > c; }));
        return;
      }
      default: {  // §5.1 set-calculus query
        const std::int64_t c = rng.Int(45000, 10000);
        *source = "{{Who: e!name} where (e in Employees) [(e!salary > " +
                  std::to_string(c) + ")]}";
        *stdm = true;
        names->clear();
        for (std::int64_t i = 0; i < kSize; ++i) {
          if (salaries_[i] > c) names->push_back(Name(i));
        }
        std::sort(names->begin(), names->end());
        return;
      }
    }
  }

  std::vector<std::int64_t> nums_;
  std::vector<std::int64_t> salaries_;
  std::uint64_t next_kind_[kSessions] = {};  // slot i: session i only
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "terminal_mix") return std::make_unique<TerminalMix>();
  if (name == "history_audit") return std::make_unique<HistoryAudit>();
  if (name == "opal_compute") return std::make_unique<OpalCompute>(seed);
  return nullptr;
}

// --- Phases ------------------------------------------------------------------

struct PhaseResult {
  std::vector<SessionLog> logs;
  std::uint64_t start_ns = 0;
  double seconds = 0;
};

/// Runs every session's closed loop concurrently, for `ops` steps each
/// (ops > 0) or until `seconds` have passed.
PhaseResult RunPhase(Workload& workload,
                     std::vector<std::unique_ptr<Session>>& sessions,
                     double seconds, int ops, bool traced) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::uint64_t deadline = 0;
  std::vector<std::thread> threads;
  for (auto& session : sessions) {
    session->log() = SessionLog();
    session->set_traced(traced);
    threads.emplace_back([&, s = session.get()] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; ops > 0 ? i < ops : NowNs() < deadline; ++i) {
        workload.Step(*s);
      }
    });
  }
  while (ready.load() < static_cast<int>(sessions.size())) {
    std::this_thread::yield();
  }
  const std::uint64_t start = NowNs();
  deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  PhaseResult result;
  result.start_ns = start;
  result.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (auto& session : sessions) {
    result.logs.push_back(std::move(session->log()));
    session->set_traced(false);
  }
  return result;
}

// --- Report ------------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
  std::uint64_t samples;
};

using Metrics = std::map<std::string, Metric>;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

/// Host CPU ticks (total, steal) from /proc/stat; zeros where unreadable.
std::pair<std::uint64_t, std::uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return {0, 0};
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Totals {
  std::vector<double> read_us, write_us;
  std::vector<std::uint64_t> read_end_ns, write_end_ns;
  std::uint64_t start_ns = 0;
  std::uint64_t requests = 0, errors = 0, check_failures = 0, conflicts = 0;
  double seconds = 0;
  double op_us_sum = 0;
  std::vector<std::string> messages;

  void Add(const PhaseResult& phase) {
    if (start_ns == 0) start_ns = phase.start_ns;
    seconds += phase.seconds;
    for (const SessionLog& log : phase.logs) {
      read_us.insert(read_us.end(), log.read_us.begin(), log.read_us.end());
      write_us.insert(write_us.end(), log.write_us.begin(), log.write_us.end());
      read_end_ns.insert(read_end_ns.end(), log.read_end_ns.begin(),
                         log.read_end_ns.end());
      write_end_ns.insert(write_end_ns.end(), log.write_end_ns.begin(),
                          log.write_end_ns.end());
      requests += log.requests;
      errors += log.errors;
      check_failures += log.check_failures;
      conflicts += log.conflicts;
      for (double us : log.read_us) op_us_sum += us;
      for (double us : log.write_us) op_us_sum += us;
      for (const std::string& m : log.messages) {
        if (messages.size() < 5) messages.push_back(m);
      }
    }
  }
  std::uint64_t ops() const { return read_us.size() + write_us.size(); }
  std::uint64_t failed() const { return errors + check_failures + conflicts; }
};

/// Writes the traced phases' spans as Chrome trace-event JSON.
void WriteSpans(const std::string& path,
                const std::vector<PhaseResult>& phases) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const PhaseResult& phase : phases) {
    for (std::size_t tid = 0; tid < phase.logs.size(); ++tid) {
      for (const Span& span : phase.logs[tid].spans) {
        out << (first ? "" : ",") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
            << ",\"ts\":" << span.start_ns / 1000.0
            << ",\"dur\":" << (span.end_ns - span.start_ns) / 1000.0 << "}";
        first = false;
      }
    }
  }
  out << "]}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload "
               "terminal_mix|opal_compute|history_audit --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(workload_name, seed);
  if (workload == nullptr || seconds <= 0) return Usage();

  auto& registry = gemstone::telemetry::MetricsRegistry::Global();
  std::vector<std::string> notes;
  std::uint64_t setup_failures = 0;

  // Set-up: build the database over the wire and warm every session up,
  // several times; the last build is the one measured.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<Session>> sessions;
  gemstone::storage::tier::TierCounters tier_after_setup;
  for (int rep = 0; rep < kSetupMaxRepeats &&
                    (rep < kSetupRepeats || setup_total_s < kSetupSeconds);
       ++rep) {
    sessions.clear();
    db.reset();
    malloc_trim(0);  // return the previous build's memory before the next
    const std::uint64_t start = NowNs();
    auto opened = OpenDatabase(workload->tiered());
    if (!opened.ok()) {
      std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
    // Every set-up draws the same inputs, so the measured database's do
    // not depend on how many set-ups ran.
    for (int i = 0; i < kSessions; ++i) {
      auto session = std::make_unique<Session>(
          i, seed * 1000003ull + static_cast<std::uint64_t>(i) * 7919ull);
      Status ok = session->client().Connect(db->server->port());
      if (ok.ok()) ok = session->client().Login().status();
      if (!ok.ok()) {
        std::fprintf(stderr, "connect: %s\n", ok.ToString().c_str());
        return 1;
      }
      sessions.push_back(std::move(session));
    }
    const Status built = workload->Build(*db, *sessions[0]);
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.ToString().c_str());
      return 1;
    }
    if (db->tiers != nullptr) tier_after_setup = db->tiers->counters();
    Totals warm;
    warm.Add(RunPhase(*workload, sessions, 0, kWarmupOps, false));
    setup_failures += warm.failed();
    for (const std::string& m : warm.messages) notes.push_back("warm-up: " + m);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total_s += setup_s.back();
  }

  {
    Totals settle;
    settle.Add(RunPhase(*workload, sessions, kSettleSeconds, 0, false));
    setup_failures += settle.failed();
    for (const std::string& m : settle.messages) {
      notes.push_back("run-in: " + m);
    }
  }

  // Measured phases. Untraced: one phase. Traced: untraced and traced
  // slices alternate, so the overhead comparison shares the drift.
  const int slices = trace ? 4 : 1;
  Totals untraced;
  Totals traced;
  std::vector<PhaseResult> traced_phases;
  RegistryDelta delta;
  std::uint64_t tracks_written = 0;
  std::uint64_t tier_resolves = 0;
  const auto ticks_before = CpuTicks();
  for (int slice = 0; slice < slices; ++slice) {
    const bool traced_slice = trace && slice % 2 == 1;
    const auto before = registry.Snapshot();
    const auto disk_before = db->disk->stats();
    const auto tier_before =
        db->tiers != nullptr ? db->tiers->counters()
                             : gemstone::storage::tier::TierCounters{};
    PhaseResult phase =
        RunPhase(*workload, sessions, seconds / slices, 0, traced_slice);
    const auto after = registry.Snapshot();
    if (traced_slice) {
      delta.Add(before, after);
      if (db->tiers != nullptr) {
        tier_resolves += db->tiers->counters().resolves - tier_before.resolves;
      }
      traced.Add(phase);
      traced_phases.push_back(std::move(phase));
    } else {
      tracks_written +=
          db->disk->stats().tracks_written - disk_before.tracks_written;
      untraced.Add(phase);
    }
  }

  // Share of the host's CPU time the hypervisor stole while measuring:
  // not a metric of the program, but the first suspect when a run is off.
  const auto ticks_after = CpuTicks();
  const double steal_pct =
      100 * Ratio(static_cast<double>(ticks_after.second - ticks_before.second),
                  static_cast<double>(ticks_after.first - ticks_before.first));

  // Compile cost of the workload's own sources (CompileBody, timed here).
  std::vector<double> compile_us;
  if (trace) {
    gemstone::ObjectMemory memory;
    gemstone::opal::Compiler compiler(&memory);
    Rng rng(seed);
    for (const std::string& source : workload->SampleSources(rng)) {
      const std::uint64_t start = NowNs();
      auto compiled = compiler.CompileBody(source);
      compile_us.push_back(static_cast<double>(NowNs() - start) / 1000.0);
      if (!compiled.ok()) notes.push_back("compile: " + source);
    }
  }

  // Durability, outside the timed phase: stop the gateway, recover from
  // the platters, and check every acknowledged write.
  for (auto& session : sessions) {
    (void)session->client().Logout();
    session->client().Close();
  }
  db->server->Stop();
  const std::uint64_t durability_failures =
      workload->CheckDurability(*db, &notes);

  for (const Totals* t : {&untraced, &traced}) {
    for (const std::string& m : t->messages) notes.push_back(m);
  }
  const std::uint64_t ops = untraced.ops() + traced.ops();
  const std::uint64_t failed = untraced.failed() + traced.failed() +
                               setup_failures + durability_failures;
  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, ops + untraced.failed() + traced.failed());
  const bool correct = failed == 0 && ops > 0;

  // End-to-end metrics (untraced runs). Latencies and rates are medians
  // over ten equal windows of the measured phase.
  Metrics e2e;
  if (!trace) {
    std::vector<double> sorted = setup_s;
    std::sort(sorted.begin(), sorted.end());
    e2e["setup_s"] = {sorted[sorted.size() / 2], "s", sorted.size()};
    double read_rate = 0;
    double write_rate = 0;
    const Timing reads =
        SummarizeWindows(untraced.read_us, untraced.read_end_ns,
                         untraced.start_ns, untraced.seconds, 10, &read_rate);
    const Timing writes =
        SummarizeWindows(untraced.write_us, untraced.write_end_ns,
                         untraced.start_ns, untraced.seconds, 10, &write_rate);
    e2e["read_p50_us"] = {reads.p50, "us", reads.samples};
    e2e["read_p99_us"] = {reads.tail, "us", reads.samples};
    e2e["read_ops_per_s"] = {read_rate, "ops/s", reads.samples};
    e2e["commit_p50_us"] = {writes.p50, "us", writes.samples};
    e2e["commit_p99_us"] = {writes.tail, "us", writes.samples};
    e2e["commit_ops_per_s"] = {write_rate, "ops/s", writes.samples};
    e2e["tracks_per_commit"] = {
        Ratio(static_cast<double>(tracks_written),
              static_cast<double>(writes.samples)),
        "tracks", writes.samples};
    e2e["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
    e2e["failed_ratio"] = {Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)),
                           "ratio", attempted};
    std::printf("tail percentile per window: reads p%.2f, commits p%.2f\n",
                reads.tail_pct, writes.tail_pct);
  }

  // Per-layer ledger (traced phases).
  Metrics layer;
  if (trace) {
    const std::uint64_t traced_ops = traced.ops();
    const auto per_op = [&](const char* counter) {
      return Ratio(delta.Count(counter), static_cast<double>(traced_ops));
    };
    const double requests = static_cast<double>(traced.requests);
    const double server_us = delta.Sum("net.request_latency_us");
    const double server_requests = delta.Observations("net.request_latency_us");
    const char* stages[] = {"queue", "lock_wait", "execute", "serialize",
                            "flush"};
    double stage_sum = 0;
    for (const char* stage : stages) {
      const std::string h = std::string("net.stage.") + stage + "_us";
      layer[std::string("net.") + stage + "_p50_us"] = {
          delta.P50(h), "us",
          static_cast<std::uint64_t>(delta.Observations(h))};
      layer[std::string("net.") + stage + "_share_pct"] = {
          100 * Ratio(delta.Sum(h), server_us), "%",
          static_cast<std::uint64_t>(server_requests)};
      stage_sum += delta.Sum(h);
    }
    const auto n_req = static_cast<std::uint64_t>(server_requests);
    layer["net.stage_sum_vs_total_pct"] = {100 * Ratio(stage_sum, server_us),
                                           "%", n_req};
    layer["net.read_path_ratio"] = {
        Ratio(delta.Count("net.read_path_requests"),
              delta.Count("net.requests")),
        "ratio", n_req};
    layer["net.read_path_retry_ratio"] = {
        Ratio(delta.Count("net.read_path_retries"),
              delta.Count("net.read_path_requests")),
        "ratio", n_req};
    layer["net.wire_gap_us"] = {
        Ratio(traced.op_us_sum, requests) - Ratio(server_us, server_requests),
        "us", n_req};

    const auto span_n = [&](const char* h) {
      return static_cast<std::uint64_t>(delta.Observations(h));
    };
    layer["executor.execute_p50_us"] = {delta.P50("span.executor.execute"),
                                        "us", span_n("span.executor.execute")};
    layer["executor.stdm_query_p50_us"] = {
        delta.P50("span.executor.stdm_query"), "us",
        span_n("span.executor.stdm_query")};
    // Shares of client op time are 0, not absent, where a workload sends
    // no queries; the p50s above then read 0 on every run.
    layer["executor.stdm_query_share_pct"] = {
        100 * Ratio(delta.Sum("span.executor.stdm_query"), traced.op_us_sum),
        "%", span_n("span.executor.stdm_query")};

    const Timing compile = Summarize(compile_us);
    layer["opal.compile_p50_us"] = {compile.p50, "us", compile.samples};
    const double interpret_us = std::max(
        0.0, delta.Sum("span.executor.execute") -
                 compile.p50 * delta.Observations("span.executor.execute"));
    layer["opal.interpret_share_pct"] = {
        100 * Ratio(interpret_us, traced.op_us_sum), "%", traced_ops};
    layer["opal.bytecodes_per_op"] = {
        per_op("opal.bytecodes"), "count", traced_ops};
    layer["opal.sends_per_op"] = {
        per_op("opal.message_sends"), "count", traced_ops};
    layer["stdm.algebra_execute_p50_us"] = {delta.P50("span.algebra.execute"),
                                            "us",
                                            span_n("span.algebra.execute")};
    layer["stdm.algebra_execute_share_pct"] = {
        100 * Ratio(delta.Sum("span.algebra.execute"), traced.op_us_sum), "%",
        span_n("span.algebra.execute")};

    const double commits = delta.Observations("span.txn.commit");
    layer["txn.commit_p50_us"] = {delta.P50("span.txn.commit"), "us",
                                  span_n("span.txn.commit")};
    layer["txn.commit_self_us"] = {
        Ratio(delta.Sum("span.txn.commit") - delta.Sum("span.engine.commit"),
              commits),
        "us", span_n("span.txn.commit")};
    layer["txn.conflict_ratio"] = {
        Ratio(delta.Count("txn.conflicts"),
              delta.Count("txn.committed") + delta.Count("txn.conflicts")),
        "ratio", span_n("span.txn.commit")};
    // Client reads split by overlap with the writer's commit requests.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> commit_iv;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> read_iv;
    for (const PhaseResult& phase : traced_phases) {
      for (const SessionLog& log : phase.logs) {
        commit_iv.insert(commit_iv.end(), log.commit_intervals.begin(),
                         log.commit_intervals.end());
        read_iv.insert(read_iv.end(), log.read_intervals.begin(),
                       log.read_intervals.end());
      }
    }
    std::sort(commit_iv.begin(), commit_iv.end());
    std::vector<double> during;
    std::vector<double> outside;
    for (const auto& [start, end] : read_iv) {
      // First commit ending after the read started; overlap if it began
      // before the read ended (commits never overlap each other).
      auto it = std::lower_bound(
          commit_iv.begin(), commit_iv.end(), start,
          [](const auto& c, std::uint64_t s) { return c.second <= s; });
      const bool overlaps = it != commit_iv.end() && it->first < end;
      (overlaps ? during : outside)
          .push_back(static_cast<double>(end - start) / 1000.0);
    }
    const Timing t_during = Summarize(during);
    const Timing t_outside = Summarize(outside);
    layer["txn.read_during_commit_p50_us"] = {t_during.p50, "us",
                                              t_during.samples};
    layer["txn.read_outside_commit_p50_us"] = {t_outside.p50, "us",
                                               t_outside.samples};
    layer["txn.tier_routed_read_ratio"] = {
        Ratio(delta.Count("txn.tier_routed_reads"),
              delta.Count("txn.historical_reads")),
        "ratio",
        static_cast<std::uint64_t>(delta.Count("txn.historical_reads"))};

    const double engine_commits = delta.Count("engine.commits");
    const auto n_commits = static_cast<std::uint64_t>(engine_commits);
    layer["storage.engine_commit_p50_us"] = {delta.P50("span.engine.commit"),
                                             "us", n_commits};
    layer["storage.box_p50_us"] = {delta.P50("span.commit.box"), "us",
                                   n_commits};
    layer["storage.link_p50_us"] = {delta.P50("span.commit.link"), "us",
                                    n_commits};
    layer["storage.write_group_p50_us"] = {delta.P50("span.commit.write_group"),
                                           "us", n_commits};
    layer["storage.flip_root_p50_us"] = {delta.P50("span.commit.flip_root"),
                                         "us", n_commits};
    layer["storage.engine_self_us"] = {
        delta.Mean("span.engine.commit") - delta.Mean("span.commit.box") -
            delta.Mean("span.commit.link") -
            delta.Mean("span.commit.write_group") -
            delta.Mean("span.commit.flip_root"),
        "us", n_commits};
    layer["storage.tracks_written_per_commit"] = {
        Ratio(delta.Count("disk.tracks_written"), engine_commits), "tracks",
        n_commits};
    layer["storage.bytes_written_per_commit"] = {
        Ratio(delta.Count("engine.bytes_written"), engine_commits), "bytes",
        n_commits};
    layer["storage.objects_written_per_commit"] = {
        Ratio(delta.Count("engine.objects_written"), engine_commits), "count",
        n_commits};
    layer["storage.seeks_per_commit"] = {
        Ratio(delta.Count("disk.seeks"), engine_commits), "count", n_commits};

    const auto dial_reads = static_cast<std::uint64_t>(
        workload->tiered() ? traced.read_us.size() : 0);
    layer["tier.resolves_per_dial_read"] = {
        Ratio(static_cast<double>(tier_resolves),
              static_cast<double>(dial_reads)),
        "count", dial_reads};
    layer["tier.records_demoted"] = {
        static_cast<double>(tier_after_setup.records_demoted), "count", 1};
    layer["tier.migrations"] = {
        static_cast<double>(tier_after_setup.migrations), "count", 1};

    layer["telemetry.dropped_spans_per_op"] = {
        per_op("telemetry.dropped_spans"), "count", traced_ops};
    const double untraced_rate =
        Ratio(static_cast<double>(untraced.ops()), untraced.seconds);
    const double traced_rate =
        Ratio(static_cast<double>(traced.ops()), traced.seconds);
    layer["telemetry.trace_overhead_pct"] = {
        100 * Ratio(untraced_rate - traced_rate, untraced_rate), "%",
        traced_ops};
    // What no layer timer covers: client request time minus the gateway's
    // non-execute stages and the layer entry spans inside execute.
    const double accounted =
        delta.Sum("net.stage.queue_us") + delta.Sum("net.stage.lock_wait_us") +
        delta.Sum("net.stage.serialize_us") + delta.Sum("net.stage.flush_us") +
        delta.Sum("span.executor.execute") +
        delta.Sum("span.executor.stdm_query") + delta.Sum("span.txn.commit");
    layer["ledger.unaccounted_pct"] = {
        100 * Ratio(traced.op_us_sum - accounted, traced.op_us_sum), "%",
        traced_ops};

    if (!trace_out.empty()) WriteSpans(trace_out, traced_phases);
  }

  for (const auto& [name, m] : e2e) {
    std::printf("%-36s %14.3f %-6s (n=%llu)\n", name.c_str(), m.value, m.unit,
                static_cast<unsigned long long>(m.samples));
  }
  for (const auto& [name, m] : layer) {
    std::printf("%-36s %14.3f %-6s (n=%llu)\n", name.c_str(), m.value, m.unit,
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("host cpu steal while measuring: %.1f%%\n", steal_pct);
  for (const std::string& note : notes) {
    std::printf("note: %s\n", note.c_str());
  }

  std::string notes_json = "[";
  for (const std::string& note : notes) {
    notes_json += (notes_json.size() > 1 ? "," : "") + JsonString(note);
  }
  notes_json += "]";
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"provenance\":{\"build_type\":%s,\"ndebug\":%s,"
      "\"lock_order_validation\":%d,\"compiler\":%s,\"nproc\":%u},"
      "\"host_steal_pct\":%s,"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"end_to_end\":%s,\"per_layer\":%s,\"notes\":%s}\n",
      JsonString(workload_name).c_str(), static_cast<unsigned long long>(seed),
      JsonNumber(seconds).c_str(), trace ? 1 : 0,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), ndebug ? "true" : "false",
      GS_LOCK_ORDER_VALIDATION, JsonString(compiler).c_str(),
      std::thread::hardware_concurrency(), JsonNumber(steal_pct).c_str(),
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(e2e).c_str(),
      MetricsJson(layer).c_str(), notes_json.c_str());
  return 0;
}
