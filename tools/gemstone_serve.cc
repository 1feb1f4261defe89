// gemstone_serve: the GemStone system side of §6's network link. Stands up
// a disk-backed database (SimulatedDisk + StorageEngine) behind a
// gemstone::net gateway on 127.0.0.1 and serves until SIGINT/SIGTERM,
// then drains in-flight commits and exits.
//
//   gemstone_serve --port 7844 --workers 4 --max-conns 64
//                  --idle-timeout-ms 60000 --request-timeout-ms 0
//                  --admin-port 7845 --slow-request-us 100000
//                  --sample-interval-ms 1000 --dump-trace trace.json
//
// --admin-port (0 = ephemeral, prints the choice; omit to disable)
// stands up the HTTP observability endpoint beside the wire gateway:
//   curl http://127.0.0.1:7845/metrics     Prometheus scrape
//   curl http://127.0.0.1:7845/statusz     live JSON status page
//   curl http://127.0.0.1:7845/timeseries  windowed rates from the
//                                          Observatory ring (?window=&limit=)
//   curl http://127.0.0.1:7845/heatmap     storage access heat (?limit=&segments=)
//   curl http://127.0.0.1:7845/tiers       temporal track store levels,
//                                          migration counters, compactor
//   curl http://127.0.0.1:7845/trace       trace index; ?id=N exports one
//                                          request as Perfetto-loadable JSON
//   curl http://127.0.0.1:7845/flightrec   flight-recorder dump (?limit=)
//   curl http://127.0.0.1:7845/slowlog     slow-request events only (?limit=)
//
// --tier-levels N (N > 0) enables the levelled temporal track store
// (DESIGN.md §15): a background compactor demotes cold object history —
// ranked by the heatmap's historical channel — onto N secondary cold
// platters, with the ArchivalStore as the deepest level. Time-dial reads
// below an object's history floor route through the level resolver.
// Tuning: --tier-tracks (tracks on the first cold platter; each deeper
// level doubles it), --tier-run-limit (runs a level may hold before the
// compactor merges it downward), --tier-compact-interval-ms (pass
// cadence), --tier-demote-min-versions (bindings an object must be able
// to shed before it is a demotion candidate), --tier-max-heat (objects
// whose decayed historical-channel heat exceeds this stay resident),
// --heatmap-half-life-ms (decay half-life for all access-heat channels;
// 0 = never decays).
//
// --dump-trace PATH writes the span and event rings as Chrome trace-event
// JSON on shutdown — drag it into ui.perfetto.dev.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "admin/authorization.h"
#include "admin/http_endpoint.h"
#include "executor/executor.h"
#include "net/server.h"
#include "storage/archival_store.h"
#include "storage/simulated_disk.h"
#include "storage/storage_engine.h"
#include "storage/tier/compactor.h"
#include "storage/tier/tier_store.h"
#include "telemetry/export.h"
#include "telemetry/trace.h"
#include "telemetry/metrics.h"
#include "telemetry/observatory.h"
#include "telemetry/trace_export.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

bool ParseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--workers N] [--max-conns N]\n"
               "          [--idle-timeout-ms N] [--request-timeout-ms N]\n"
               "          [--slow-request-us N] [--admin-port N]\n"
               "          [--sample-interval-ms N] [--tracks N]\n"
               "          [--heatmap-half-life-ms N]\n"
               "          [--tier-levels N] [--tier-tracks N]\n"
               "          [--tier-run-limit N]\n"
               "          [--tier-compact-interval-ms N]\n"
               "          [--tier-demote-min-versions N]\n"
               "          [--tier-max-heat X]\n"
               "          [--in-memory] [--dump-trace PATH]\n"
               "(--port/--admin-port 0 pick ephemeral ports and print them;\n"
               " omit --admin-port to disable the HTTP admin endpoint;\n"
               " --in-memory skips the simulated disk — no durability,\n"
               " no /heatmap data; --tier-levels N>0 enables the levelled\n"
               " temporal track store and its background compactor)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gemstone::net::ServerOptions options;
  options.port = 7844;
  bool admin_enabled = false;
  bool in_memory = false;
  std::uint64_t num_tracks = 2048;
  std::uint64_t sample_interval_ms = 1000;
  std::uint64_t heatmap_half_life_ms = 0;
  std::uint64_t tier_levels = 0;  // 0 = tiering off
  gemstone::storage::tier::TierOptions tier_options;
  gemstone::storage::tier::CompactorOptions compactor_options;
  std::string dump_trace_path;
  gemstone::admin::HttpEndpointOptions admin_options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) return Usage(argv[0]);
    if (std::strcmp(arg, "--in-memory") == 0) {
      in_memory = true;
      continue;
    }
    const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage(argv[0]);
    ++i;
    if (std::strcmp(arg, "--dump-trace") == 0) {
      dump_trace_path = value;
      continue;
    }
    if (std::strcmp(arg, "--tier-max-heat") == 0) {
      char* end = nullptr;
      compactor_options.max_historical_heat = std::strtod(value, &end);
      if (end == value || *end != '\0') return Usage(argv[0]);
      continue;
    }
    std::uint64_t n = 0;
    if (!ParseUint(value, &n)) return Usage(argv[0]);
    if (std::strcmp(arg, "--port") == 0) {
      options.port = static_cast<std::uint16_t>(n);
    } else if (std::strcmp(arg, "--workers") == 0) {
      options.workers = static_cast<int>(n);
    } else if (std::strcmp(arg, "--max-conns") == 0) {
      options.max_connections = n;
    } else if (std::strcmp(arg, "--idle-timeout-ms") == 0) {
      options.idle_timeout_ms = n;
    } else if (std::strcmp(arg, "--request-timeout-ms") == 0) {
      options.request_timeout_ms = n;
    } else if (std::strcmp(arg, "--slow-request-us") == 0) {
      options.slow_request_us = n;
    } else if (std::strcmp(arg, "--admin-port") == 0) {
      admin_enabled = true;
      admin_options.port = static_cast<std::uint16_t>(n);
    } else if (std::strcmp(arg, "--sample-interval-ms") == 0) {
      sample_interval_ms = n;
    } else if (std::strcmp(arg, "--tracks") == 0) {
      num_tracks = n;
    } else if (std::strcmp(arg, "--heatmap-half-life-ms") == 0) {
      heatmap_half_life_ms = n;
    } else if (std::strcmp(arg, "--tier-levels") == 0) {
      tier_levels = n;
    } else if (std::strcmp(arg, "--tier-tracks") == 0) {
      tier_options.tracks_per_level = n;
    } else if (std::strcmp(arg, "--tier-run-limit") == 0) {
      tier_options.runs_per_level = n;
    } else if (std::strcmp(arg, "--tier-compact-interval-ms") == 0) {
      compactor_options.interval_ms = n;
    } else if (std::strcmp(arg, "--tier-demote-min-versions") == 0) {
      compactor_options.min_versions = n;
    } else {
      return Usage(argv[0]);
    }
  }

  // Disk-backed by default: commits persist through the Boxer/Linker
  // pipeline, and the heatmap has a real device to chart.
  std::unique_ptr<gemstone::storage::SimulatedDisk> disk;
  std::unique_ptr<gemstone::storage::StorageEngine> engine;
  std::unique_ptr<gemstone::executor::Executor> executor;
  const std::uint64_t half_life_ns = heatmap_half_life_ms * 1'000'000ull;
  if (in_memory) {
    executor = std::make_unique<gemstone::executor::Executor>();
  } else {
    disk = std::make_unique<gemstone::storage::SimulatedDisk>(
        static_cast<gemstone::storage::TrackId>(num_tracks), 8192,
        half_life_ns);
    engine = std::make_unique<gemstone::storage::StorageEngine>(disk.get());
    gemstone::Status storage_ok = engine->Format();
    if (storage_ok.ok()) storage_ok = engine->Open();
    if (!storage_ok.ok()) {
      std::fprintf(stderr, "gemstone_serve: storage: %s\n",
                   storage_ok.ToString().c_str());
      return 1;
    }
    executor =
        std::make_unique<gemstone::executor::Executor>(engine.get());
  }
  gemstone::admin::AuthorizationManager auth;
  gemstone::net::Server server(executor.get(), &auth, options);

  // The levelled temporal track store (DESIGN.md §15): cold platters
  // behind the primary device, the archival store as the deepest level,
  // and a background compactor demoting heat-ranked cold history.
  std::unique_ptr<gemstone::storage::ArchivalStore> archive;
  std::unique_ptr<gemstone::storage::tier::TierStore> tiers;
  std::unique_ptr<gemstone::storage::tier::TierCompactor> compactor;
  if (tier_levels > 0) {
    tier_options.cold_levels = tier_levels;
    tier_options.heatmap_half_life_ns = half_life_ns;
    archive = std::make_unique<gemstone::storage::ArchivalStore>();
    auto& transactions = executor->transactions();
    tiers = std::make_unique<gemstone::storage::tier::TierStore>(
        &transactions.memory().symbols(), archive.get(), tier_options);
    const gemstone::Status tiers_ok = tiers->Format();
    if (!tiers_ok.ok()) {
      std::fprintf(stderr, "gemstone_serve: tier store: %s\n",
                   tiers_ok.ToString().c_str());
      return 1;
    }
    transactions.AttachTierStore(tiers.get());
    compactor = std::make_unique<gemstone::storage::tier::TierCompactor>(
        tiers.get(), &transactions, compactor_options);
    server.SetStatusSection("tiers", [&tiers, &compactor] {
      return "{\"store\":" + tiers->StatusJson() +
             ",\"compactor\":" + compactor->StatusJson() + "}";
    });
  }

  const gemstone::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "gemstone_serve: %s\n", started.ToString().c_str());
    return 1;
  }

  // The workload observatory: samples the whole registry into the
  // time-series ring for /timeseries and the /statusz sparklines.
  auto& observatory = gemstone::telemetry::Observatory::Global();
  observatory.Start(std::chrono::milliseconds(sample_interval_ms));

  gemstone::admin::HttpEndpoint admin(admin_options);
  if (admin_enabled) {
    using gemstone::admin::HttpEndpoint;
    admin.AddRoute("/metrics", "text/plain; version=0.0.4", [] {
      return gemstone::telemetry::ToPrometheus(
          gemstone::telemetry::MetricsRegistry::Global().Snapshot());
    });
    admin.AddRoute("/statusz", "application/json",
                   [&server] { return server.StatusJson(); });
    admin.AddRoute(
        "/timeseries", "application/json",
        HttpEndpoint::QueryHandler([&observatory](
                                       const HttpEndpoint::QueryParams& q) {
          using gemstone::telemetry::Observatory;
          const std::size_t window = HttpEndpoint::UintParam(
              q, "window", Observatory::kDefaultWindow,
              Observatory::kMaxWindow);
          const std::size_t limit = HttpEndpoint::UintParam(
              q, "limit", Observatory::kDefaultSeriesLimit,
              Observatory::kMaxSeriesLimit);
          return observatory.TimeSeriesJson(window, limit);
        }));
    gemstone::storage::SimulatedDisk* heat_disk = disk.get();
    admin.AddRoute(
        "/heatmap", "application/json",
        HttpEndpoint::QueryHandler(
            [heat_disk](const HttpEndpoint::QueryParams& q) -> std::string {
              using gemstone::storage::TrackHeatmap;
              if (heat_disk == nullptr) {
                return "{\"error\":\"server is running --in-memory; no "
                       "device to chart\"}";
              }
              const std::size_t limit = HttpEndpoint::UintParam(
                  q, "limit", TrackHeatmap::kDefaultTrackLimit,
                  TrackHeatmap::kMaxTrackLimit);
              const std::size_t segments = HttpEndpoint::UintParam(
                  q, "segments", TrackHeatmap::kDefaultSegments, 256);
              return heat_disk->heatmap().ToJson(limit, segments);
            }));
    gemstone::storage::tier::TierStore* tier_ptr = tiers.get();
    gemstone::storage::tier::TierCompactor* compactor_ptr = compactor.get();
    admin.AddRoute("/tiers", "application/json",
                   [tier_ptr, compactor_ptr]() -> std::string {
                     if (tier_ptr == nullptr) {
                       return "{\"error\":\"tiering disabled; start with "
                              "--tier-levels N\"}";
                     }
                     return "{\"store\":" + tier_ptr->StatusJson() +
                            ",\"compactor\":" + compactor_ptr->StatusJson() +
                            "}";
                   });
    admin.AddRoute(
        "/trace", "application/json",
        HttpEndpoint::QueryHandler([](const HttpEndpoint::QueryParams& q) {
          const std::size_t limit =
              HttpEndpoint::UintParam(q, "limit", 64, 4096);
          const auto it = q.find("id");
          if (it == q.end()) {
            return gemstone::telemetry::TraceIndexJson(
                gemstone::telemetry::TraceRing::Spans().Snapshot(), limit);
          }
          std::uint64_t id = 0;
          ParseUint(it->second.c_str(), &id);
          return gemstone::telemetry::TraceEventsJson(
              gemstone::telemetry::TraceSnapshot(), id, 0);
        }));
    admin.AddRoute(
        "/flightrec", "application/json",
        HttpEndpoint::QueryHandler([](const HttpEndpoint::QueryParams& q) {
          const std::size_t limit =
              HttpEndpoint::UintParam(q, "limit", 256, 4096);
          return gemstone::telemetry::EventsJson(
              gemstone::telemetry::TraceRing::Events(), limit);
        }));
    admin.AddRoute(
        "/slowlog", "application/json",
        HttpEndpoint::QueryHandler([](const HttpEndpoint::QueryParams& q) {
          const std::size_t limit =
              HttpEndpoint::UintParam(q, "limit", 256, 4096);
          return gemstone::telemetry::EventsJson(
              gemstone::telemetry::TraceRing::Events(), limit,
              gemstone::telemetry::TraceKind::kSlowRequest);
        }));
    admin.AddRoute("/healthz", "text/plain", [] { return "ok\n"; });
    const gemstone::Status admin_started = admin.Start();
    if (!admin_started.ok()) {
      std::fprintf(stderr, "gemstone_serve: admin endpoint: %s\n",
                   admin_started.ToString().c_str());
      server.Stop();
      return 1;
    }
  }

  if (compactor != nullptr) {
    compactor->Start();
    std::printf("gemstone_serve: tier compactor running (%llu cold "
                "levels, pass every %llu ms)\n",
                static_cast<unsigned long long>(tier_levels),
                static_cast<unsigned long long>(
                    compactor_options.interval_ms));
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("gemstone_serve: listening on 127.0.0.1:%u (%d workers, %s)\n",
              static_cast<unsigned>(server.port()), options.workers,
              in_memory ? "in-memory" : "disk-backed");
  if (admin_enabled) {
    std::printf("gemstone_serve: admin endpoint on http://127.0.0.1:%u\n",
                static_cast<unsigned>(admin.port()));
  }
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("gemstone_serve: draining and shutting down\n");
  if (compactor != nullptr) compactor->Stop();
  admin.Stop();
  server.Stop();
  observatory.Stop();

  if (!dump_trace_path.empty()) {
    const std::string json = gemstone::telemetry::TraceEventsJson(
        gemstone::telemetry::TraceSnapshot(), 0);
    std::ofstream file(dump_trace_path, std::ios::trunc);
    file << json << "\n";
    if (file) {
      std::printf("gemstone_serve: wrote trace to %s (load in "
                  "ui.perfetto.dev)\n",
                  dump_trace_path.c_str());
    } else {
      std::fprintf(stderr, "gemstone_serve: failed writing %s\n",
                   dump_trace_path.c_str());
    }
  }
  return 0;
}
