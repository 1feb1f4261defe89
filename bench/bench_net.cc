// Gateway throughput and latency over real loopback sockets: a Server
// with an in-memory Executor behind it, driven by blocking net::Clients.
// Emits BENCH_net.json with requests/sec (net.bench_rps_* gauges) and the
// gateway's own net.request_latency_us histogram (p50/p99), so CI's
// bench-smoke artifact tracks the network link alongside the engine.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "admin/authorization.h"
#include "bench_telemetry.h"
#include "executor/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "telemetry/metrics.h"
#include "telemetry/observatory.h"

namespace {

using gemstone::admin::AuthorizationManager;
using gemstone::executor::Executor;
using gemstone::net::Client;
using gemstone::net::Server;
using gemstone::net::ServerOptions;

/// One gateway shared by every benchmark in the binary; tearing a server
/// up and down per iteration would measure thread spawn, not the wire.
struct Gateway {
  Gateway() {
    ServerOptions options;
    options.workers = 4;
    options.max_connections = 128;
    server = std::make_unique<Server>(&executor, &auth, options);
    if (!server->Start().ok()) std::abort();
  }

  Executor executor;
  AuthorizationManager auth;
  std::unique_ptr<Server> server;
};

Gateway& SharedGateway() {
  static Gateway* gateway = new Gateway();  // lives for the process
  return *gateway;
}

/// Round-trips of a trivial OPAL block: the floor for wire + framing +
/// dispatch + compile-execute-return latency.
void BM_NetExecuteRoundTrip(benchmark::State& state) {
  Gateway& gateway = SharedGateway();
  Client client;
  if (!client.Connect(gateway.server->port()).ok() || !client.Login().ok()) {
    state.SkipWithError("connect/login failed");
    return;
  }
  for (auto _ : state) {
    auto result = client.Execute("3 + 4");
    if (!result.ok()) {
      state.SkipWithError("execute failed");
      break;
    }
    benchmark::DoNotOptimize(result.value());
  }
  (void)client.Logout();
  state.counters["rps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetExecuteRoundTrip);

/// Full transaction over the wire: write + commit + begin.
void BM_NetCommitRoundTrip(benchmark::State& state) {
  Gateway& gateway = SharedGateway();
  Client client;
  if (!client.Connect(gateway.server->port()).ok() || !client.Login().ok()) {
    state.SkipWithError("connect/login failed");
    return;
  }
  if (!client.Execute("BenchBox := Object new").ok() ||
      !client.Commit().ok() || !client.Begin().ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    if (!client.Execute("BenchBox instVarNamed: 'v' put: 1").ok() ||
        !client.Commit().ok() || !client.Begin().ok()) {
      state.SkipWithError("txn failed");
      break;
    }
  }
  (void)client.Logout();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetCommitRoundTrip);

/// Concurrent clients hammering disjoint globals: gateway-level
/// parallelism (framing, queueing, socket I/O overlap execution).
void BM_NetConcurrentClients(benchmark::State& state) {
  Gateway& gateway = SharedGateway();
  const int clients = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back([&gateway] {
        Client client;
        if (!client.Connect(gateway.server->port()).ok() ||
            !client.Login().ok()) {
          return;
        }
        for (int r = 0; r < 8; ++r) {
          (void)client.Execute("2 * 21");
        }
        (void)client.Logout();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() * clients * 8);
}
BENCHMARK(BM_NetConcurrentClients)->Arg(2)->Arg(8);

/// The read-path scaling evidence (DESIGN.md §12): four client threads on
/// a 90/10 read/write mix against a gateway with Arg(0) workers. Reads
/// are execute-heavy OPAL (so the old coarse lock, not the socket, was
/// the wall) on a shared committed object; each client writes a disjoint
/// global, so OCC conflicts stay ~0 and the measurement isolates lock
/// contention. CI's bench-smoke gate requires 4-worker throughput ≥ 2x
/// 1-worker (net.bench_read_mix_rps_{1,4}w in BENCH_net.json).
void BM_NetReadHeavyMix(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 50;

  // Own gateway per run: the variable under test is the worker count.
  Executor executor;
  AuthorizationManager auth;
  ServerOptions options;
  options.workers = workers;
  options.max_connections = 32;
  Server server(&executor, &auth, options);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  const char* write_targets[kClients] = {"Wa", "Wb", "Wc", "Wd"};
  {
    Client setup;
    if (!setup.Connect(server.port()).ok() || !setup.Login().ok()) {
      state.SkipWithError("setup connect failed");
      return;
    }
    bool ok = setup.Execute("MixBox := Object new. "
                            "MixBox instVarNamed: 'v' put: 1")
                  .ok();
    for (const char* target : write_targets) {
      ok = ok && setup.Execute(std::string(target) + " := Object new").ok();
    }
    if (!ok || !setup.Commit().ok()) {
      state.SkipWithError("seed failed");
      return;
    }
    (void)setup.Logout();
  }

  // Execution-dominated read: ~2000 interpreted instVar reads per request.
  const std::string read_block =
      "| s | s := 0. 1 to: 2000 do: [:i | "
      "s := s + (MixBox instVarNamed: 'v')]. s";

  double total_ops = 0;
  double total_secs = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        if (!client.Connect(server.port()).ok() || !client.Login().ok()) {
          return;
        }
        const std::string write_block =
            std::string(write_targets[c]) + " instVarNamed: 'v' put: 2";
        for (int op = 0; op < kOpsPerClient; ++op) {
          if (op % 10 == 9) {
            // The write dirties the session, so it runs unpinned; Begin
            // makes the next query eligible for the snapshot again.
            (void)client.Execute(write_block);
            (void)client.Commit();
            (void)client.Begin();
          } else {
            (void)client.Execute(read_block);
          }
        }
        (void)client.Logout();
      });
    }
    for (std::thread& t : threads) t.join();
    total_secs +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    total_ops += kClients * kOpsPerClient;
  }
  state.SetItemsProcessed(state.iterations() * kClients * kOpsPerClient);
  if (total_secs > 0) {
    const double rps = total_ops / total_secs;
    state.counters["rps"] = benchmark::Counter(rps);
    gemstone::telemetry::MetricsRegistry::Global()
        .GetGauge(workers == 1 ? "net.bench_read_mix_rps_1w"
                               : "net.bench_read_mix_rps_4w")
        ->Set(static_cast<std::int64_t>(rps));
  }
}
BENCHMARK(BM_NetReadHeavyMix)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

// After the run, fold requests/sec into a gauge so EmitTelemetryReport's
// BENCH_net.json carries it next to net.request_latency_us p50/p99.
int main(int argc, char** argv) {
  char arg0_default[] = "benchmark";
  char* args_default = arg0_default;
  if (!argv) {
    argc = 1;
    argv = &args_default;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  // Bench with the Observatory sampler live at its production cadence:
  // the read-path scaling gate in CI then doubles as the "sampling costs
  // under 1% of throughput" acceptance check — a sampler that stalls the
  // gateway shows up as a scaling regression, not as a silent tax.
  gemstone::telemetry::Observatory observatory(300);
  observatory.Start(std::chrono::seconds(1));
  ::benchmark::RunSpecifiedBenchmarks();
  observatory.Stop();

  // requests/sec observed by the gateway itself over the whole run.
  auto& registry = gemstone::telemetry::MetricsRegistry::Global();
  const auto snapshot = registry.Snapshot();
  const auto requests = snapshot.counters.find("net.requests");
  const auto latency = snapshot.histograms.find("net.request_latency_us");
  if (requests != snapshot.counters.end() &&
      latency != snapshot.histograms.end() && latency->second.sum > 0) {
    const double rps = static_cast<double>(requests->second) /
                       (static_cast<double>(latency->second.sum) / 1e6);
    registry.GetGauge("net.bench_rps")
        ->Set(static_cast<std::int64_t>(rps));
  }

  // Per-stage attribution: where did the wall-clock go? The stage deltas
  // telescope (queue + execute + serialize + flush = total), so the stage
  // sums must re-add to net.request_latency_us.sum within per-stage
  // truncation error — stage_sum_vs_total_pct ~ 100 is the accounting's
  // own self-check.
  std::uint64_t stage_sum = 0;
  for (const char* stage :
       {"net.stage.queue_us", "net.stage.execute_us",
        "net.stage.serialize_us", "net.stage.flush_us"}) {
    const auto it = snapshot.histograms.find(stage);
    if (it != snapshot.histograms.end()) stage_sum += it->second.sum;
  }
  if (latency != snapshot.histograms.end() && latency->second.sum > 0) {
    registry.GetGauge("net.bench_stage_sum_vs_total_pct")
        ->Set(static_cast<std::int64_t>(
            100.0 * static_cast<double>(stage_sum) /
            static_cast<double>(latency->second.sum)));
  }
  SharedGateway().server->Stop();
  gemstone::bench::EmitTelemetryReport("net");
  return 0;
}
