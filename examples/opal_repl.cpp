// An OPAL read-eval-print loop over the Executor — the closest thing to
// the paper's host-terminal experience. Each line (or block ended by an
// empty line) is one §6 "block of OPAL source code".
//
// Usage:
//   ./opal_repl                     # interactive
//   echo "3 + 4" | ./opal_repl     # scripted
//   ./opal_repl --image db.img     # (not implemented: in-memory only)
//
// A few REPL conveniences:
//   :quit        leave
//   :time        show the commit clock and SafeTime
//   :stats       process-wide telemetry report (all subsystems)
//   :stats json  the same snapshot as JSON
//   :stats prom  the same snapshot in Prometheus text format
//   :spans       recent trace spans (most recent last) + drop count
//   :trace             index of request traces in the span ring
//   :trace <id>        one request's spans and events as Chrome
//                      trace-event JSON (Perfetto)
//   :trace all         both rings in the same format
//   :profile on|off|reset      toggle / clear the execution profiler
//   :profile [json]            hot selectors and call edges
//   :explain <query>           set-algebra plan for a §5.1 calculus query
//   :explain analyze <query>   the plan, executed and annotated
//   :flightrec [json]          dump the event ring (the flight recorder)
//   :flightrec arm <path>      auto-dump to <path> on abort/conflict/fault
//   :slowlog                   slow-request events only (JSON)
//   :admin <port>              serve /metrics /flightrec /slowlog /healthz
//                              over HTTP on 127.0.0.1:<port> (0 = pick)

#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "admin/http_endpoint.h"
#include "executor/error_format.h"
#include "executor/executor.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

using gemstone::SessionId;
using gemstone::executor::Executor;

int main() {
  Executor server;
  SessionId session = server.Login().ValueOrDie();
  gemstone::admin::HttpEndpoint admin;  // idle until :admin starts it
  const bool interactive = false || isatty(0);

  if (interactive) {
    std::cout << "GemStone/84 OPAL — one statement per line, :quit to "
                 "leave.\n";
  }
  std::string line;
  while ((interactive && (std::cout << "opal> " << std::flush)),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ":quit") break;
    if (line == ":time") {
      std::cout << "commit clock " << server.transactions().Now()
                << ", SafeTime " << server.transactions().SafeTime()
                << "\n";
      continue;
    }
    if (line == ":stats" || line == ":stats json" || line == ":stats prom") {
      const auto snapshot =
          gemstone::telemetry::MetricsRegistry::Global().Snapshot();
      if (line == ":stats json") {
        std::cout << gemstone::telemetry::ToJson(snapshot) << "\n";
      } else if (line == ":stats prom") {
        std::cout << gemstone::telemetry::ToPrometheus(snapshot);
      } else {
        std::cout << gemstone::telemetry::ToText(snapshot);
      }
      continue;
    }
    if (line == ":spans") {
      auto& ring = gemstone::telemetry::TraceRing::Spans();
      for (const auto& span : ring.Snapshot()) {
        std::cout << std::string(span.depth * 2, ' ') << span.name << " "
                  << span.duration_ns / 1000 << "us\n";
      }
      std::cout << "(" << ring.total_recorded() << " recorded, "
                << ring.dropped() << " dropped by ring wrap)\n";
      continue;
    }
    if (line.rfind(":trace", 0) == 0) {
      std::string arg = line.size() > 6 ? line.substr(7) : "";
      while (!arg.empty() && arg.front() == ' ') arg.erase(0, 1);
      if (arg.empty()) {
        std::cout << gemstone::telemetry::TraceIndexJson(
                         gemstone::telemetry::TraceRing::Spans().Snapshot(),
                         64)
                  << "\n";
      } else {
        const std::uint64_t id =
            arg == "all" ? 0 : std::strtoull(arg.c_str(), nullptr, 10);
        std::cout << gemstone::telemetry::TraceEventsJson(
                         gemstone::telemetry::TraceSnapshot(), id)
                  << "\n";
      }
      continue;
    }
    if (line.rfind(":profile", 0) == 0) {
      auto& profiler = gemstone::telemetry::Profiler::Global();
      const std::string arg = line.size() > 8 ? line.substr(9) : "";
      if (arg == "on") {
        profiler.Enable();
        std::cout << "profiler on\n";
      } else if (arg == "off") {
        profiler.Disable();
        std::cout << "profiler off\n";
      } else if (arg == "reset") {
        profiler.Reset();
        std::cout << "profiler reset\n";
      } else if (arg == "json") {
        std::cout << profiler.ReportJson() << "\n";
      } else {
        std::cout << profiler.ReportText();
      }
      continue;
    }
    if (line.rfind(":explain", 0) == 0) {
      std::string query = line.substr(8);
      bool analyze = false;
      while (!query.empty() && query.front() == ' ') query.erase(0, 1);
      if (query.rfind("analyze", 0) == 0) {
        analyze = true;
        query.erase(0, 7);
        while (!query.empty() && query.front() == ' ') query.erase(0, 1);
      }
      if (query.empty()) {
        std::cout << "usage: :explain [analyze] {{L: v} where (v in X!S)}\n";
        continue;
      }
      auto explained = server.ExplainStdm(session, query, analyze);
      if (explained.ok()) {
        std::cout << explained.value();
      } else {
        std::cout << "!! "
                  << gemstone::executor::FormatErrorText(explained.status())
                  << "\n";
      }
      continue;
    }
    if (line.rfind(":flightrec", 0) == 0) {
      auto& events = gemstone::telemetry::TraceRing::Events();
      const std::string arg = line.size() > 10 ? line.substr(11) : "";
      if (arg.rfind("arm ", 0) == 0) {
        gemstone::telemetry::SetAutoDumpPath(arg.substr(4));
        std::cout << "flight recorder armed: "
                  << gemstone::telemetry::AutoDumpPath() << "\n";
      } else if (arg == "json") {
        std::cout << gemstone::telemetry::EventsJson(events) << "\n";
      } else {
        for (const auto& event : events.Snapshot()) {
          std::cout << "#" << event.seq << " " << event.name
                    << " session=" << event.session << " a=" << event.a
                    << " b=" << event.b
                    << (event.detail.empty() ? "" : " " + event.detail)
                    << "\n";
        }
        std::cout << "(" << events.total_recorded() << " recorded, ring "
                  << events.capacity() << ")\n";
      }
      continue;
    }
    if (line == ":slowlog") {
      std::cout << gemstone::telemetry::EventsJson(
                       gemstone::telemetry::TraceRing::Events(), 0,
                       gemstone::telemetry::TraceKind::kSlowRequest)
                << "\n";
      continue;
    }
    if (line.rfind(":admin", 0) == 0) {
      if (admin.running()) {
        std::cout << "admin endpoint already on http://127.0.0.1:"
                  << admin.port() << "\n";
        continue;
      }
      gemstone::admin::HttpEndpointOptions options;
      options.port = static_cast<std::uint16_t>(
          line.size() > 6 ? std::strtoul(line.c_str() + 7, nullptr, 10) : 0);
      admin.AddRoute("/metrics", "text/plain; version=0.0.4", [] {
        return gemstone::telemetry::ToPrometheus(
            gemstone::telemetry::MetricsRegistry::Global().Snapshot());
      });
      admin.AddRoute("/flightrec", "application/json", [] {
        return gemstone::telemetry::EventsJson(
            gemstone::telemetry::TraceRing::Events());
      });
      admin.AddRoute("/slowlog", "application/json", [] {
        return gemstone::telemetry::EventsJson(
            gemstone::telemetry::TraceRing::Events(), 0,
            gemstone::telemetry::TraceKind::kSlowRequest);
      });
      admin.AddRoute("/healthz", "text/plain", [] { return "ok\n"; });
      const gemstone::Status started = admin.Start();
      if (started.ok()) {
        std::cout << "admin endpoint on http://127.0.0.1:" << admin.port()
                  << "\n";
      } else {
        std::cout << "!! " << started.ToString() << "\n";
      }
      continue;
    }
    auto result = server.ExecuteToString(session, line);
    if (result.ok()) {
      std::cout << "==> " << result.value() << "\n";
    } else {
      std::cout << "!! "
                << gemstone::executor::FormatErrorText(result.status())
                << "\n";
    }
  }
  (void)server.Logout(session);
  return 0;
}
