#ifndef GEMSTONE_ADMIN_HTTP_ENDPOINT_H_
#define GEMSTONE_ADMIN_HTTP_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "core/status.h"

namespace gemstone::admin {

/// Knobs for the admin listener. Bounded on purpose: this endpoint must
/// survive a confused or hostile scraper without ever touching the data
/// path.
struct HttpEndpointOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (port() reports it).
  std::uint16_t port = 0;

  /// Request heads larger than this are answered 431 and closed — an
  /// admin GET has no business sending kilobytes of headers.
  std::size_t max_request_bytes = 4096;

  /// Connections idle longer than this are dropped.
  std::uint64_t idle_timeout_ms = 5000;
};

/// A deliberately minimal HTTP/1.0 responder for live observability:
/// GET-only, exact-path routes, `Connection: close` on every response, no
/// keep-alive, no TLS, loopback only. Handlers run on the endpoint's own
/// thread and must be callable from any thread (they read telemetry
/// snapshots, never the data path). One poll(2) loop serves concurrent
/// scrapes without blocking on any single slow client.
///
/// The intended wiring (tools/gemstone_serve.cc):
///   GET /metrics   → telemetry::ToPrometheus(registry snapshot)
///   GET /statusz   → net::Server::StatusJson()
///   GET /flightrec → telemetry::EventsJson(TraceRing::Events())
///   GET /slowlog   → the same, restricted to kSlowRequest
///   GET /healthz   → "ok"
class HttpEndpoint {
 public:
  using Handler = std::function<std::string()>;

  /// Decoded `?key=value&...` pairs of the request target. Keys without
  /// '=' map to "". No percent-decoding: admin params are numbers and
  /// identifiers by contract.
  using QueryParams = std::map<std::string, std::string>;
  using QueryHandler = std::function<std::string(const QueryParams&)>;

  explicit HttpEndpoint(HttpEndpointOptions options = {});
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Registers `handler` for exact-match GETs of `path` (e.g. "/metrics").
  /// Query strings are stripped before matching. Must be called before
  /// Start(); the route table is immutable while the endpoint runs.
  void AddRoute(const std::string& path, const std::string& content_type,
                Handler handler);

  /// Same, for handlers that read query params (`/timeseries?window=30`).
  void AddRoute(const std::string& path, const std::string& content_type,
                QueryHandler handler);

  /// `params[name]` parsed as a non-negative integer, clamped to
  /// [0, max]; `fallback` when absent or unparsable. The shared idiom for
  /// the bounded `?limit=`/`?window=` knobs.
  static std::size_t UintParam(const QueryParams& params,
                               const std::string& name, std::size_t fallback,
                               std::size_t max);

  /// Binds 127.0.0.1:port, starts the serving thread.
  Status Start();

  /// Stops serving, closes every socket, joins the thread. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Route {
    std::string content_type;
    QueryHandler handler;  // plain Handlers are wrapped at AddRoute
  };

  void Serve();
  /// Parses the buffered request head and builds the full response, or
  /// returns false if more bytes are needed.
  bool BuildResponse(const std::string& in, std::string* out) const;

  HttpEndpointOptions options_;
  std::map<std::string, Route> routes_;

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace gemstone::admin

#endif  // GEMSTONE_ADMIN_HTTP_ENDPOINT_H_
