#ifndef GEMSTONE_NET_SERVER_H_
#define GEMSTONE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "admin/authorization.h"
#include "core/annotations.h"
#include "core/status.h"
#include "core/sync.h"
#include "executor/executor.h"
#include "net/wire.h"
#include "telemetry/metrics.h"

namespace gemstone::net {

/// Tuning and robustness knobs. The defaults suit tests and small
/// deployments; every limit exists so one client cannot take the gateway
/// down (the §6 deployment serves many host machines from one system).
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1... 0 picks an ephemeral port
  /// (Server::port() reports the choice).
  std::uint16_t port = 0;

  /// Worker threads executing requests. Requests of different
  /// connections run concurrently, reads and writes alike; they meet only
  /// in the transaction manager (DESIGN.md §10, §12). Extra workers also
  /// overlap framing, response writes, and queue handoff with execution.
  int workers = 4;

  /// Accepted connections beyond this are answered with a kProtocolError
  /// frame ("server at connection capacity") and closed.
  std::size_t max_connections = 64;

  /// Frames whose length prefix exceeds this are a framing error: the
  /// connection gets a kProtocolError frame and is closed (the stream
  /// cannot resync).
  std::uint32_t max_frame_len = 1u << 20;

  /// Parsed-but-unserved requests a connection may pipeline before the
  /// gateway stops reading from it (backpressure).
  std::size_t max_pipeline = 32;

  /// Bytes a connection's outbox may buffer before the gateway stops
  /// reading new requests from it (backpressure).
  std::size_t outbox_limit = 4u << 20;

  /// Close connections with no complete frame for this long. 0 disables.
  std::uint64_t idle_timeout_ms = 0;

  /// Requests that waited in the dispatch queue longer than this are
  /// answered with an Unavailable error frame instead of executing
  /// (admission control under overload). 0 disables.
  std::uint64_t request_timeout_ms = 0;

  /// Requests whose end-to-end latency (socket read to response flush)
  /// meets this record a kSlowRequest event in the event ring (the slow
  /// log, /slowlog) carrying the full stage breakdown and trace id. 0
  /// disables. Spans have their own fixed bar, ScopedSpan::kSlowOpNs.
  std::uint64_t slow_request_us = 100'000;
};

/// Where a request currently sits in its lifecycle — the same stages the
/// `net.stage.*` histograms measure. Exposed per connection in /statusz.
enum class RequestStage : std::uint8_t {
  kIdle = 0,    // no request being served
  kExecute,     // dequeued, inside the Executor
  kSerialize,   // encoding the response frame
  kFlush,       // response in the outbox, waiting for the socket
};

std::string_view RequestStageName(RequestStage stage);

/// The multi-session network gateway (§6's "network link"): a poll(2)
/// event loop accepts connections and parses length-prefixed frames
/// without blocking; complete requests are handed to a bounded worker
/// pool; each connection is bound to one txn::Session created at login
/// and torn down (aborting any open transaction) when the connection
/// dies. Failures of user code travel back as error frames — the gateway
/// never answers an OPAL/STDM failure with a disconnect.
///
/// Threading model (DESIGN.md §10, §12): one event-loop thread owns
/// every socket; `workers` threads own request execution. A connection is
/// in the dispatch queue at most once, so its requests execute in order
/// and its Session is never touched by two workers at once (enforced in
/// GS_THREAD_SAFETY builds by the Session owner assertion). Requests of
/// different connections run side by side under no gateway lock: as in
/// §6, sessions meet only in the Transaction Manager. A query on a session
/// with a fresh transaction pins it to the SafeTime commit snapshot and
/// runs once: its reads are recorded, its side effects run in place, and
/// commit-time validation against the transaction's start (its first
/// pin) covers both.
class Server {
 public:
  /// `executor` must outlive the server. `auth`, when non-null, is
  /// installed as the transaction manager's access controller, so every
  /// remote read/write is checked against the logged-in user's segments.
  Server(executor::Executor* executor, admin::AuthorizationManager* auth,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop and worker pool.
  Status Start();

  /// Graceful shutdown: stops accepting and reading, lets in-flight
  /// requests (including commits) finish, flushes outboxes, aborts the
  /// sessions of surviving connections, closes every socket, and joins
  /// all threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Live connection count (telemetry-backed; test convenience).
  std::int64_t connection_count() const;

  /// JSON status page: uptime/build info, options, request counters,
  /// per-stage latency percentiles, the per-connection table (with each
  /// connection's in-flight request and its current stage), and the
  /// hottest conflict objects. Served as `GET /statusz` by the admin
  /// endpoint and as the kStatsStatusz wire format. Callable from any
  /// thread while the server runs.
  std::string StatusJson() const;

  /// Registers an extra top-level `"key": <fn()>` section appended to
  /// StatusJson() — how optional subsystems (the tier store, say) join
  /// the status page without the server linking against them. `fn` must
  /// return a complete JSON value and be callable from any thread. Must
  /// be called before Start(); the section table is immutable while the
  /// server runs.
  void SetStatusSection(const std::string& key,
                        std::function<std::string()> fn);

 private:
  struct Connection;
  struct Request;

  /// A response before framing: Dispatch returns one of these, and the
  /// frame encode is timed as its own stage (serialize).
  struct Reply {
    MsgType type = MsgType::kOk;
    std::string payload;
  };

  /// Stage timings and identity of one response waiting in the outbox for
  /// its flush; completes (and observes flush/total latency) when the
  /// event loop has written the connection's outbox past `outbox_target`.
  struct PendingFlush {
    std::uint64_t outbox_target = 0;
    std::uint64_t received_ns = 0;
    std::uint64_t appended_ns = 0;
    std::uint64_t trace_id = 0;
    std::uint32_t seq = 0;
    MsgType type = MsgType::kOk;
    std::uint64_t queue_us = 0;
    std::uint64_t execute_us = 0;
    std::uint64_t serialize_us = 0;
    std::uint64_t tracks_read = 0;
    std::uint64_t tracks_written = 0;
  };

  void EventLoop();
  void WorkerLoop();

  void AcceptReady();
  void ReadReady(const std::shared_ptr<Connection>& conn);
  void WriteReady(Connection* conn);
  /// Parses complete frames out of conn->inbuf and schedules them.
  void ParseFrames(const std::shared_ptr<Connection>& conn);
  void Schedule(const std::shared_ptr<Connection>& conn);
  /// Marks a connection dead and closes its socket; session teardown
  /// happens later in ReapDeadConnections once no worker references it.
  void MarkDead(Connection* conn, const std::string& reason);
  void ReapDeadConnections();
  void WakeLoop();

  /// Executes one request and appends the response frame to the outbox,
  /// observing the queue/execute/serialize stage histograms.
  void HandleRequest(Connection* conn, Request&& request);
  /// Runs one request on the connection's session; the one switch over
  /// message types. Holds no gateway lock.
  Reply Dispatch(Connection* conn, const Request& request);
  /// Runs a query (ExecuteOpal, StdmQuery, Explain), once. A fresh
  /// transaction (nothing read, written or created) is pinned to SafeTime
  /// for the request: its reads resolve there, its first pin becomes its
  /// start, and a request that wrote nothing leaves it fresh again.
  Reply DispatchQuery(txn::Session* session, const Request& request);
  /// Renders a failure as a kError reply (and counts it).
  Reply ErrorReply(const Status& status);
  /// Completes flushed responses on `conn`: pops every PendingFlush whose
  /// bytes have reached the socket, observing flush and total latency and
  /// emitting kSlowRequest events past the threshold.
  void CompleteFlushes(Connection* conn, std::uint64_t now_ns);

  executor::Executor* executor_;
  admin::AuthorizationManager* auth_;
  const ServerOptions options_;

  /// Extra StatusJson sections (SetStatusSection); frozen at Start().
  std::map<std::string, std::function<std::string()>> status_sections_;

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Set by Stop() once the worker pool has drained and joined; the event
  /// loop then only flushes outboxes before exiting.
  std::atomic<bool> workers_done_{false};

  std::thread loop_thread_;
  std::vector<std::thread> worker_threads_;

  /// Dispatch queue: connections with pending requests, each present at
  /// most once. Guarded by queue_mu_ — a raw std::mutex (invisible to the
  /// thread-safety analysis and the lock-order validator) because the
  /// workers block on a condvar. It is a leaf by inspection: no queue_mu_
  /// section acquires anything.
  std::mutex queue_mu_;  // gs_lint: allow(raw-mutex)
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Connection>> queue_;
  bool queue_closed_ = false;

  /// Connection table. Written by the event-loop thread; StatusJson (any
  /// thread) reads it, so the table itself is lock-protected. Lock order:
  /// conn_table_mu_ before conn->mu, and neither is held while entering
  /// the executor; workers take it only from the status path.
  mutable Mutex conn_table_mu_{LockRank::kNetConnTable,
                               "net.conn_table_mu"};
  std::map<int, std::shared_ptr<Connection>> connections_
      GS_GUARDED_BY(conn_table_mu_);
  std::uint64_t next_conn_id_ GS_GUARDED_BY(conn_table_mu_) = 1;

  /// Source of server-assigned trace ids (client stamped 0). The top bit
  /// marks "assigned here" so mixed dumps stay disambiguated.
  std::atomic<std::uint64_t> next_trace_id_{1};

  std::uint64_t start_ns_ = 0;  // Start() time; uptime in /statusz

  // Telemetry (registry-owned; pointers stable for process lifetime).
  telemetry::Gauge* connections_gauge_;
  telemetry::Counter* accepted_;
  telemetry::Counter* rejected_;
  telemetry::Counter* requests_;
  telemetry::Counter* request_errors_;
  telemetry::Counter* protocol_errors_;
  telemetry::Counter* bytes_in_;
  telemetry::Counter* bytes_out_;
  telemetry::Counter* backpressure_stalls_;
  telemetry::Counter* idle_timeouts_;
  telemetry::Counter* request_timeouts_;
  telemetry::Counter* slow_requests_;
  /// Queries run on a snapshot: pinned, or under a time dial.
  telemetry::Counter* read_path_requests_;
  /// End-to-end latency (socket read to response flushed) and the four
  /// stage histograms it telescopes into: total = queue + execute +
  /// serialize + flush for every request, by construction.
  telemetry::Histogram* request_latency_us_;
  telemetry::Histogram* stage_queue_us_;
  telemetry::Histogram* stage_execute_us_;
  telemetry::Histogram* stage_serialize_us_;
  telemetry::Histogram* stage_flush_us_;
};

}  // namespace gemstone::net

#endif  // GEMSTONE_NET_SERVER_H_
